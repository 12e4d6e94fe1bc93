package sim

import (
	"context"
	"testing"
	"time"
)

// The RunWall tests hold only loose wall-clock bounds: they run on small,
// shared machines, where a goroutine may wait tens of milliseconds to run.

// TestPostRunsNowInOrder: callbacks posted from another goroutine run at the
// wall clock's instant, in Post order, while events scheduled with At still
// run at their own times, and the clock never moves backwards.
func TestPostRunsNowInOrder(t *testing.T) {
	e := New(1)
	defer e.Close()
	var times []Time
	var atOrder, postOrder []int
	for i := range 10 {
		when := Time(i/2+1) * 10 * ms // pairs share an instant: seq decides
		e.At(when, func() {
			if e.Now() != when {
				t.Errorf("At(%v) ran at %v", when, e.Now())
			}
			times = append(times, e.Now())
			atOrder = append(atOrder, i)
		})
	}
	t0 := time.Now()
	go func() {
		for i := range 10 {
			time.Sleep(7 * ms)
			e.Post(func() {
				if lag := Time(time.Since(t0)) - e.Now(); lag < 0 || lag > 500*ms {
					t.Errorf("post %d ran at %v, %v behind the wall clock", i, e.Now(), lag)
				}
				times = append(times, e.Now())
				postOrder = append(postOrder, i)
			})
		}
		e.Post(e.Stop)
	}()
	e.RunWall(context.Background())
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatalf("clock went back: %v", times)
		}
	}
	for _, order := range [][]int{atOrder, postOrder} {
		for i, v := range order {
			if v != i {
				t.Fatalf("ran out of order: %v", order)
			}
		}
	}
	if len(atOrder) != 10 || len(postOrder) != 10 {
		t.Fatalf("ran %d At and %d posted callbacks, want 10 each", len(atOrder), len(postOrder))
	}
}

// TestRunWallSleepNotEarly: a Sleep of d called at virtual time v resumes no
// earlier than v+d of wall time, through both the parked path and the
// lookahead of a lone sleeper. (A process that runs late keeps its event's
// time, so its next Sleep makes up the lag: open-loop pacing holds its rate.)
func TestRunWallSleepNotEarly(t *testing.T) {
	e := New(1)
	defer e.Close()
	var t0 time.Time // at most as late as RunWall's start
	e.Spawn("sleeper", func(p *Proc) {
		for _, d := range []Time{20 * ms, 0, 30 * ms, 5 * ms} {
			wake := p.Now() + d
			p.Sleep(d)
			if wall := Time(time.Since(t0)); wall < wake || p.Now() != wake {
				t.Errorf("Sleep(%v) due at %v resumed at %v, wall clock %v", d, wake, p.Now(), wall)
			}
		}
		e.Stop()
	})
	e.Spawn("ticker", func(p *Proc) { // keeps a later event queued
		for {
			p.Sleep(15 * ms)
		}
	})
	t0 = time.Now()
	end := e.RunWall(context.Background())
	if wall := Time(time.Since(t0)); end != 55*ms || end > wall {
		t.Fatalf("RunWall ended at %v after %v of wall time", end, wall)
	}
}

// TestRunWallEnds: Stop and ctx's end each return from RunWall, with events
// still queued.
func TestRunWallEnds(t *testing.T) {
	e := New(1)
	defer e.Close()
	e.Spawn("long", func(p *Proc) { p.Sleep(time.Hour) })
	e.At(20*ms, e.Stop)
	if end := e.RunWall(context.Background()); end != 20*ms {
		t.Fatalf("RunWall stopped at %v, want 20ms", end)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*ms)
	defer cancel()
	t0 := time.Now()
	e.RunWall(ctx)
	if d := time.Since(t0); d < 30*ms || d > 10*time.Second {
		t.Fatalf("RunWall returned %v after its context's 30ms deadline began", d)
	}
}

// TestPostBeforeRunWall: a callback posted before RunWall starts runs once it
// does.
func TestPostBeforeRunWall(t *testing.T) {
	e := New(1)
	defer e.Close()
	ran := false
	e.Post(func() { ran = true; e.Stop() })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	e.RunWall(ctx)
	if !ran {
		t.Fatal("the early Post never ran")
	}
}

// TestPostRunsWhileBehind: an Env that lags the wall clock for good, because
// a callback that takes longer than its period keeps rescheduling itself,
// still runs a callback posted from another goroutine before a Stop due long
// after the post.
func TestPostRunsWhileBehind(t *testing.T) {
	e := New(1)
	defer e.Close()
	ran := false
	var tick func()
	tick = func() {
		if e.Now() == 0 {
			go e.Post(func() { ran = true })
		}
		time.Sleep(ms) // each 100µs of virtual time costs a millisecond of wall time
		e.After(100*time.Microsecond, tick)
	}
	e.At(0, tick)
	e.At(20*ms, e.Stop)
	e.RunWall(context.Background())
	if !ran {
		t.Fatal("the posted callback never ran before Stop")
	}
}
