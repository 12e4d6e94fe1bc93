package sim

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

const ms = time.Millisecond

func TestEventOrdering(t *testing.T) {
	e := New(1)
	var got []int
	e.At(10*ms, func() { got = append(got, 2) })
	e.At(5*ms, func() { got = append(got, 1) })
	e.At(10*ms, func() { got = append(got, 3) }) // same time: insertion order
	e.At(20*ms, func() { got = append(got, 4) })
	e.RunAll()
	want := []int{1, 2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 20*ms {
		t.Fatalf("Now = %v, want 20ms", e.Now())
	}
}

func TestRunHorizon(t *testing.T) {
	e := New(1)
	fired := false
	e.At(100*ms, func() { fired = true })
	e.Run(50 * ms)
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if e.Now() != 50*ms {
		t.Fatalf("Now = %v, want 50ms", e.Now())
	}
	e.Run(200 * ms)
	if !fired {
		t.Fatal("event within horizon did not fire")
	}
}

// A wait's timeout that lost the race stays in the heap, but it belongs to
// that wait's number: a RecvTimeout woken by a Send before its deadline,
// followed by a second wait of the same process, is not woken by the first
// wait's timeout.
func TestStaleTimeoutWakesNoLaterWait(t *testing.T) {
	e := New(1)
	defer e.Close()
	q := NewQueue[int](e, "q")
	c := NewCond(e)
	var got int
	var woke Time = -1
	e.Spawn("recv", func(p *Proc) {
		got, _ = q.RecvTimeout(p, 10*ms)
		c.Wait(p) // parked across the first wait's deadline
		woke = p.Now()
	})
	e.At(5*ms, func() { q.Send(7) })
	e.At(20*ms, c.Broadcast)
	e.RunAll()
	if got != 7 || woke != 20*ms {
		t.Fatalf("RecvTimeout = %d, then the Cond wait woke at %v; want 7, then 20ms", got, woke)
	}
	if n := q.waiters.Len(); n != 0 {
		t.Fatalf("%d queue waiters left", n)
	}
}

// A stale timeout is not an event: when it is the last one in the heap,
// RunAll leaves the clock at the Send that closed its wait.
func TestStaleTimeoutLeavesClock(t *testing.T) {
	e := New(1)
	defer e.Close()
	q := NewQueue[int](e, "q")
	e.Spawn("recv", func(p *Proc) { q.RecvTimeout(p, 10*ms) })
	e.At(5*ms, func() { q.Send(7) })
	if end := e.RunAll(); end != 5*ms {
		t.Fatalf("RunAll ended at %v, want 5ms", end)
	}
}

// A Send and a deadline at the same virtual instant: the one with the
// smaller seq closes the wait, the other finds it closed and does nothing,
// and the process resumes exactly once. Either way the item is there when it
// runs.
func TestSendAndDeadlineSameInstant(t *testing.T) {
	for _, sendFirst := range []bool{true, false} {
		e := New(1)
		q := NewQueue[int](e, "q")
		var recv *Proc
		var got int
		var ok bool
		wakes := 0
		openAtSend := false
		send := func() {
			openAtSend = recv.wait != 0
			q.Send(7)
		}
		if sendFirst {
			e.At(10*ms, send) // seq before the deadline's
		}
		recv = e.Spawn("recv", func(p *Proc) {
			got, ok = q.RecvTimeout(p, 10*ms)
			wakes++
			NewCond(e).Wait(p) // a second resume would return from here
			wakes++
		})
		if !sendFirst {
			e.Spawn("send", func(p *Proc) {
				p.Sleep(10 * ms) // parks behind the deadline: a later seq
				send()
			})
		}
		e.RunAll()
		if openAtSend != sendFirst {
			t.Errorf("sendFirst=%v: wait open when the Send ran = %v", sendFirst, openAtSend)
		}
		if wakes != 1 || got != 7 || !ok {
			t.Errorf("sendFirst=%v: %d resumes, RecvTimeout = %d, %v; want 1, 7, true", sendFirst, wakes, got, ok)
		}
		if n := q.waiters.Len(); n != 0 {
			t.Errorf("sendFirst=%v: %d queue waiters left", sendFirst, n)
		}
		e.Close()
	}
}

func TestSleepAndSequencing(t *testing.T) {
	e := New(1)
	defer e.Close()
	var trace []string
	e.Spawn("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(10 * ms)
		trace = append(trace, "a1")
		p.Sleep(20 * ms)
		trace = append(trace, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		trace = append(trace, "b0")
		p.Sleep(15 * ms)
		trace = append(trace, "b1")
	})
	e.RunAll()
	want := []string{"a0", "b0", "a1", "b1", "a2"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
	if e.Now() != 30*ms {
		t.Fatalf("Now = %v, want 30ms", e.Now())
	}
}

func TestQueueSendRecv(t *testing.T) {
	e := New(1)
	defer e.Close()
	q := NewQueue[int](e, "q")
	var got []int
	e.Spawn("recv", func(p *Proc) {
		for i := 0; i < 3; i++ {
			v, ok := q.Recv(p)
			if !ok {
				t.Error("queue closed unexpectedly")
				return
			}
			got = append(got, v)
		}
	})
	e.Spawn("send", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(5 * ms)
			q.Send(i * 10)
		}
	})
	e.RunAll()
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("got %v", got)
	}
}

func TestQueueRecvTimeout(t *testing.T) {
	e := New(1)
	defer e.Close()
	q := NewQueue[int](e, "q")
	var timedOut, received bool
	e.Spawn("recv", func(p *Proc) {
		if _, ok := q.RecvTimeout(p, 10*ms); ok {
			t.Error("expected timeout")
		}
		timedOut = true
		if v, ok := q.RecvTimeout(p, 100*ms); !ok || v != 7 {
			t.Errorf("RecvTimeout = %v,%v", v, ok)
		}
		received = true
	})
	e.Spawn("send", func(p *Proc) {
		p.Sleep(30 * ms)
		q.Send(7)
	})
	e.RunAll()
	if !timedOut || !received {
		t.Fatalf("timedOut=%v received=%v", timedOut, received)
	}
}

func TestQueueClose(t *testing.T) {
	e := New(1)
	defer e.Close()
	q := NewQueue[int](e, "q")
	q.Send(1)
	q.Close()
	var vals []int
	var closedSeen bool
	e.Spawn("r", func(p *Proc) {
		for {
			v, ok := q.Recv(p)
			if !ok {
				closedSeen = true
				return
			}
			vals = append(vals, v)
		}
	})
	e.RunAll()
	if len(vals) != 1 || vals[0] != 1 || !closedSeen {
		t.Fatalf("vals=%v closedSeen=%v", vals, closedSeen)
	}
}

func TestEventSignal(t *testing.T) {
	e := New(1)
	defer e.Close()
	ev := NewEvent(e)
	var woke Time
	e.Spawn("w", func(p *Proc) {
		ev.Wait(p)
		woke = p.Now()
	})
	e.Spawn("s", func(p *Proc) {
		p.Sleep(25 * ms)
		ev.Set()
	})
	e.RunAll()
	if woke != 25*ms {
		t.Fatalf("woke at %v, want 25ms", woke)
	}
	// Wait after set returns immediately.
	var instant bool
	e2 := New(2)
	defer e2.Close()
	ev2 := NewEvent(e2)
	ev2.Set()
	e2.Spawn("w", func(p *Proc) {
		ev2.Wait(p)
		instant = p.Now() == 0
	})
	e2.RunAll()
	if !instant {
		t.Fatal("Wait after Set did not return immediately")
	}
}

func TestEventWaitTimeout(t *testing.T) {
	e := New(1)
	defer e.Close()
	ev := NewEvent(e)
	var ok1, ok2 bool
	e.Spawn("w", func(p *Proc) {
		ok1 = ev.WaitTimeout(p, 10*ms)
		ok2 = ev.WaitTimeout(p, 100*ms)
	})
	e.Spawn("s", func(p *Proc) {
		p.Sleep(50 * ms)
		ev.Set()
	})
	e.RunAll()
	if ok1 || !ok2 {
		t.Fatalf("ok1=%v ok2=%v, want false,true", ok1, ok2)
	}
}

func TestResourceFIFOAndUtilization(t *testing.T) {
	e := New(1)
	defer e.Close()
	r := NewResource(e, "cpu", 1)
	var order []string
	worker := func(name string, start, hold Time) {
		e.Spawn(name, func(p *Proc) {
			p.Sleep(start)
			r.Acquire(p)
			order = append(order, name)
			p.Sleep(hold)
			r.Release()
		})
	}
	worker("a", 0, 30*ms)
	worker("b", 5*ms, 10*ms)
	worker("c", 10*ms, 10*ms)
	e.RunAll()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 50*ms {
		t.Fatalf("end at %v, want 50ms", e.Now())
	}
	if u := r.Utilization(); u < 0.99 || u > 1.01 {
		t.Fatalf("utilization = %v, want ~1.0", u)
	}
}

func TestResourceMultiSlot(t *testing.T) {
	e := New(1)
	defer e.Close()
	r := NewResource(e, "disks", 2)
	done := 0
	for i := 0; i < 4; i++ {
		e.Spawn("w", func(p *Proc) {
			r.Use(p, 10*ms)
			done++
		})
	}
	e.RunAll()
	if done != 4 {
		t.Fatalf("done = %d", done)
	}
	if e.Now() != 20*ms {
		t.Fatalf("end at %v, want 20ms (2 slots, 4 jobs of 10ms)", e.Now())
	}
	if u := r.Utilization(); u < 0.99 || u > 1.01 {
		t.Fatalf("utilization = %v, want ~1.0", u)
	}
}

func TestResourceTryAcquire(t *testing.T) {
	e := New(1)
	defer e.Close()
	r := NewResource(e, "r", 1)
	if !r.TryAcquire() {
		t.Fatal("TryAcquire on free resource failed")
	}
	if r.TryAcquire() {
		t.Fatal("TryAcquire on busy resource succeeded")
	}
	r.Release()
	if !r.TryAcquire() {
		t.Fatal("TryAcquire after release failed")
	}
}

func TestCondBroadcast(t *testing.T) {
	e := New(1)
	defer e.Close()
	c := NewCond(e)
	ready := false
	n := 0
	for i := 0; i < 3; i++ {
		e.Spawn("w", func(p *Proc) {
			for !ready {
				c.Wait(p)
			}
			n++
		})
	}
	e.Spawn("b", func(p *Proc) {
		p.Sleep(10 * ms)
		ready = true
		c.Broadcast()
	})
	e.RunAll()
	if n != 3 {
		t.Fatalf("n = %d, want 3", n)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		e := New(42)
		defer e.Close()
		var stamps []Time
		q := NewQueue[int](e, "q")
		for i := 0; i < 5; i++ {
			e.Spawn("p", func(p *Proc) {
				for j := 0; j < 10; j++ {
					d := Time(p.Rand().Intn(1000)) * time.Microsecond
					p.Sleep(d)
					q.Send(j)
				}
			})
		}
		e.Spawn("c", func(p *Proc) {
			for i := 0; i < 50; i++ {
				q.Recv(p)
				stamps = append(stamps, p.Now())
			}
		})
		e.RunAll()
		return stamps
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 50 {
		t.Fatalf("lengths %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Close unwinds parked processes one at a time in spawn order, running their
// deferred functions, and leaves no goroutine behind; it is safe before a
// spawn event has fired, twice, and after every process has exited.
func TestCloseUnwindsProcesses(t *testing.T) {
	e := New(1)
	q := NewQueue[int](e, "q")
	r := NewResource(e, "r", 1)
	var unwound []string
	stuck := func(name string, block func(p *Proc)) {
		e.Spawn(name, func(p *Proc) {
			defer func() { unwound = append(unwound, name) }()
			block(p)
			t.Errorf("%s ran past its park", name)
		})
	}
	stuck("recv", func(p *Proc) { q.Recv(p) })
	e.Spawn("done", func(p *Proc) {
		defer func() { unwound = append(unwound, "done") }()
		p.Sleep(ms)
	})
	stuck("sleep", func(p *Proc) { r.Acquire(p); p.Sleep(time.Hour) })
	stuck("acquire", func(p *Proc) { r.Acquire(p) })
	e.Run(10 * ms)
	e.Spawn("unstarted", func(p *Proc) { t.Error("a process whose spawn event never fired ran") })
	parked := runtime.NumGoroutine() // three of them coroutines
	e.Close()
	if want := []string{"done", "recv", "sleep", "acquire"}; !slices.Equal(unwound, want) {
		t.Fatalf("deferred functions ran in order %v, want %v", unwound, want)
	}
	// At most: a finished test's goroutine may still be on its way out.
	if got := runtime.NumGoroutine(); got > parked-3 {
		t.Fatalf("%d goroutines after Close, %d before it with three processes parked", got, parked)
	}
	e.Close() // idempotent

	e = New(1)
	e.Spawn("unstarted", func(p *Proc) { t.Error("ran after Close") })
	e.Close() // before the spawn event fired
	e = New(1)
	e.Spawn("short", func(p *Proc) { p.Sleep(ms) })
	e.RunAll()
	e.Close() // after every process exited
	if got := runtime.NumGoroutine(); got > parked-3 {
		t.Fatalf("%d goroutines at the end, want the baseline %d", got, parked-3)
	}
}

// A panic in a process body surfaces from Run in the goroutine that called
// it, where the caller can recover; the other processes still unwind on Close.
func TestProcessPanicSurfacesFromRun(t *testing.T) {
	e := New(1)
	cleaned := false
	e.Spawn("bystander", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Sleep(time.Hour)
	})
	e.Spawn("bad", func(p *Proc) {
		p.Sleep(ms)
		panic("boom")
	})
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("recovered %v from Run, want boom", r)
			}
		}()
		e.Run(time.Second)
		t.Error("Run returned past a panicking process")
	}()
	e.Close()
	if !cleaned {
		t.Error("Close after a process panic did not unwind the bystander")
	}
}

// sleepers spawns n processes that sleep a millisecond forever, the i-th
// offset by i/n of one: with one, every wake-up is the next event; with two or
// more, none is.
func sleepers(e *Env, n int) {
	for i := range n {
		e.Spawn("sleeper", func(p *Proc) {
			p.Sleep(Time(i) * ms / Time(n))
			for {
				p.Sleep(ms)
			}
		})
	}
}

// Allocations per Sleep: none, whether it parks (its resume event is a value
// in the heap's array) or its wake-up is the next event. (Counts, so
// legitimate gates.)
func TestAllocBudgetSleep(t *testing.T) {
	e := New(1)
	defer e.Close()
	sleepers(e, 2)
	e.Run(10 * ms) // past the spawns and the heap's first growth
	horizon := e.Now()
	if got := testing.AllocsPerRun(1000, func() {
		horizon += ms
		e.Run(horizon) // one Sleep each
	}) / 2; got > 0 {
		t.Errorf("%.1f allocations per Sleep that parks, budget 0", got)
	}

	lone := New(1)
	defer lone.Close()
	var got float64
	lone.Spawn("sleeper", func(p *Proc) {
		got = testing.AllocsPerRun(1000, func() { p.Sleep(ms) })
	})
	lone.RunAll()
	if got > 0 {
		t.Errorf("%.1f allocations per Sleep whose wake-up is the next event, budget 0", got)
	}
}

// No allocation per round trip between two processes: a waiter is a value
// in the FIFO's array and a resume event a value in the heap's, and both
// arrays are reused. (A count, so a legitimate gate.)
func TestAllocBudgetQueuePingPong(t *testing.T) {
	const rounds = 100
	e := New(1)
	defer e.Close()
	ping, pong := NewQueue[int](e, "ping"), NewQueue[int](e, "pong")
	e.Spawn("echo", func(p *Proc) {
		for {
			v, _ := ping.Recv(p)
			pong.Send(v)
		}
	})
	e.Spawn("pinger", func(p *Proc) {
		for {
			for i := range rounds {
				ping.Send(i)
				pong.Recv(p)
			}
			p.Sleep(ms) // past the horizon: one park, one resume event
		}
	})
	e.Run(10 * ms)
	horizon := e.Now()
	if got := testing.AllocsPerRun(100, func() {
		horizon += ms
		e.Run(horizon) // one batch of round trips
	}); got > 0 {
		t.Errorf("%.2f allocations per round trip, budget 0", got/rounds)
	}
}

// allocsPerPass runs e one millisecond further per pass, after warming it up
// for 50 ms, so that every array has grown to its steady size.
func allocsPerPass(e *Env) float64 {
	e.Run(50 * ms)
	horizon := e.Now()
	return testing.AllocsPerRun(100, func() {
		horizon += ms
		e.Run(horizon)
	})
}

// No allocation for a RecvTimeout that times out or one a Send wakes (whose
// timeout stays in the heap, stale, until its deadline), a contended
// Resource.Use, callbacks due at the instant they are scheduled (the ready
// FIFO reuses its array), a sleeper whose park runs the callbacks due before
// its wake-up, or a Cond Wait/Broadcast cycle: Broadcast keeps the waiter
// array for the next Waits. (Counts, so legitimate gates.)
func TestAllocBudgetWaits(t *testing.T) {
	for _, tc := range []struct {
		name  string
		start func(e *Env)
	}{
		{"RecvTimeout that times out", func(e *Env) {
			q := NewQueue[int](e, "q")
			e.Spawn("recv", func(p *Proc) {
				for {
					q.RecvTimeout(p, ms/3)
				}
			})
		}},
		{"RecvTimeout that a Send wakes", func(e *Env) {
			ping, pong := NewQueue[int](e, "ping"), NewQueue[int](e, "pong")
			e.Spawn("echo", func(p *Proc) {
				for {
					v, _ := ping.RecvTimeout(p, 10*ms)
					pong.Send(v)
				}
			})
			e.Spawn("pinger", func(p *Proc) {
				for i := 0; ; i++ {
					ping.Send(i)
					pong.RecvTimeout(p, 10*ms)
					p.Sleep(ms / 4)
				}
			})
		}},
		{"contended Resource.Use", func(e *Env) {
			r := NewResource(e, "cpu", 1)
			for range 3 {
				e.Spawn("user", func(p *Proc) {
					for {
						r.Use(p, ms/4)
					}
				})
			}
		}},
		{"callbacks due now", func(e *Env) {
			n := 0
			var tick func()
			tick = func() {
				if n++; n%4 == 0 {
					e.After(ms/4, tick)
				} else {
					e.At(e.Now(), tick)
				}
			}
			e.At(0, tick)
		}},
		{"park behind due callbacks", func(e *Env) {
			var tick func()
			tick = func() { e.After(ms/8, tick) }
			e.At(0, tick)
			e.Spawn("sleeper", func(p *Proc) {
				for {
					p.Sleep(ms / 3)
				}
			})
		}},
		{"Cond Wait/Broadcast", func(e *Env) {
			c := NewCond(e)
			for range 3 {
				e.Spawn("waiter", func(p *Proc) {
					for {
						c.Wait(p)
					}
				})
			}
			e.Spawn("broadcaster", func(p *Proc) {
				for {
					p.Sleep(ms / 4)
					c.Broadcast()
				}
			})
		}},
	} {
		e := New(1)
		tc.start(e)
		if got := allocsPerPass(e); got > 0 {
			t.Errorf("%s: %.2f allocations per millisecond of it, budget 0", tc.name, got)
		}
		e.Close()
	}
}

// benchSleep runs n sleepers (see sleepers) for b.N Sleeps in all.
func benchSleep(b *testing.B, n int) {
	e := New(1)
	defer e.Close()
	sleepers(e, n)
	e.Run(0)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(Time(b.N) * ms / Time(n))
}

// BenchmarkSleepPark is the kernel's floor for a Sleep that parks: two
// sleepers half a period apart, so each iteration is one heap push and pop
// of a value event, no allocation, and one switch out and back in.
func BenchmarkSleepPark(b *testing.B) { benchSleep(b, 2) }

// BenchmarkSleepLookahead is one sleeper, whose every wake-up is the next
// event: each iteration only moves the clock.
func BenchmarkSleepLookahead(b *testing.B) { benchSleep(b, 1) }

// BenchmarkQueuePingPong bounces a token between two processes through two
// queues: per iteration two Sends, two blocking Recvs and two resumes.
func BenchmarkQueuePingPong(b *testing.B) {
	e := New(1)
	defer e.Close()
	ping, pong := NewQueue[int](e, "ping"), NewQueue[int](e, "pong")
	e.Spawn("echo", func(p *Proc) {
		for {
			v, ok := ping.Recv(p)
			if !ok {
				return
			}
			pong.Send(v)
		}
	})
	e.Spawn("driver", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Send(i)
			pong.Recv(p)
		}
		ping.Close()
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.RunAll()
}

// Property: for any set of delays, events fire in nondecreasing time order
// and same-time events fire in insertion order.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := New(1)
		type rec struct {
			when Time
			seq  int
		}
		var fired []rec
		for i, d := range delays {
			when := Time(d%997) * time.Microsecond
			i := i
			e.At(when, func() { fired = append(fired, rec{when, i}) })
		}
		e.RunAll()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].when < fired[i-1].when {
				return false
			}
			if fired[i].when == fired[i-1].when && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a process that sleeps is indistinguishable from a chain of At
// callbacks, one per step, which never parks and so is the schedule Sleep
// made before its lookahead. Whatever the delays (zeros and ties across
// processes included) and however RunAll is preceded by Run horizons, both
// leave the same (time, process, step) trace, and the same clock and trace
// length after every Run.
func TestSleepLookaheadMatchesEventChain(t *testing.T) {
	type step struct {
		at         Time
		proc, step int
	}
	type mark struct {
		now   Time
		steps int
	}
	delay := func(d uint8) Time { return Time(d%4) * ms }
	f := func(procs [][]uint8, cuts []uint8) bool {
		run := func(start func(e *Env, proc int, delays []uint8, trace *[]step)) ([]step, []mark) {
			e := New(1)
			defer e.Close()
			var trace []step
			for i, ds := range procs[:min(len(procs), 5)] {
				start(e, i, ds, &trace)
			}
			var marks []mark
			var h Time
			for _, c := range cuts {
				h += Time(c%8) * ms / 2
				marks = append(marks, mark{e.Run(h), len(trace)})
			}
			marks = append(marks, mark{e.RunAll(), len(trace)})
			return trace, marks
		}
		sleeper := func(e *Env, proc int, delays []uint8, trace *[]step) {
			e.Spawn("sleeper", func(p *Proc) {
				for k, d := range delays {
					p.Sleep(delay(d))
					*trace = append(*trace, step{p.Now(), proc, k})
				}
			})
		}
		chain := func(e *Env, proc int, delays []uint8, trace *[]step) {
			var next func(k int)
			next = func(k int) {
				if k < len(delays) {
					e.After(delay(delays[k]), func() {
						*trace = append(*trace, step{e.Now(), proc, k})
						next(k + 1)
					})
				}
			}
			e.At(e.Now(), func() { next(0) }) // where Spawn starts a body
		}
		slept, sleptMarks := run(sleeper)
		chained, chainedMarks := run(chain)
		return slices.Equal(slept, chained) && slices.Equal(sleptMarks, chainedMarks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// A lone sleeper's wake-up is always the next event, so only the horizon
// stops it: under Run(10.5 ms) it wakes at 0, 1, ..., 10 ms and parks for
// 11 ms, the clock stops at the horizon, and the next Run resumes it. (It
// would go on for a second, so a missing horizon fails rather than hangs.)
// After Run returns nothing skips a park: the Sleep in a deferred function
// Close unwinds does not return.
func TestSleepLookaheadStopsAtHorizon(t *testing.T) {
	e := New(1)
	var wakes []Time
	ranPastClose := false
	e.Spawn("sleeper", func(p *Proc) {
		defer func() {
			p.Sleep(0)
			ranPastClose = true
		}()
		for p.Now() < time.Second {
			wakes = append(wakes, p.Now())
			p.Sleep(ms)
		}
	})
	if now := e.Run(10*ms + ms/2); now != 10*ms+ms/2 || len(wakes) != 11 || wakes[10] != 10*ms {
		t.Fatalf("Run(10.5ms) stopped at %v after %d wake-ups", now, len(wakes))
	}
	if e.Run(20*ms + ms/2); len(wakes) != 21 || wakes[11] != 11*ms {
		t.Fatalf("%d wake-ups after the next Run, want 21 from 11ms", len(wakes))
	}
	e.Close()
	if ranPastClose {
		t.Error("a Sleep in a process Close unwound returned")
	}
}

// Events due at one instant run in (when, seq) order across both queues:
// heap events pushed before the clock reached the instant (callbacks and a
// sleeper's resume) run first, in push order, then the ready FIFO in push
// order, whether it holds callbacks, a Cond wake-up or an At in the past.
func TestSameInstantOrder(t *testing.T) {
	e := New(1)
	defer e.Close()
	var got []string
	c := NewCond(e)
	e.Spawn("waiter", func(p *Proc) {
		c.Wait(p)
		got = append(got, "woken")
	})
	e.At(10*ms, func() {
		got = append(got, "heap 1")
		e.At(e.Now(), func() { got = append(got, "ready callback") })
		c.Broadcast()
		e.At(e.Now()-ms, func() { got = append(got, "past, clamped") })
	})
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(10 * ms) // its resume is pushed after both heap callbacks
		got = append(got, "sleeper")
		e.At(p.Now(), func() { got = append(got, "sleeper's callback") })
	})
	e.At(10*ms, func() { got = append(got, "heap 2") })
	e.RunAll()
	want := []string{"heap 1", "heap 2", "sleeper", "ready callback", "woken", "past, clamped", "sleeper's callback"}
	if !slices.Equal(got, want) {
		t.Fatalf("order %q, want %q", got, want)
	}
}

// Sleep(0) with a ready event queued parks behind it: that event was due
// at this instant first.
func TestSleepZeroYieldsToReady(t *testing.T) {
	e := New(1)
	defer e.Close()
	var got []string
	e.Spawn("p", func(p *Proc) {
		e.At(p.Now(), func() { got = append(got, "callback") })
		p.Sleep(0)
		got = append(got, "after Sleep(0)")
		p.Sleep(0) // nothing queued: the clock stays and nothing parks
		got = append(got, "again")
	})
	e.RunAll()
	if want := []string{"callback", "after Sleep(0)", "again"}; !slices.Equal(got, want) {
		t.Fatalf("order %q, want %q", got, want)
	}
}

// Advance moves the clock up to the horizon and no further, never to or
// past a queued event, never while a ready event waits, never outside a
// run, and clamps a past time to now.
func TestAdvance(t *testing.T) {
	e := New(1)
	defer e.Close()
	if e.Advance(ms) || e.Now() != 0 {
		t.Fatal("Advance outside a run moved the clock")
	}
	e.At(0, func() {
		if !e.Advance(2*ms) || e.Now() != 2*ms {
			t.Errorf("Advance(2ms) to an empty queue: now %v", e.Now())
		}
		if !e.Advance(ms) || e.Now() != 2*ms {
			t.Errorf("Advance to the past moved the clock to %v", e.Now())
		}
		e.At(5*ms, func() {})
		if e.Advance(5*ms) || e.Advance(6*ms) || e.Now() != 2*ms {
			t.Errorf("Advance reached a queued event: now %v", e.Now())
		}
		e.At(e.Now(), func() {})
		if e.Advance(e.Now()) {
			t.Error("Advance passed a ready event")
		}
	})
	e.At(7*ms, func() {
		if !e.Advance(10*ms) || e.Now() != 10*ms {
			t.Errorf("Advance to the horizon: now %v", e.Now())
		}
		if e.Advance(10*ms+1) || e.Now() != 10*ms {
			t.Errorf("Advance past the horizon: now %v", e.Now())
		}
	})
	if now := e.Run(10 * ms); now != 10*ms {
		t.Fatalf("Run(10ms) = %v", now)
	}
}

// Stop ends the run where it was called: the clock stays at that instant,
// later events stay queued and a parked process stays parked, and the
// stopping process's own Sleep parks rather than advancing past the stop.
// A later Run continues, and Close unwinds whatever is still parked.
func TestStop(t *testing.T) {
	e := New(1)
	c := NewCond(e)
	unwound, fired, slept := false, false, false
	e.Spawn("parked", func(p *Proc) {
		defer func() { unwound = true }()
		c.Wait(p)
	})
	e.Spawn("workload", func(p *Proc) {
		p.Sleep(5 * ms)
		e.Stop()
		p.Sleep(ms)
		slept = true
	})
	e.At(time.Hour, func() { fired = true })
	if now := e.Run(2 * time.Hour); now != 5*ms || e.Now() != 5*ms || slept || fired {
		t.Fatalf("Run stopped at %v (now %v), slept %v, fired %v", now, e.Now(), slept, fired)
	}
	if now := e.Run(2 * time.Hour); now != 2*time.Hour || !slept || !fired || unwound {
		t.Fatalf("next Run: now %v, slept %v, fired %v, unwound %v", now, slept, fired, unwound)
	}
	e.Stop() // outside a run: nothing
	e.At(3*time.Hour, func() {})
	if now := e.Run(4 * time.Hour); now != 4*time.Hour {
		t.Fatalf("Run after a Stop outside a run stopped at %v", now)
	}
	e.Close()
	if !unwound {
		t.Fatal("Close left the parked process")
	}
}

// onParkStack reports whether the caller runs on a parked process's stack,
// the way park runs the callbacks due before its next switch, rather than
// on the scheduler's.
func onParkStack() bool {
	pcs := make([]uintptr, 64)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, ".(*Proc).park") {
			return true
		}
		if !more {
			return false
		}
	}
}

// A callback due before a sleeper's wake-up runs first, on the sleeper's
// stack with no switch, and the sleeper then wakes at its own time.
func TestParkRunsDueCallback(t *testing.T) {
	e := New(1)
	defer e.Close()
	var got []string
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(10 * ms)
		got = append(got, fmt.Sprint("sleeper at ", p.Now()))
	})
	e.At(5*ms, func() { got = append(got, fmt.Sprint("callback, parked stack ", onParkStack())) })
	e.RunAll()
	if want := []string{"callback, parked stack true", "sleeper at 10ms"}; !slices.Equal(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
}

// A callback pushed during a sleep for the wake-up instant runs after the
// sleeper, whose resume was queued first.
func TestParkLeavesLaterCallback(t *testing.T) {
	e := New(1)
	defer e.Close()
	var got []string
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(10 * ms)
		got = append(got, "sleeper")
	})
	e.At(5*ms, func() {
		got = append(got, "5ms")
		e.At(10*ms, func() { got = append(got, "pushed for 10ms") })
	})
	e.RunAll()
	if want := []string{"5ms", "sleeper", "pushed for 10ms"}; !slices.Equal(got, want) {
		t.Fatalf("order %q, want %q", got, want)
	}
}

// Advance in a callback a parked sleeper runs stops short of the sleeper's
// queued resume.
func TestParkAdvanceStopsAtSleeper(t *testing.T) {
	e := New(1)
	defer e.Close()
	woke := Time(-1)
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(10 * ms)
		woke = p.Now()
	})
	e.At(5*ms, func() {
		if !onParkStack() {
			t.Error("the callback did not run on the parked sleeper's stack")
		}
		if e.Advance(10*ms) || e.Advance(20*ms) || e.Now() != 5*ms {
			t.Errorf("Advance reached the sleeper's resume: now %v", e.Now())
		}
		if !e.Advance(8*ms) || e.Now() != 8*ms {
			t.Errorf("Advance(8ms) short of the resume: now %v", e.Now())
		}
	})
	e.RunAll()
	if woke != 10*ms {
		t.Fatalf("sleeper woke at %v, want 10ms", woke)
	}
}

// Stop in a callback a parked sleeper runs ends the Run at that instant:
// the next callback due then stays queued with the sleeper's resume, and
// the next Run runs both, the sleeper at its own time.
func TestParkStopsOnStop(t *testing.T) {
	e := New(1)
	defer e.Close()
	var got []string
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(10 * ms)
		got = append(got, fmt.Sprint("sleeper at ", p.Now()))
	})
	e.At(5*ms, func() {
		got = append(got, fmt.Sprint("stop, parked stack ", onParkStack()))
		e.Stop()
	})
	e.At(5*ms, func() { got = append(got, "after the stop") })
	if now := e.Run(time.Hour); now != 5*ms || !slices.Equal(got, []string{"stop, parked stack true"}) {
		t.Fatalf("Run stopped at %v having run %q", now, got)
	}
	e.Run(time.Hour)
	if want := []string{"stop, parked stack true", "after the stop", "sleeper at 10ms"}; !slices.Equal(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
}

// A spawn is never run on a parked process's stack: a spawned process has
// its own, so its panic surfaces from Run and kills it alone.
func TestParkNeverRunsSpawn(t *testing.T) {
	e := New(1)
	defer e.Close()
	woke := false
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(10 * ms)
		woke = true
	})
	e.At(5*ms, func() { e.Spawn("bad", func(p *Proc) { panic("boom") }) })
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("recovered %v from Run, want boom", r)
			}
		}()
		e.Run(time.Hour)
	}()
	e.Run(time.Hour)
	if !woke {
		t.Fatal("the spawned process's panic killed the parked sleeper")
	}
}

// A process that parks under Run(until) runs nothing due past until.
func TestParkStopsAtHorizon(t *testing.T) {
	e := New(1)
	defer e.Close()
	var got []Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(10 * ms)
		got = append(got, p.Now())
	})
	e.At(7*ms, func() { got = append(got, e.Now()) })
	if now := e.Run(5 * ms); now != 5*ms || len(got) != 0 {
		t.Fatalf("Run(5ms) stopped at %v having run events at %v", now, got)
	}
	e.RunAll()
	if want := []Time{7 * ms, 10 * ms}; !slices.Equal(got, want) {
		t.Fatalf("events at %v, want %v", got, want)
	}
}

// Property: a Serve consumer is a process that loops on Recv, event for
// event. One seeded schedule of Sends (two at once, or several callbacks at
// one instant), Stops and a Close, interleaved with bystander callbacks
// that look again behind whatever is ready, runs against each under the
// same Run horizons. What each consumes and when, what the bystanders see,
// and where every Run stops are the same, and the Serve consumer schedules
// one event wherever the process's resume was: the Recv loop's only extra
// events are its spawn and its wake-up on Close.
func TestServeMatchesRecvLoop(t *testing.T) {
	type rec struct {
		at   Time
		v, n int
	}
	type result struct {
		consumed, seen, marks []rec
		events                uint64
	}
	f := func(ops, cuts []uint8) bool {
		run := func(serve bool) (r result) {
			e := New(1)
			defer e.Close()
			q := NewQueue[int](e, "q")
			consume := func(v int) { r.consumed = append(r.consumed, rec{e.Now(), v, 0}) }
			extra := uint64(0)
			if serve {
				q.Serve(consume)
			} else {
				extra++ // the spawn
				e.Spawn("consumer", func(p *Proc) {
					for {
						v, ok := q.Recv(p)
						if !ok {
							return
						}
						consume(v)
					}
				})
			}
			look := func(i int) { r.seen = append(r.seen, rec{e.Now(), i, len(r.consumed)}) }
			var at Time
			for i, op := range ops {
				at += Time(op%3) * ms / 2 // a zero puts several ops at one instant
				switch op / 3 % 16 {
				case 0, 1, 2, 3, 4:
					e.At(at, func() { q.Send(2 * i); q.Send(2*i + 1) })
				case 5, 6, 7, 8:
					e.At(at, func() { q.Send(2 * i) })
				case 9, 10, 11, 12:
					e.At(at, func() {
						look(i)
						e.At(e.Now(), func() { look(-i) })
					})
				case 13, 14:
					e.At(at, e.Stop)
				default:
					e.At(at, func() {
						if !serve && !q.closed && q.waiters.Len() > 0 {
							extra++ // the Recv loop's wake-up
						}
						q.Close()
					})
				}
			}
			var h Time
			for _, c := range cuts {
				h += Time(c%8) * ms / 2
				now := e.Run(h)
				r.marks = append(r.marks, rec{now, len(r.consumed), len(r.seen)})
			}
			now := e.RunAll()
			r.marks = append(r.marks, rec{now, len(r.consumed), len(r.seen)})
			r.events = e.seq - extra
			return r
		}
		a, b := run(false), run(true)
		return slices.Equal(a.consumed, b.consumed) && slices.Equal(a.seen, b.seen) &&
			slices.Equal(a.marks, b.marks) && a.events == b.events
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// A wait that times out takes its waiter with it: after 10,000 timed-out
// RecvTimeouts or WaitTimeouts none is listed, and a later Send or Set still
// reaches the process.
func TestTimedOutWaitLeavesNoWaiter(t *testing.T) {
	const n = 10000
	e := New(1)
	defer e.Close()
	q := NewQueue[int](e, "q")
	ev := NewEvent(e)
	e.Spawn("recv", func(p *Proc) {
		for range n {
			q.RecvTimeout(p, ms)
		}
		if got := q.waiters.Len(); got != 0 {
			t.Errorf("%d queue waiters after %d timeouts", got, n)
		}
		if v, ok := q.RecvTimeout(p, time.Second); !ok || v != 7 {
			t.Errorf("RecvTimeout after the timeouts = %v, %v", v, ok)
		}
	})
	e.Spawn("wait", func(p *Proc) {
		for range n {
			ev.WaitTimeout(p, ms)
		}
		if got := len(ev.waiters); got != 0 {
			t.Errorf("%d event waiters after %d timeouts", got, n)
		}
		if !ev.WaitTimeout(p, time.Second) {
			t.Error("WaitTimeout after the timeouts missed the Set")
		}
	})
	e.Spawn("send", func(p *Proc) {
		p.Sleep(n*ms + ms/2)
		q.Send(7)
		ev.Set()
	})
	e.RunAll()
}

// Property: a fifo is a slice with pops from the front, whatever mix of
// pushes, pops and removals drains, compacts and regrows its array.
func TestFifoMatchesSlice(t *testing.T) {
	f := func(ops []uint8) bool {
		var q FIFO[int]
		var model []int
		for i, op := range ops {
			switch {
			case op%4 == 0 && len(model) > 0:
				if q.Pop() != model[0] {
					return false
				}
				model = model[1:]
			case op%4 == 1 && len(model) > 0:
				k := int(op/4) % len(model)
				q.remove(k)
				model = slices.Delete(model, k, k+1)
			default:
				q.Push(i)
				model = append(model, i)
			}
			if !slices.Equal(q.live(), model) || q.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
