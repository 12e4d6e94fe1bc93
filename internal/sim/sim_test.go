package sim

import (
	"runtime"
	"slices"
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

func TestTimerStop(t *testing.T) {
	e := New(1)
	fired := false
	tm := e.After(10*ms, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("new timer not pending")
	}
	if !tm.Stop() {
		t.Fatal("Stop returned false on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	e.RunAll()
	if fired {
		t.Fatal("stopped timer fired")
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

func TestQueueDropTail(t *testing.T) {
	e := New(1)
	defer e.Close()
	q := NewQueue[int](e, "q")
	q.MaxLen = 2
	if !q.Send(1) || !q.Send(2) {
		t.Fatal("sends within bound failed")
	}
	if q.Send(3) {
		t.Fatal("send over bound succeeded")
	}
	if q.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", q.Dropped)
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

// One allocation per Sleep: the resume event. (A count, so a legitimate gate.)
func TestAllocBudgetSleep(t *testing.T) {
	e := New(1)
	defer e.Close()
	e.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(ms)
		}
	})
	e.Run(10 * ms) // past the spawn and the heap's first growth
	horizon := e.Now()
	if got := testing.AllocsPerRun(1000, func() {
		horizon += ms
		e.Run(horizon)
	}); got > 1 {
		t.Fatalf("%.1f allocations per Sleep and resume, budget 1", got)
	}
}

// BenchmarkSleepResume is the kernel's floor: one process sleeping b.N times,
// so each iteration is one heap push and pop and one switch in and out.
func BenchmarkSleepResume(b *testing.B) {
	e := New(1)
	defer e.Close()
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(ms)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.RunAll()
}

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
