//go:build go1.23

// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock and executes events in (time, sequence)
// order. Simulated activities ("processes") are coroutines (iter.Pull): a
// process runs on the scheduler's own thread of control until it blocks on a
// simulated primitive (Sleep, Queue.Recv, Resource.Acquire, ...), which
// switches straight back to the scheduler; its resume event switches straight
// back in. Exactly one process runs at a time, so simulated code needs no
// locking and every run with the same seed is bit-for-bit reproducible.
//
// A panic in a process body surfaces from Run or RunAll in the caller's
// goroutine, where it can be recovered; the process is then dead and the
// environment should be closed. Close unwinds the processes still parked one
// at a time in spawn order, running their deferred functions.
//
// The kernel is the substrate for the network and host models in
// internal/netsim; nothing in it is NFS-specific.
package sim

import (
	"container/heap"
	"container/list"
	"fmt"
	"iter"
	"math/rand"
	"time"
)

// Time is virtual time since the start of the simulation.
type Time = time.Duration

// Timer is a scheduled callback — the heap entry itself, so scheduling costs
// one allocation — and the handle At returns to cancel it. Timers with equal
// when fire in seq order.
type Timer struct {
	when Time
	seq  uint64
	fn   func() // nil once fired or cancelled
}

type eventHeap []*Timer

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*Timer)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// Env is a simulation environment: a clock, an event queue and a set of
// processes. Create one with New, populate it with Spawn, then call Run.
type Env struct {
	now    Time
	seq    uint64
	events eventHeap
	rng    *rand.Rand
	live   list.List // *Proc, started and not yet returned, in spawn order
	closed bool
}

// New returns an empty environment whose random source is seeded with seed.
func New(seed int64) *Env {
	return &Env{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Rand returns the environment's deterministic random source. It must only
// be used from simulation context (process bodies and event callbacks).
func (e *Env) Rand() *rand.Rand { return e.rng }

// Stop cancels the timer if it has not fired. It reports whether the timer
// was still pending.
func (t *Timer) Stop() bool {
	if !t.Pending() {
		return false
	}
	t.fn = nil
	return true
}

// Pending reports whether the timer is still scheduled and uncancelled.
func (t *Timer) Pending() bool { return t != nil && t.fn != nil }

// At schedules fn to run at virtual time when (clamped to now). The callback
// runs in scheduler context and must not block on simulation primitives;
// use Spawn for blocking activities.
func (e *Env) At(when Time, fn func()) *Timer {
	if when < e.now {
		when = e.now
	}
	t := &Timer{when: when, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.events, t)
	return t
}

// After schedules fn to run d from now.
func (e *Env) After(d Time, fn func()) *Timer { return e.At(e.now+d, fn) }

// Proc is a simulated process. The pointer is passed to the process body and
// is the handle through which the body blocks on simulated primitives.
type Proc struct {
	env    *Env
	name   string
	resume func()              // scheduler side: switch into the body until it parks
	stop   func()              // scheduler side: unwind a parked body
	yield  func(struct{}) bool // body side: switch back to the scheduler
	elem   *list.Element       // in env.live
}

// Env returns the environment the process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Rand returns the environment's random source.
func (p *Proc) Rand() *rand.Rand { return p.env.rng }

// stopSim unwinds a process when the environment is shut down. It is caught
// by the Spawn wrapper; process bodies must not recover from it.
type stopSim struct{}

// park hands control back to the scheduler until the process is resumed.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(stopSim{})
	}
}

// resumeAt schedules the process to resume at time when. The event is
// p.resume itself, made once per process, so it costs the Timer and no more.
func (e *Env) resumeAt(when Time, p *Proc) { e.At(when, p.resume) }

// Spawn starts fn as a new process at the current virtual time. fn begins
// executing when the scheduler reaches the spawn event.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name}
	e.At(e.now, func() {
		var next func() (struct{}, bool)
		next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			defer func() {
				e.live.Remove(p.elem)
				if r := recover(); r != nil {
					if _, ok := r.(stopSim); !ok {
						panic(r) // out of next, in whoever called Run
					}
				}
			}()
			fn(p)
		})
		p.resume = func() { next() }
		p.elem = e.live.PushBack(p)
		p.resume()
	})
	return p
}

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.env.resumeAt(p.env.now+d, p)
	p.park()
}

// Run executes events until the queue empties or the clock would pass until.
// It returns the virtual time at which it stopped. Run may be called
// repeatedly with increasing horizons.
func (e *Env) Run(until Time) Time {
	if e.closed {
		panic("sim: Run after Close")
	}
	for len(e.events) > 0 {
		if e.events[0].when > until {
			e.now = until
			return e.now
		}
		e.step()
	}
	if e.now < until {
		e.now = until
	}
	return e.now
}

// RunAll executes events until the queue empties, leaving the clock at the
// time of the last event (unlike Run, which advances to its horizon).
func (e *Env) RunAll() Time {
	if e.closed {
		panic("sim: RunAll after Close")
	}
	for len(e.events) > 0 {
		e.step()
	}
	return e.now
}

// step pops the earliest event and, unless it was cancelled, fires it.
func (e *Env) step() {
	t := heap.Pop(&e.events).(*Timer)
	if fn := t.fn; fn != nil {
		t.fn = nil
		e.now = t.when
		fn()
	}
}

// Close unwinds every process still parked, one at a time in spawn order, so
// their deferred functions run and their coroutines exit. The environment
// must not be used afterwards. It is safe to call more than once.
func (e *Env) Close() {
	e.closed = true
	for el := e.live.Front(); el != nil; el = e.live.Front() {
		el.Value.(*Proc).stop()
	}
}

// String implements fmt.Stringer for debugging.
func (e *Env) String() string {
	return fmt.Sprintf("sim.Env{now=%v pending=%d}", e.now, len(e.events))
}
