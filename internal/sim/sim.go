//go:build go1.23

// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock and executes events in (time, sequence)
// order. Simulated activities ("processes") are coroutines (iter.Pull): a
// process runs on the scheduler's own thread of control until it blocks on a
// simulated primitive (Sleep, Queue.Recv, Resource.Acquire, ...), which
// switches straight back to the scheduler; its resume event switches straight
// back in. A Sleep whose wake-up would be the next event of the run in
// progress makes no resume event at all: the clock moves to the wake-up and
// the process keeps running, since nothing else could have run in between
// (Advance offers the same lookahead to event-driven models). A process that
// parks first runs the callbacks due before its next switch itself, and
// returns at once if its own resume comes up first. An event due at the
// instant it is scheduled skips the heap for a FIFO ready queue.
// Exactly one process runs at a time, so simulated code needs no locking and
// every run with the same seed is bit-for-bit reproducible.
//
// A panic in a process body surfaces from Run or RunAll in the caller's
// goroutine, where it can be recovered; the process is then dead and the
// environment should be closed. A panic in a callback that a parking
// process was running kills that process the same way. Close unwinds the
// processes still parked one at a time in spawn order, running their
// deferred functions. Stop ends a run early, typically when the process
// driving a workload returns.
//
// The kernel is the substrate for the network and host models in
// internal/netsim; nothing in it is NFS-specific.
package sim

import (
	"container/list"
	"fmt"
	"iter"
	"math"
	"math/rand"
	"time"
)

// Time is virtual time since the start of the simulation.
type Time = time.Duration

// event is one entry of the event queue, held by value in the heap so that
// scheduling allocates nothing. It does one of three things: calls fn (with
// p set, fn is p's spawn); resumes p; or, when gen != 0, expires p's wait
// number gen if that wait is still open. Events with equal when fire in seq
// order.
type event struct {
	when Time
	seq  uint64
	fn   func()
	p    *Proc
	gen  uint64
}

func (a *event) before(b *event) bool {
	return a.when < b.when || a.when == b.when && a.seq < b.seq
}

// Env is a simulation environment: a clock, an event queue and a set of
// processes. Create one with New, populate it with Spawn, then call Run.
//
// The event queue is two structures. An event due later than the instant it
// is scheduled at goes into a binary min-heap on (when, seq); one due at that
// instant goes to the back of the ready FIFO. A heap event due now was pushed
// before the clock reached now, so its seq is smaller than any ready event's
// and it runs first: pop keeps the one (when, seq) order of a single heap.
type Env struct {
	now     Time
	horizon Time // until of the Run in progress, math.MaxInt64 under RunAll, -1 outside a run
	seq     uint64
	events  []event     // a binary min-heap on (when, seq)
	ready   FIFO[event] // due at now, in seq order
	waits   uint64      // wait numbers handed out; 0 is none
	rng     *rand.Rand
	live    list.List // *Proc, started and not yet returned, in spawn order
	stopped bool      // Stop was called in the run in progress
	closed  bool
}

// New returns an empty environment whose random source is seeded with seed.
func New(seed int64) *Env {
	return &Env{horizon: -1, rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Rand returns the environment's deterministic random source. It must only
// be used from simulation context (process bodies and event callbacks).
func (e *Env) Rand() *rand.Rand { return e.rng }

// At schedules fn to run at virtual time when (clamped to now). The callback
// runs in scheduler context and must not block on simulation primitives;
// use Spawn for blocking activities.
func (e *Env) At(when Time, fn func()) { e.push(event{when: when, fn: fn}) }

// After schedules fn to run d from now.
func (e *Env) After(d Time, fn func()) { e.At(e.now+d, fn) }

// push stamps ev with the next sequence number and queues it: at the back
// of the ready FIFO if it is due now, else sifted up the heap.
// (container/heap's Push(any) would box the event.)
func (e *Env) push(ev event) {
	ev.seq = e.seq
	e.seq++
	if ev.when <= e.now {
		ev.when = e.now
		e.ready.Push(ev)
		return
	}
	h := append(e.events, ev)
	i := len(h) - 1
	for i > 0 {
		up := (i - 1) / 2
		if !ev.before(&h[up]) {
			break
		}
		h[i] = h[up]
		i = up
	}
	h[i] = ev
	e.events = h
}

// readyFirst reports whether the earliest event is the oldest ready one:
// there is one, and the heap's head is not also due now.
func (e *Env) readyFirst() bool {
	return e.ready.Len() > 0 && (len(e.events) == 0 || e.events[0].when > e.now)
}

// peek returns the event pop would return, or nil if none is queued. The
// pointer is valid until the next push or pop.
func (e *Env) peek() *event {
	switch {
	case e.readyFirst():
		return &e.ready.buf[e.ready.head]
	case len(e.events) > 0:
		return &e.events[0]
	}
	return nil
}

// pop removes and returns the earliest event: the heap's head if it is due
// now, else the oldest ready event, else the heap's head.
func (e *Env) pop() event {
	if e.readyFirst() {
		return e.ready.Pop()
	}
	h := e.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // drop its references
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && h[c+1].before(&h[c]) {
				c++
			}
			if !h[c].before(&last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	e.events = h
	return top
}

// Proc is a simulated process. The pointer is passed to the process body and
// is the handle through which the body blocks on simulated primitives.
type Proc struct {
	env   *Env
	name  string
	next  func() (struct{}, bool) // scheduler side: switch into the body until it parks
	stop  func()                  // scheduler side: unwind a parked body
	yield func(struct{}) bool     // body side: switch back to the scheduler
	elem  *list.Element           // in env.live
	wait  uint64                  // number of the open wait, 0 if none (queue.go)
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

// park suspends the process until it is resumed. Until the next event
// would switch to another process, it does the scheduler's work itself, in
// the same order and under the same horizon and Stop: callbacks and wait
// timeouts run on the process's own stack, and its own resume returns
// without a switch. A resume or a spawn of another process, an event past
// the horizon or a Stop hands control back to the scheduler.
func (p *Proc) park() {
	e := p.env
	for !e.stopped {
		ev := e.peek()
		if ev == nil || ev.when > e.horizon {
			break
		}
		if ev.p == nil || ev.gen != 0 { // a callback or a wait timeout
			e.step()
			continue
		}
		if ev.p != p || ev.fn != nil { // another process, or a spawn
			break
		}
		e.now = e.pop().when
		return
	}
	if !p.yield(struct{}{}) {
		panic(stopSim{})
	}
}

// resumeAt schedules the process to resume at time when. Sleep makes one
// only when something else could run before when.
func (e *Env) resumeAt(when Time, p *Proc) { e.push(event{when: when, p: p}) }

// Spawn starts fn as a new process at the current virtual time. fn begins
// executing when the scheduler reaches the spawn event.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name}
	e.push(event{when: e.now, p: p, fn: func() {
		p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
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
		p.elem = e.live.PushBack(p)
		p.next()
	}})
	return p
}

// Sleep suspends the process for d of virtual time. When Advance can move
// the clock to the wake-up, the process keeps running without parking. Its
// resume is queued before it parks, so a callback the park runs cannot
// Advance past the wake-up.
func (p *Proc) Sleep(d Time) {
	e := p.env
	when := e.now + max(d, 0)
	if e.Advance(when) {
		return
	}
	e.resumeAt(when, p)
	p.park()
}

// Advance moves the clock to when and reports true if that would be the next
// event anyway: when is within the horizon of the run in progress and
// strictly before every queued event (one queued for the same time has a
// smaller seq and runs first). Otherwise it reports false and leaves the
// clock; the caller then schedules its continuation at when, as Sleep parks.
// It is the lookahead of Sleep for code that runs as event callbacks.
func (e *Env) Advance(when Time) bool {
	when = max(when, e.now)
	if when > e.horizon || e.ready.Len() > 0 || len(e.events) > 0 && e.events[0].when <= when {
		return false
	}
	e.now = when
	return true
}

// Stop ends the Run or RunAll in progress when the current event returns,
// with the clock at that event's time, not at the horizon. Queued events and
// parked processes stay: a later Run continues them and Close unwinds them.
// Until the run returns, Advance moves the clock no further. Outside a run
// Stop does nothing.
func (e *Env) Stop() {
	e.stopped = true
	e.horizon = min(e.horizon, e.now)
}

// Run executes events until the queue empties, the clock would pass until or
// Stop is called. It returns the virtual time at which it stopped. Run may be
// called repeatedly with increasing horizons.
func (e *Env) Run(until Time) Time {
	if e.closed {
		panic("sim: Run after Close")
	}
	e.horizon, e.stopped = until, false
	defer e.endRun()
	for !e.stopped {
		ev := e.peek()
		if ev == nil {
			break
		}
		if ev.when > until {
			e.now = until
			return e.now
		}
		e.step()
	}
	if !e.stopped && e.now < until {
		e.now = until
	}
	return e.now
}

// RunAll executes events until the queue empties or Stop is called, leaving
// the clock at the time of the last event (unlike Run, which advances to its
// horizon).
func (e *Env) RunAll() Time {
	if e.closed {
		panic("sim: RunAll after Close")
	}
	e.horizon, e.stopped = math.MaxInt64, false
	defer e.endRun()
	for !e.stopped && (e.ready.Len() > 0 || len(e.events) > 0) {
		e.step()
	}
	return e.now
}

// endRun clears the horizon when Run or RunAll returns or a process panic
// leaves it, so no Sleep outside a run, such as one in a deferred function
// Close unwinds, skips its park, and a Stop outside a run does nothing.
func (e *Env) endRun() { e.horizon = -1 }

// step pops the earliest event and fires it. An expiry whose wait has
// closed is stale: it does nothing and leaves the clock where it is.
func (e *Env) step() {
	ev := e.pop()
	switch {
	case ev.fn != nil:
		e.now = ev.when
		ev.fn()
	case ev.gen != 0:
		if ev.p.wait == ev.gen {
			e.now = ev.when
			waiter{ev.p, ev.gen}.fire(e)
		}
	default:
		e.now = ev.when
		ev.p.next()
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
	return fmt.Sprintf("sim.Env{now=%v pending=%d}", e.now, e.ready.Len()+len(e.events))
}
