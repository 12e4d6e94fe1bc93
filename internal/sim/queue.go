package sim

import "slices"

// FIFO is a first-in first-out buffer that reuses its array: Pop advances a
// head index, which resets to the front when a pop drains the buffer, and a
// Push that finds the array full slides the live entries down instead of
// growing it once at least half of it is popped space. The zero value is an
// empty FIFO. Unlike a Queue it never blocks: it is for the event-driven
// models' own buffers as much as the kernel's.
type FIFO[T any] struct {
	buf  []T
	head int
}

// Len returns the number of entries queued.
func (f *FIFO[T]) Len() int { return len(f.buf) - f.head }

// live returns the queued entries, oldest first. It aliases the buffer.
func (f *FIFO[T]) live() []T { return f.buf[f.head:] }

// Push appends v.
func (f *FIFO[T]) Push(v T) {
	if len(f.buf) == cap(f.buf) && f.head > 0 && 2*f.head >= len(f.buf) {
		n := copy(f.buf, f.live())
		clear(f.buf[n:])
		f.buf, f.head = f.buf[:n], 0
	}
	f.buf = append(f.buf, v)
}

// Pop removes and returns the oldest entry; the FIFO must not be empty.
func (f *FIFO[T]) Pop() (v T) {
	v, f.buf[f.head] = f.buf[f.head], v // the zero v clears the slot
	if f.head++; f.head == len(f.buf) {
		f.buf, f.head = f.buf[:0], 0
	}
	return v
}

// waiter is one listed wait: process p's wait number gen. A wait is open
// while it is p's current one; the wake-up or the timeout that comes first
// closes it, so exactly one of them resumes p and an entry left behind in a
// list, or a timeout event left in the heap, is stale and does nothing.
type waiter struct {
	p   *Proc
	gen uint64
}

// await opens a new wait on p and returns the entry to list.
func (p *Proc) await() waiter {
	p.env.waits++
	p.wait = p.env.waits
	return waiter{p, p.wait}
}

// fire resumes the waiter if its wait is still open and closes it. It
// reports whether this call won the race.
func (w waiter) fire(e *Env) bool {
	if w.p.wait != w.gen {
		return false
	}
	w.p.wait = 0
	e.resumeAt(e.now, w.p)
	return true
}

// expireAt schedules w's timeout: at when it fires w if nothing has yet.
func (e *Env) expireAt(when Time, w waiter) { e.push(event{when: when, p: w.p, gen: w.gen}) }

// Queue is an unbounded FIFO of items passed between processes. Send never
// blocks. A Queue may also be closed, after which Send refuses items. It
// has one of two kinds of consumer: processes that block in Recv, which
// returns ok=false once the closed queue is drained, or one callback,
// Notify's (Serve is the Notify consumer that takes every item as it comes).
type Queue[T any] struct {
	env     *Env
	name    string
	items   FIFO[T]
	waiters FIFO[waiter]
	drain   func() // the Notify consumer, bound once so scheduling it allocates nothing
	busy    bool   // drain is scheduled or running: it has not called Idle
	closed  bool
}

// NewQueue returns an empty unbounded queue.
func NewQueue[T any](e *Env, name string) *Queue[T] {
	return &Queue[T]{env: e, name: name}
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.items.Len() }

// Send enqueues v, waking one waiter if any. It reports false if the queue
// is closed.
func (q *Queue[T]) Send(v T) bool {
	if q.closed {
		return false
	}
	q.items.Push(v)
	if q.drain == nil {
		q.wakeOne()
	} else {
		q.Wake()
	}
	return true
}

// Serve makes fn the queue's Notify consumer for a process that loops on
// Recv and handles each item without blocking: each drain hands fn every
// item queued until none is left, those fn itself sends included, and then
// parks. fn runs as a callback and must not block.
func (q *Queue[T]) Serve(fn func(v T)) {
	q.Notify(func() {
		for v, ok := q.TryRecv(); ok; v, ok = q.TryRecv() {
			fn(v)
		}
		q.Idle()
	})
}

// Notify makes fn the queue's only consumer in place of a process that may
// stop between two items to wait for something else — a CPU charge, a
// timer — and go on where it stopped. It is that process in all but name. A
// Send, a Close or a Wake that finds it idle marks it busy and schedules fn
// at that instant, where the process's resume would go; from then until fn
// calls Idle, which is the process parking in Recv, a Send only queues its
// item. fn takes items with TryRecv, must not block, and schedules its own
// continuation when it stops busy. Call Notify before the first Send;
// nothing may Recv from the queue.
func (q *Queue[T]) Notify(fn func()) { q.drain = fn }

// Wake schedules the idle Notify consumer at the current instant, as a Send
// does without an item, and reports whether it was idle. It is the wake-up
// that is not an item: the consumer's start, or its timeout.
func (q *Queue[T]) Wake() bool {
	if q.busy {
		return false
	}
	q.busy = true
	q.env.At(q.env.now, q.drain)
	return true
}

// Idle parks the Notify consumer: the next Send, Close or Wake schedules it.
func (q *Queue[T]) Idle() { q.busy = false }

// TryRecv dequeues the next item without blocking; ok is false if none is
// queued.
func (q *Queue[T]) TryRecv() (v T, ok bool) {
	if q.items.Len() == 0 {
		return v, false
	}
	return q.items.Pop(), true
}

// Closed reports whether the queue was closed.
func (q *Queue[T]) Closed() bool { return q.closed }

// Close marks the queue closed and wakes its consumer: every parked Recv,
// or the idle Notify consumer. Items already queued may still be drained by
// Recv or TryRecv.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	q.closed = true
	for _, w := range q.waiters.live() {
		w.fire(q.env)
	}
	q.waiters = FIFO[waiter]{}
	if q.drain != nil {
		q.Wake()
	}
}

func (q *Queue[T]) wakeOne() {
	for q.waiters.Len() > 0 {
		if q.waiters.Pop().fire(q.env) {
			return
		}
	}
}

// Recv dequeues the next item, blocking until one is available. ok is false
// if the queue was closed and drained.
func (q *Queue[T]) Recv(p *Proc) (v T, ok bool) {
	for {
		if q.items.Len() > 0 {
			return q.items.Pop(), true
		}
		if q.closed {
			return v, false
		}
		q.waiters.Push(p.await())
		p.park()
	}
}

// Event is a one-shot level-triggered signal: processes Wait until Set is
// called; Waits after Set return immediately.
type Event struct {
	env     *Env
	set     bool
	waiters []waiter
}

// NewEvent returns an unset event.
func NewEvent(e *Env) *Event { return &Event{env: e} }

// IsSet reports whether Set has been called.
func (ev *Event) IsSet() bool { return ev.set }

// Set marks the event and wakes all waiters. Setting twice is a no-op.
func (ev *Event) Set() {
	if ev.set {
		return
	}
	ev.set = true
	ev.waiters = fireAll(ev.env, ev.waiters)
}

// Reset makes ev an unset event bound to e, keeping its waiter array, so
// an Event held by value in a recycled record allocates nothing per use.
func (ev *Event) Reset(e *Env) {
	ev.env, ev.set, ev.waiters = e, false, ev.waiters[:0]
}

// Wait blocks until the event is set.
func (ev *Event) Wait(p *Proc) {
	if ev.set {
		return
	}
	ev.waiters = append(ev.waiters, p.await())
	p.park()
}

// WaitTimeout blocks until the event is set or d elapses; it reports whether
// the event was set.
func (ev *Event) WaitTimeout(p *Proc, d Time) bool {
	if ev.set {
		return true
	}
	deadline := ev.env.now + d
	for !ev.set && ev.env.now < deadline {
		w := p.await()
		ev.env.expireAt(deadline, w)
		ev.waiters = append(ev.waiters, w)
		p.park()
		if !ev.set { // the timeout won: w is still listed
			i := slices.Index(ev.waiters, w)
			ev.waiters = slices.Delete(ev.waiters, i, i+1)
		}
	}
	return ev.set
}

// Cond is a broadcast-only condition variable for simulated processes.
type Cond struct {
	env     *Env
	waiters []waiter
}

// NewCond returns a condition variable bound to e.
func NewCond(e *Env) *Cond { return &Cond{env: e} }

// Wait parks the process until the next Broadcast. As with sync.Cond the
// caller must re-check its predicate in a loop.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p.await())
	p.park()
}

// Broadcast wakes every waiting process.
func (c *Cond) Broadcast() { c.waiters = fireAll(c.env, c.waiters) }

// fireAll fires every waiter in ws and returns ws emptied, its array kept
// for the next waits. fire runs no process code, so nothing appends to ws
// while it is walked.
func fireAll(e *Env, ws []waiter) []waiter {
	for _, w := range ws {
		w.fire(e)
	}
	clear(ws)
	return ws[:0]
}
