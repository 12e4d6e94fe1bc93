package sim

import "slices"

// fifo is a first-in first-out buffer that reuses its array: pop advances a
// head index, which resets to the front when a pop drains the buffer, and a
// push that finds the array full slides the live entries down instead of
// growing it once at least half of it is popped space.
type fifo[T any] struct {
	buf  []T
	head int
}

func (f *fifo[T]) len() int { return len(f.buf) - f.head }

// live returns the queued entries, oldest first. It aliases the buffer.
func (f *fifo[T]) live() []T { return f.buf[f.head:] }

func (f *fifo[T]) push(v T) {
	if len(f.buf) == cap(f.buf) && f.head > 0 && 2*f.head >= len(f.buf) {
		n := copy(f.buf, f.live())
		clear(f.buf[n:])
		f.buf, f.head = f.buf[:n], 0
	}
	f.buf = append(f.buf, v)
}

func (f *fifo[T]) pop() (v T) {
	v, f.buf[f.head] = f.buf[f.head], v // the zero v clears the slot
	if f.head++; f.head == len(f.buf) {
		f.buf, f.head = f.buf[:0], 0
	}
	return v
}

// remove deletes the i-th live entry, keeping the others in order.
func (f *fifo[T]) remove(i int) { f.buf = slices.Delete(f.buf, f.head+i, f.head+i+1) }

// waiter represents one parked process waiting for a wakeup that may race
// with a timeout. Exactly one of fire/expire wins.
type waiter struct {
	p     *Proc
	fired bool
	timer *Timer // timeout resume, nil if none
}

// fire resumes the waiter if it has not already been resumed. It reports
// whether this call won the race.
func (w *waiter) fire(e *Env) bool {
	if w.fired {
		return false
	}
	w.fired = true
	if w.timer != nil {
		w.timer.Stop()
	}
	e.resumeAt(e.now, w.p)
	return true
}

// Queue is an unbounded FIFO of items passed between processes. Send never
// blocks; Recv blocks until an item is available. A Queue may also be
// closed, after which Recv returns immediately with ok=false once drained.
type Queue[T any] struct {
	env     *Env
	name    string
	items   fifo[T]
	waiters fifo[*waiter]
	closed  bool
	// MaxLen, when > 0, bounds the queue; Send drops the item and returns
	// false when the bound is reached (drop-tail, used for router queues).
	MaxLen int
	// Dropped counts items discarded by the MaxLen bound.
	Dropped int
}

// NewQueue returns an empty unbounded queue.
func NewQueue[T any](e *Env, name string) *Queue[T] {
	return &Queue[T]{env: e, name: name}
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.items.len() }

// Send enqueues v, waking one waiter if any. It reports false if the item
// was dropped by the MaxLen bound or the queue is closed.
func (q *Queue[T]) Send(v T) bool {
	if q.closed {
		return false
	}
	if q.MaxLen > 0 && q.items.len() >= q.MaxLen {
		q.Dropped++
		return false
	}
	q.items.push(v)
	q.wakeOne()
	return true
}

// Close marks the queue closed and wakes all waiters. Items already queued
// may still be drained by Recv.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	q.closed = true
	for _, w := range q.waiters.live() {
		w.fire(q.env)
	}
	q.waiters = fifo[*waiter]{}
}

func (q *Queue[T]) wakeOne() {
	for q.waiters.len() > 0 {
		if q.waiters.pop().fire(q.env) {
			return
		}
	}
}

// Recv dequeues the next item, blocking until one is available. ok is false
// if the queue was closed and drained.
func (q *Queue[T]) Recv(p *Proc) (v T, ok bool) {
	for {
		if q.items.len() > 0 {
			return q.items.pop(), true
		}
		if q.closed {
			return v, false
		}
		q.waiters.push(&waiter{p: p})
		p.park()
	}
}

// RecvTimeout is Recv with a deadline d from now. ok is false on timeout or
// close with no item.
func (q *Queue[T]) RecvTimeout(p *Proc, d Time) (v T, ok bool) {
	deadline := q.env.now + d
	for {
		if q.items.len() > 0 {
			return q.items.pop(), true
		}
		if q.closed || q.env.now >= deadline {
			return v, false
		}
		w := &waiter{p: p}
		w.timer = q.env.At(deadline, func() {
			if w.fire(q.env) { // the timeout won: w is still listed
				q.waiters.remove(slices.Index(q.waiters.live(), w))
			}
		})
		q.waiters.push(w)
		p.park()
		w.fired = true // consume whichever wakeup parked us
	}
}

// Event is a one-shot level-triggered signal: processes Wait until Set is
// called; Waits after Set return immediately.
type Event struct {
	env     *Env
	set     bool
	waiters []*waiter
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
	for _, w := range ev.waiters {
		w.fire(ev.env)
	}
	ev.waiters = nil
}

// Wait blocks until the event is set.
func (ev *Event) Wait(p *Proc) {
	if ev.set {
		return
	}
	w := &waiter{p: p}
	ev.waiters = append(ev.waiters, w)
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
		w := &waiter{p: p}
		w.timer = ev.env.At(deadline, func() {
			if w.fire(ev.env) { // the timeout won: w is still listed
				i := slices.Index(ev.waiters, w)
				ev.waiters = slices.Delete(ev.waiters, i, i+1)
			}
		})
		ev.waiters = append(ev.waiters, w)
		p.park()
		w.fired = true
	}
	return ev.set
}

// Cond is a broadcast-only condition variable for simulated processes.
type Cond struct {
	env     *Env
	waiters []*waiter
}

// NewCond returns a condition variable bound to e.
func NewCond(e *Env) *Cond { return &Cond{env: e} }

// Wait parks the process until the next Broadcast. As with sync.Cond the
// caller must re-check its predicate in a loop.
func (c *Cond) Wait(p *Proc) {
	w := &waiter{p: p}
	c.waiters = append(c.waiters, w)
	p.park()
}

// Broadcast wakes every waiting process.
func (c *Cond) Broadcast() {
	ws := c.waiters
	c.waiters = nil
	for _, w := range ws {
		w.fire(c.env)
	}
}
