package sim

// Resource is a FIFO-served resource with a fixed number of slots, used to
// model CPUs, disks and other serially shared hardware. It accounts busy
// time so experiments can report utilization the way the paper's patched
// idle-loop counter did.
type Resource struct {
	env     *Env
	name    string
	slots   int
	inUse   int
	waiters FIFO[slotWaiter]

	busy       Time // cumulative slot-busy time
	resetAt    Time // start of the current accounting window
	lastUpdate Time
}

// slotWaiter waits for a slot: a process's wait, or, with fn set, the
// callback of event-driven code (AcquireFunc).
type slotWaiter struct {
	waiter
	fn func()
}

// wake schedules w at the current instant and reports true, or reports
// false if w is a process wait that has closed.
func (w slotWaiter) wake(e *Env) bool {
	if w.fn != nil {
		e.At(e.now, w.fn)
		return true
	}
	return w.fire(e)
}

// NewResource returns a resource with the given number of slots (>=1).
func NewResource(e *Env, name string, slots int) *Resource {
	if slots < 1 {
		slots = 1
	}
	return &Resource{env: e, name: name, slots: slots}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

func (r *Resource) account() {
	now := r.env.now
	busy := Time(r.inUse) * (now - r.lastUpdate)
	if r.slots > 1 {
		busy /= Time(r.slots)
	}
	r.busy += busy
	r.lastUpdate = now
}

// Acquire blocks until a slot is free and claims it.
func (r *Resource) Acquire(p *Proc) {
	for r.inUse >= r.slots {
		r.waiters.Push(slotWaiter{waiter: p.await()})
		p.park()
	}
	r.account()
	r.inUse++
}

// TryAcquire claims a slot without blocking; it reports success.
func (r *Resource) TryAcquire() bool {
	if r.inUse >= r.slots {
		return false
	}
	r.account()
	r.inUse++
	return true
}

// AcquireFunc is Acquire for code that runs as event callbacks. It claims a
// slot and reports true, or, with every slot taken, lists fn in the FIFO of
// waiters and reports false. A release that reaches fn schedules it at that
// instant, where it would resume a waiting process, and fn must then call
// AcquireFunc again: like a process woken in Acquire, it may find the slot
// already retaken.
func (r *Resource) AcquireFunc(fn func()) bool {
	if r.TryAcquire() {
		return true
	}
	r.waiters.Push(slotWaiter{fn: fn})
	return false
}

// Release frees a slot claimed by Acquire, TryAcquire or AcquireFunc.
func (r *Resource) Release() {
	if r.inUse == 0 {
		panic("sim: Release of idle resource " + r.name)
	}
	r.account()
	r.inUse--
	for r.waiters.Len() > 0 {
		if r.waiters.Pop().wake(r.env) {
			break
		}
	}
}

// Use acquires a slot, holds it for d of virtual time, then releases it.
// This is the workhorse for charging CPU and disk costs.
func (r *Resource) Use(p *Proc, d Time) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release()
}

// QueueLen returns the number of waiters for a slot, processes and
// callbacks.
func (r *Resource) QueueLen() int { return r.waiters.Len() }

// ResetStats starts a new utilization accounting window at the current time.
func (r *Resource) ResetStats() {
	r.account()
	r.busy = 0
	r.resetAt = r.env.now
}

// BusyTime returns cumulative slot-busy time since the last ResetStats,
// normalized so that all slots busy for t accumulates t.
func (r *Resource) BusyTime() Time {
	r.account()
	return r.busy
}

// Utilization returns the fraction of the accounting window the resource was
// busy, in [0,1].
func (r *Resource) Utilization() float64 {
	r.account()
	window := r.env.now - r.resetAt
	if window <= 0 {
		return 0
	}
	return float64(r.busy) / float64(window)
}
