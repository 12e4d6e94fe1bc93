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
	waiters fifo[*waiter]

	busy       Time // cumulative slot-busy time
	busySince  Time // when inUse last went 0 -> >0 (single-slot fast path)
	resetAt    Time // start of the current accounting window
	lastUpdate Time
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
	r.busy += Time(r.inUse) * (now - r.lastUpdate) / Time(r.slots)
	r.lastUpdate = now
}

// Acquire blocks until a slot is free and claims it.
func (r *Resource) Acquire(p *Proc) {
	for r.inUse >= r.slots {
		r.waiters.push(&waiter{p: p})
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

// Release frees a slot claimed by Acquire.
func (r *Resource) Release() {
	if r.inUse == 0 {
		panic("sim: Release of idle resource " + r.name)
	}
	r.account()
	r.inUse--
	for r.waiters.len() > 0 {
		if r.waiters.pop().fire(r.env) {
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

// QueueLen returns the number of processes waiting for a slot.
func (r *Resource) QueueLen() int { return r.waiters.len() }

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
