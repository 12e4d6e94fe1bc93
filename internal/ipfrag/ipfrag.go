// Package ipfrag implements IP-style datagram fragmentation and reassembly.
//
// NFS-over-UDP sends each 8 KB read or write RPC as a single UDP datagram,
// which IP must fragment to the interconnect's MTU (6 fragments on an
// Ethernet). Loss of any single fragment loses the whole datagram — the
// paper's central argument (after [Kent87b]) for why fixed-RTO UDP transport
// collapses on anything but a clean LAN. This package provides the
// fragment-range arithmetic and a reassembly tracker with timeout; the
// network simulator supplies actual delivery and loss.
package ipfrag

import (
	"slices"

	"renonfs/internal/sim"
)

// Frag describes one fragment of a datagram: payload bytes [Off, Off+Len).
type Frag struct {
	Off  int
	Len  int
	More bool // more fragments follow
}

// perFrag returns the payload bytes each fragment carries for an mtu. IP
// requires fragment offsets in 8-byte units; round the per-fragment payload
// down accordingly, as real stacks do.
func perFrag(mtu int) int {
	if mtu <= 0 {
		panic("ipfrag: non-positive MTU")
	}
	per := mtu &^ 7
	if per == 0 {
		per = mtu
	}
	return per
}

// ForEach calls fn for each fragment of a payload of total bytes over a link
// accepting at most mtu payload bytes per fragment, without allocating a
// slice — the form the per-packet transmit path uses. A total of zero yields
// a single empty fragment (a datagram with no payload still needs a packet).
func ForEach(total, mtu int, fn func(f Frag)) {
	for f := First(total, mtu); ; f = Next(f, total, mtu) {
		fn(f)
		if !f.More {
			return
		}
	}
}

// First returns the first fragment ForEach yields, and Next the one after f,
// which must have More set: ForEach for a sender that stops between
// fragments.
func First(total, mtu int) Frag { return fragAt(0, total, perFrag(mtu)) }

// Next returns the fragment after f (see First).
func Next(f Frag, total, mtu int) Frag { return fragAt(f.Off+f.Len, total, perFrag(mtu)) }

// fragAt returns the fragment starting at payload offset off.
func fragAt(off, total, per int) Frag {
	n := min(total-off, per)
	return Frag{Off: off, Len: n, More: off+n < total}
}

// Split returns the fragment ranges for a payload of total bytes over a
// link accepting at most mtu payload bytes per fragment.
func Split(total, mtu int) []Frag {
	out := make([]Frag, 0, NumFrags(total, mtu))
	ForEach(total, mtu, func(f Frag) { out = append(out, f) })
	return out
}

// NumFrags returns how many fragments Split would produce, by arithmetic
// rather than by materializing them.
func NumFrags(total, mtu int) int {
	per := perFrag(mtu)
	if total == 0 {
		return 1
	}
	return (total + per - 1) / per
}

// Key identifies a datagram under reassembly: (source, datagram id).
type Key struct {
	Src int
	ID  uint32
}

// span is a half-open covered byte range [off, end).
type span struct {
	off, end int
}

// state tracks one datagram's received coverage. Coverage is kept as a
// sorted list of merged ranges rather than a byte count so that duplicated
// or overlapping fragments (links can replay frames) never make a datagram
// look complete before every byte has actually arrived.
type state struct {
	total    int // known total length, -1 until the last fragment arrives
	spans    []span
	deadline sim.Time
}

// add merges [off, end) into the coverage set.
func (st *state) add(off, end int) {
	if end <= off {
		return
	}
	// Fast path: fragments normally arrive in order, so the new range
	// extends (or repeats) the last span — no rebuild needed.
	if len(st.spans) == 0 {
		st.spans = append(st.spans, span{off, end})
		return
	}
	if n := len(st.spans); n > 0 {
		last := &st.spans[n-1]
		if off >= last.off && off <= last.end {
			if end > last.end {
				last.end = end
			}
			return
		}
		if off > last.end {
			st.spans = append(st.spans, span{off, end})
			return
		}
	}
	i := 0
	for i < len(st.spans) && st.spans[i].off <= off {
		i++
	}
	merged := slices.Insert(st.spans, i, span{off, end})
	// Coalesce overlapping/adjacent neighbours (in place: the write index
	// never passes the read index).
	out := merged[:1]
	for _, s := range merged[1:] {
		last := &out[len(out)-1]
		if s.off <= last.end {
			if s.end > last.end {
				last.end = s.end
			}
		} else {
			out = append(out, s)
		}
	}
	st.spans = out
}

// complete reports whether [0, total) is fully covered.
func (st *state) complete() bool {
	if st.total < 0 {
		return false
	}
	if st.total == 0 {
		return true
	}
	return len(st.spans) == 1 && st.spans[0].off == 0 && st.spans[0].end >= st.total
}

// Reassembler tracks in-progress datagrams and decides when one completes.
// It is purely logical: callers feed it fragment arrivals and the current
// virtual time; expiry of stale state happens lazily. A datagram that
// arrives whole needs no state; the state of a fragmented one is recycled
// once it completes or expires.
type Reassembler struct {
	Timeout sim.Time
	pending map[Key]*state
	free    []*state // released states, coverage emptied, for reuse
	// Expired counts datagrams abandoned by timeout (IP "reassembly
	// timeouts" — each one is a silently lost RPC for fixed-RTO UDP).
	Expired int
}

// NewReassembler returns a tracker with the given fragment timeout.
func NewReassembler(timeout sim.Time) *Reassembler {
	return &Reassembler{Timeout: timeout, pending: make(map[Key]*state)}
}

// Pending returns the number of datagrams under reassembly.
func (r *Reassembler) Pending() int { return len(r.pending) }

// Add records arrival of fragment f for datagram k at time now and reports
// whether the datagram is now complete. On completion the state is dropped.
func (r *Reassembler) Add(k Key, f Frag, now sim.Time) bool {
	st := r.pending[k]
	if st == nil {
		if f.Off == 0 && !f.More {
			return true // unfragmented: whole on arrival
		}
		st = r.alloc()
		r.pending[k] = st
		st.deadline = now + r.Timeout
	} else if now > st.deadline {
		// Stale state: the old datagram is abandoned and this fragment
		// starts a fresh attempt (e.g. a retransmitted UDP RPC reusing
		// nothing — IDs are unique, so in practice this is rare).
		r.Expired++
		st.reset()
		st.deadline = now + r.Timeout
	}
	st.add(f.Off, f.Off+f.Len)
	if !f.More {
		st.total = f.Off + f.Len
	}
	if st.complete() {
		delete(r.pending, k)
		r.release(st)
		return true
	}
	return false
}

// alloc returns an empty state, recycled if one is free.
func (r *Reassembler) alloc() *state {
	n := len(r.free)
	if n == 0 {
		return &state{total: -1}
	}
	st := r.free[n-1]
	r.free = r.free[:n-1]
	return st
}

// release empties st and frees it for the next fragmented datagram.
func (r *Reassembler) release(st *state) {
	st.reset()
	r.free = append(r.free, st)
}

// reset empties the coverage, keeping the spans' array.
func (st *state) reset() {
	st.total = -1
	st.spans = st.spans[:0]
}

// Expire drops all reassembly state whose deadline has passed, returning
// the number expired. Call it periodically (the simulator uses the slow
// timeout granularity of the era's IP stacks).
func (r *Reassembler) Expire(now sim.Time) int {
	n := 0
	for k, st := range r.pending {
		if now > st.deadline {
			delete(r.pending, k)
			r.release(st)
			n++
		}
	}
	r.Expired += n
	return n
}
