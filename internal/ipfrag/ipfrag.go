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

import "renonfs/internal/sim"

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
	if total == 0 {
		fn(Frag{Off: 0, Len: 0, More: false})
		return
	}
	per := perFrag(mtu)
	for off := 0; off < total; off += per {
		n := total - off
		if n > per {
			n = per
		}
		fn(Frag{Off: off, Len: n, More: off+n < total})
	}
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
	merged := make([]span, 0, len(st.spans)+1)
	placed := false
	for _, s := range st.spans {
		if !placed && s.off > off {
			merged = append(merged, span{off, end})
			placed = true
		}
		merged = append(merged, s)
	}
	if !placed {
		merged = append(merged, span{off, end})
	}
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
// virtual time; expiry of stale state happens lazily.
type Reassembler struct {
	Timeout sim.Time
	pending map[Key]*state
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
		st = &state{total: -1, deadline: now + r.Timeout}
		r.pending[k] = st
	} else if now > st.deadline {
		// Stale state: the old datagram is abandoned and this fragment
		// starts a fresh attempt (e.g. a retransmitted UDP RPC reusing
		// nothing — IDs are unique, so in practice this is rare).
		r.Expired++
		st = &state{total: -1, deadline: now + r.Timeout}
		r.pending[k] = st
	}
	st.add(f.Off, f.Off+f.Len)
	if !f.More {
		st.total = f.Off + f.Len
	}
	if st.complete() {
		delete(r.pending, k)
		return true
	}
	return false
}

// Expire drops all reassembly state whose deadline has passed, returning
// the number expired. Call it periodically (the simulator uses the slow
// timeout granularity of the era's IP stacks).
func (r *Reassembler) Expire(now sim.Time) int {
	n := 0
	for k, st := range r.pending {
		if now > st.deadline {
			delete(r.pending, k)
			n++
		}
	}
	r.Expired += n
	return n
}
