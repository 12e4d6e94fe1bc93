// Package transport implements the client-side RPC transports §4 compares:
//
//   - UDP with a fixed retransmit timeout from the mount, backed off
//     exponentially (the classic Sun NFS scheme);
//   - UDP with dynamic per-class RTO estimation (A+4D for the big RPCs,
//     A+2D for the small ones), RTO recalculated on every NFS clock tick,
//     and a TCP-style congestion window on outstanding requests with slow
//     start deliberately removed — the paper's tuned transport;
//   - TCP with record marking, one connection per mount, and replay of
//     pending requests after a reconnect.
//
// A Transport owns XIDs, matching, retransmission and tracing; callers
// supply encoded procedure arguments and decode results.
package transport

import (
	"cmp"
	"errors"
	"slices"
	"time"

	"renonfs/internal/mbuf"
	"renonfs/internal/nfsproto"
	"renonfs/internal/rpc"
	"renonfs/internal/sim"
	"renonfs/internal/xdr"
)

// ErrCallTimeout is returned when a call exhausts its retransmit budget
// (the soft-mount failure mode).
var ErrCallTimeout = errors.New("transport: call timed out")

// ErrClosed is returned for calls on a closed transport.
var ErrClosed = errors.New("transport: closed")

// Class is an RTO timer class. The paper keeps separate estimators for the
// four most frequent RPCs and a conservative fixed timeout for the rest
// (most of which are non-idempotent).
type Class int

const (
	ClassOther Class = iota
	ClassGetattr
	ClassLookup
	ClassRead
	ClassWrite
	NumClasses
)

// ClassOf maps an NFS procedure to its timer class.
func ClassOf(proc uint32) Class {
	switch proc {
	case nfsproto.ProcGetattr:
		return ClassGetattr
	case nfsproto.ProcLookup:
		return ClassLookup
	case nfsproto.ProcRead:
		return ClassRead
	case nfsproto.ProcWrite:
		return ClassWrite
	default:
		return ClassOther
	}
}

// Big reports whether the class is one of the large-transfer RPCs whose
// RTT variance demanded A+4D instead of A+2D.
func (c Class) Big() bool { return c == ClassRead || c == ClassWrite }

// Stats counts transport behaviour.
type Stats struct {
	Calls      int
	Replies    int
	Retries    int
	Failures   int
	RetryClass [NumClasses]int
}

// Transport issues NFS RPCs. Call blocks the calling process until the
// reply arrives (retransmitting under the hood) and returns a decoder
// positioned at the procedure results.
type Transport interface {
	// Call issues procedure proc with arguments encoded by args (which may
	// be nil for void arguments). The closure may be invoked several times
	// — once per (re)transmission — so it must be repeatable: bulk data
	// must be encoded from stable storage, not from a consumable chain.
	Call(p *sim.Proc, proc uint32, args func(e *xdr.Encoder)) (*xdr.Decoder, error)
	// CallProgram is Call for any RPC program: the MOUNT protocol's, say.
	CallProgram(p *sim.Proc, prog, vers, proc uint32, args func(e *xdr.Encoder)) (*xdr.Decoder, error)
	// Release hands back a reply Call returned once the caller has decoded
	// it: the transport frees the reply message and reuses the decoder.
	// Nothing decoded from it by view may be used afterwards. A reply never
	// handed back is left to the collector.
	Release(reply *xdr.Decoder)
	// Stats exposes counters; the pointer stays valid for the transport's
	// lifetime.
	Stats() *Stats
	// Env returns the environment the transport's processes run in.
	Env() *sim.Env
	// Close shuts the transport down.
	Close()
}

// estimator is the Jacobson mean/deviation pair (A and D in the paper)
// for one RPC class.
type estimator struct {
	srtt   sim.Time
	rttvar sim.Time
	valid  bool
	factor sim.Time // RTO = A + factor*D
}

// sample folds in one round-trip measurement.
func (e *estimator) sample(rtt sim.Time) {
	if !e.valid {
		e.srtt = rtt
		e.rttvar = rtt / 2
		e.valid = true
		return
	}
	delta := rtt - e.srtt
	e.srtt += delta / 8
	if delta < 0 {
		delta = -delta
	}
	e.rttvar += (delta - e.rttvar) / 4
}

// rto returns A + factor*D, or def before any sample, clamped.
func (e *estimator) rto(def, min, max sim.Time) sim.Time {
	r := def
	if e.valid {
		r = e.srtt + e.factor*e.rttvar
	}
	if r < min {
		r = min
	}
	if r > max {
		r = max
	}
	return r
}

// buildCall encodes a full RPC CALL message onto c, appending the arguments
// through the transport's own encoder enc.
func buildCall(enc *xdr.Encoder, c *mbuf.Chain, xid, prog, vers, proc uint32, args func(e *xdr.Encoder)) *mbuf.Chain {
	rpc.EncodeCall(c, &rpc.Call{XID: xid, Prog: prog, Vers: vers, Proc: proc})
	if args != nil {
		enc.Reset(c)
		args(enc)
	}
	return c
}

// pendingTable holds a transport's calls in flight in XID order. A call goes
// in where its XID sorts (at the end, unless the XIDs wrapped), a reply
// finds its call by binary search, and a walk meets the calls in XID order:
// wherever walking the table has side effects — retransmissions, window
// halvings, wake-ups — their order decides what the simulation does next,
// so a run repeats.
type pendingTable[T interface{ xidOf() uint32 }] []T

func (pt pendingTable[T]) search(xid uint32) (int, bool) {
	return slices.BinarySearchFunc(pt, xid, func(c T, x uint32) int { return cmp.Compare(c.xidOf(), x) })
}

// find returns the call with the XID, or the zero T.
func (pt pendingTable[T]) find(xid uint32) (c T) {
	if i, ok := pt.search(xid); ok {
		c = pt[i]
	}
	return c
}

func (pt *pendingTable[T]) add(c T) {
	i, _ := pt.search(c.xidOf())
	*pt = slices.Insert(*pt, i, c)
}

func (pt *pendingTable[T]) remove(xid uint32) {
	if i, ok := pt.search(xid); ok {
		*pt = slices.Delete(*pt, i, i+1)
	}
}

// xids returns the table's XIDs, for a walk that parks between calls: it
// finds each call again afterwards, since one answered meanwhile has left
// the table and its record may serve another call.
func (pt pendingTable[T]) xids() []uint32 {
	xids := make([]uint32, len(pt))
	for i, c := range pt {
		xids[i] = c.xidOf()
	}
	return xids
}

// replies recycles a transport's reply decoders and message chains:
// Release frees the message a decoder read and keeps both for the next
// reply.
type replies struct {
	free []*xdr.Decoder
	msgs []*mbuf.Chain
}

// chain returns an empty chain for a reply message.
func (r *replies) chain() *mbuf.Chain {
	if n := len(r.msgs); n > 0 {
		c := r.msgs[n-1]
		r.msgs = r.msgs[:n-1]
		return c
	}
	return &mbuf.Chain{}
}

// decode validates msg's RPC reply header and returns a decoder at the
// results.
func (r *replies) decode(msg *mbuf.Chain) (*xdr.Decoder, error) {
	var d *xdr.Decoder
	if n := len(r.free); n > 0 {
		d, r.free = r.free[n-1], r.free[:n-1]
		d.Reset(msg)
	} else {
		d = xdr.NewDecoder(msg)
	}
	var rep rpc.Reply
	err := rpc.DecodeReplyInto(d, &rep)
	switch {
	case err != nil:
	case rep.Denied:
		err = errors.New("transport: rpc denied")
	case rep.AcceptStat != rpc.Success:
		err = errors.New("transport: rpc error status")
	default:
		return d, nil
	}
	*d = xdr.Decoder{}
	r.free = append(r.free, d)
	return nil, err
}

// release frees reply's message and keeps it and the decoder. A decoder
// already handed back (its source is gone) is ignored.
func (r *replies) release(reply *xdr.Decoder) {
	msg := reply.Source()
	if msg == nil {
		return
	}
	msg.Free()
	r.msgs = append(r.msgs, msg)
	*reply = xdr.Decoder{}
	r.free = append(r.free, reply)
}

// Timing constants.
const (
	// NFSTick is the client NFS timer granularity (NFS_HZ = 10 in the
	// BSD code); the tuned code recomputes RTOs on every tick rather than
	// at send time.
	NFSTick = 100 * time.Millisecond
	// MinRTO/MaxRTO clamp dynamic timeouts (2 ticks .. 30 s).
	MinRTO = 200 * time.Millisecond
	MaxRTO = 30 * time.Second
	// SmallFactor is the deviation multiplier for getattr/lookup: their
	// RTO is A+2D (the UDPConfig's BigFactor covers read/write).
	SmallFactor = 2
	// CwndInit and CwndMax bound the dynamic UDP congestion window
	// (outstanding requests).
	CwndInit = 4
	CwndMax  = 32
)

// parkWhileIdle lets a periodic transport timer sleep through stretches with
// no call pending without losing its phase. While idle holds it waits on wake,
// which callers broadcast on inserting a pending call and on Close; then it
// sleeps on to the next tick of the period-spaced grid through the tick it was
// called on, so later ticks fall where they would have had it never stopped.
func parkWhileIdle(p *sim.Proc, wake *sim.Cond, period sim.Time, idle func() bool) {
	for idle() {
		anchor := p.Now()
		for idle() {
			wake.Wait(p)
		}
		p.Sleep(period - (p.Now()-anchor)%period)
	}
}
