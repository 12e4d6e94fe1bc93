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
	// Stats exposes counters; the pointer stays valid for the transport's
	// lifetime.
	Stats() *Stats
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

// ProgramCaller is implemented by transports that can call RPC programs
// other than NFS — the MOUNT protocol in particular.
type ProgramCaller interface {
	CallProgram(p *sim.Proc, prog, vers, proc uint32, args func(e *xdr.Encoder)) (*xdr.Decoder, error)
}

// buildCall encodes a full RPC CALL message, appending the arguments
// through the transport's own encoder enc.
func buildCall(enc *xdr.Encoder, xid, prog, vers, proc uint32, args func(e *xdr.Encoder)) *mbuf.Chain {
	c := &mbuf.Chain{}
	rpc.EncodeCall(c, &rpc.Call{XID: xid, Prog: prog, Vers: vers, Proc: proc})
	if args != nil {
		enc.Reset(c)
		args(enc)
	}
	return c
}

// byXID returns the calls of a pending table in XID order. Map order is
// random, and wherever walking the table has side effects — retransmissions,
// window halvings, wake-ups — their order decides what the simulation does
// next, so a run would not repeat.
func byXID[T any](pending map[uint32]T) []T {
	xids := make([]uint32, 0, len(pending))
	for xid := range pending {
		xids = append(xids, xid)
	}
	slices.Sort(xids)
	calls := make([]T, len(xids))
	for i, xid := range xids {
		calls[i] = pending[xid]
	}
	return calls
}

// decodeReply validates the RPC reply header and returns a decoder at the
// results.
func decodeReply(msg *mbuf.Chain) (*xdr.Decoder, error) {
	d := xdr.NewDecoder(msg)
	var r rpc.Reply
	if err := rpc.DecodeReplyInto(d, &r); err != nil {
		return nil, err
	}
	if r.Denied {
		return nil, errors.New("transport: rpc denied")
	}
	if r.AcceptStat != rpc.Success {
		return nil, errors.New("transport: rpc error status")
	}
	return d, nil
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
