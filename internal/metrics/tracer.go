package metrics

import "time"

// Tracer receives typed RPC lifecycle events — the one event stream. The
// transports, the server and the simulated network emit through one of
// these when configured; the invariant auditor in internal/check and the
// tests read it. Counting is the Registry's job, not a tracer's.
// Implementations must be cheap and must not block (inside the simulator
// they run on the simulation's critical path).
//
// A nil Tracer everywhere is the default: tracing costs nothing unless
// someone is watching.
type Tracer interface {
	Event(ev Event)
}

// Event is one RPC lifecycle occurrence.
type Event interface {
	// Kind returns a short stable name for the event type.
	Kind() string
}

// CallSent: a request (first transmission) left the transport.
type CallSent struct {
	Proc uint32
	XID  uint32
}

// Retransmit: a request was retransmitted after its RTO expired.
type Retransmit struct {
	Proc    uint32
	XID     uint32
	Backoff int // retransmission count for this call, 1-based
	RTO     time.Duration
}

// Reply: a matching reply completed a call at the transport. RTO is the
// timeout the answered transmission went out with (0 on TCP), so a trace
// of replies is the paper's Graph 7 RTT/RTO plot.
type Reply struct {
	Proc uint32
	XID  uint32
	RTT  time.Duration
	RTO  time.Duration
}

// CallFailed: a call resolved without a reply — the transport gave up
// (retransmit budget exhausted), was closed, or could not reconnect.
// Together with Reply these make every CallSent's fate observable, which
// is what the conservation invariants in internal/check audit.
type CallFailed struct {
	Proc   uint32
	XID    uint32
	Reason string
}

// DupCacheHit: the server's duplicate request cache suppressed
// re-execution of a retransmitted non-idempotent call.
type DupCacheHit struct {
	Proc uint32
}

// ServerCrash: the server rebooted, losing all volatile state; new leases
// are refused for RecoverFor (the NQNFS recovery window).
type ServerCrash struct {
	RecoverFor time.Duration
}

// LeaseGrant: the server granted (or renewed) a cache lease. File is a
// printable file identity (this package stays protocol-agnostic).
type LeaseGrant struct {
	Peer  string
	File  string
	Write bool
	Term  time.Duration
	// Piggy marks a grant issued in a reply piggyback rather than by an
	// explicit LEASE call.
	Piggy bool
}

// LeaseVacate: a holder released its lease after an eviction notice (or
// the server dropped the holder), so the file is grantable again.
type LeaseVacate struct {
	Peer string
	File string
}

// ServerCall: the server finished one procedure; Service is the in-server
// time from decode to encoded reply. Peer and XID identify the call the
// way the duplicate request cache does, and NonIdempotent marks the
// procedures whose re-execution would corrupt state — together they let an
// auditor assert exactly-once execution under retransmission.
type ServerCall struct {
	Proc          uint32
	Peer          string
	XID           uint32
	NonIdempotent bool
	Service       time.Duration
	Error         bool
}

func (CallSent) Kind() string    { return "call_sent" }
func (Retransmit) Kind() string  { return "retransmit" }
func (Reply) Kind() string       { return "reply" }
func (CallFailed) Kind() string  { return "call_failed" }
func (DupCacheHit) Kind() string { return "dup_hit" }
func (ServerCrash) Kind() string { return "server_crash" }
func (LeaseGrant) Kind() string  { return "lease_grant" }
func (LeaseVacate) Kind() string { return "lease_vacate" }
func (ServerCall) Kind() string  { return "server_call" }

// Emit sends ev to tr when a tracer is installed. It is generic so the
// event is boxed into an interface only inside the nil check: an untraced
// Emit costs one branch and no allocation, and call sites stay one line.
func Emit[E Event](tr Tracer, ev E) {
	if tr != nil {
		tr.Event(ev)
	}
}

// FuncTracer adapts a function to the Tracer interface.
type FuncTracer func(ev Event)

// Event implements Tracer.
func (f FuncTracer) Event(ev Event) { f(ev) }
