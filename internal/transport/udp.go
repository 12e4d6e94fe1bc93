package transport

import (
	"time"

	"renonfs/internal/mbuf"
	"renonfs/internal/metrics"
	"renonfs/internal/netsim"
	"renonfs/internal/nfsproto"
	"renonfs/internal/rpc"
	"renonfs/internal/sim"
	"renonfs/internal/xdr"
)

// UDPConfig selects between the classic fixed-RTO scheme and the paper's
// tuned dynamic scheme, and exposes the knobs the §4 ablations turn.
type UDPConfig struct {
	// Dynamic enables per-class RTO estimation and the congestion window.
	Dynamic bool
	// Timeo is the mount's initial/fixed RTO (default 1s, the value the
	// paper found could not safely be lowered).
	Timeo sim.Time
	// Retrans bounds retransmissions per call before failing (soft mount);
	// 0 means effectively hard-mount (a large bound).
	Retrans int
	// BigFactor is the deviation multiplier for read/write (paper: 4,
	// after finding 2 caused 2-4x the retry rate); getattr/lookup use
	// SmallFactor.
	BigFactor int
	// RecalcAtSendOnly computes each request's deadline once at transmit
	// time instead of refreshing it every NFS tick (ablation of the second
	// §4 change).
	RecalcAtSendOnly bool
	// Tracer, when set, receives the transport's RPC lifecycle events: call
	// sent, retransmit, reply (with its RTT and the RTO its transmission
	// used — Graph 7 is a trace of READ replies) and call failed.
	Tracer metrics.Tracer
}

// FixedUDP returns the classic configuration.
func FixedUDP() UDPConfig {
	return UDPConfig{Dynamic: false, Timeo: time.Second, BigFactor: 4}
}

// DynamicUDP returns the paper's tuned configuration.
func DynamicUDP() UDPConfig {
	return UDPConfig{Dynamic: true, Timeo: time.Second, BigFactor: 4}
}

// udpPending is one in-flight request. Retransmission re-encodes from the
// recorded arguments, which is cheaper than cloning chains whose payload
// views are consumed by the send path. Records recycle through the
// transport's free list once their caller has taken the result, so nothing
// may hold one across a park: the timer holds XIDs instead.
type udpPending struct {
	xid      uint32
	prog     uint32
	vers     uint32
	proc     uint32
	args     func(e *xdr.Encoder)
	class    Class
	sentAt   sim.Time
	deadline sim.Time
	backoff  int
	retried  bool
	rtoAtTx  sim.Time
	done     sim.Event
	reply    *xdr.Decoder
	err      error
}

func (pc *udpPending) xidOf() uint32 { return pc.xid }

// UDP is the datagram transport.
type UDP struct {
	cfg    UDPConfig
	sock   netsim.Endpoint
	server netsim.NodeID
	port   int
	env    *sim.Env

	xid     uint32
	pending pendingTable[*udpPending]
	free    []*udpPending // records whose calls have returned
	replies replies
	enc     xdr.Encoder // builds every call message
	msg     mbuf.Chain  // into this chain, which the socket's Send empties
	est     [NumClasses]estimator
	cwnd    float64
	waiters *sim.Cond
	wake    *sim.Cond // ends the timer's idle park (parkWhileIdle)
	closed  bool
	stats   Stats
}

// NewUDP creates a UDP transport from the client node to (server, port).
func NewUDP(node *netsim.Node, localPort int, server netsim.NodeID, port int, cfg UDPConfig) *UDP {
	t := newUDP(node.Net().Env, node.UDPSocket(localPort), node.Name, cfg)
	t.server, t.port = server, port
	return t
}

// DialUDP creates a UDP transport over a real socket connected to addr, for
// an environment driven by sim.Env.RunWall. XIDs start from the wall clock,
// so a reused port does not hit its predecessor's duplicate-cache entries.
func DialUDP(env *sim.Env, addr string, cfg UDPConfig) (*UDP, error) {
	sock, err := netsim.DialWall(env, addr)
	if err != nil {
		return nil, err
	}
	t := newUDP(env, sock, sock.LocalAddr(), cfg)
	t.xid = uint32(time.Now().UnixNano())
	return t, nil
}

// newUDP creates a UDP transport over sock; name prefixes its timer process.
func newUDP(env *sim.Env, sock netsim.Endpoint, name string, cfg UDPConfig) *UDP {
	if cfg.Timeo == 0 {
		cfg.Timeo = time.Second
	}
	if cfg.Retrans == 0 {
		cfg.Retrans = 50
	}
	if cfg.BigFactor == 0 {
		cfg.BigFactor = 4
	}
	t := &UDP{
		cfg:     cfg,
		sock:    sock,
		env:     env,
		cwnd:    CwndInit,
		waiters: sim.NewCond(env),
		wake:    sim.NewCond(env),
	}
	for c := Class(0); c < NumClasses; c++ {
		f := sim.Time(SmallFactor)
		if c.Big() {
			f = sim.Time(cfg.BigFactor)
		}
		t.est[c].factor = f
	}
	t.sock.Queue().Serve(t.receive)
	env.Spawn(name+".udprpc-timer", t.timerLoop)
	return t
}

// Stats returns the transport counters.
func (t *UDP) Stats() *Stats { return &t.stats }

// Env returns the transport's environment.
func (t *UDP) Env() *sim.Env { return t.env }

// Estimator exposes (A, D, RTO) for a class, for traces and tests.
func (t *UDP) Estimator(c Class) (srtt, rttvar, rto sim.Time) {
	e := &t.est[c]
	return e.srtt, e.rttvar, e.rto(t.cfg.Timeo, MinRTO, MaxRTO)
}

// Cwnd returns the current congestion window (requests).
func (t *UDP) Cwnd() float64 { return t.cwnd }

// Close shuts the transport down; pending calls fail.
func (t *UDP) Close() {
	if t.closed {
		return
	}
	t.closed = true
	for _, pc := range t.pending {
		if pc.done.IsSet() {
			continue
		}
		pc.err = ErrClosed
		metrics.Emit(t.cfg.Tracer, metrics.CallFailed{Proc: pc.proc, XID: pc.xid, Reason: "closed"})
		pc.done.Set()
	}
	t.pending = nil
	t.sock.Close()
	t.waiters.Broadcast()
	t.wake.Broadcast()
}

// rtoFor returns the current timeout for a class under the configuration.
func (t *UDP) rtoFor(c Class) sim.Time {
	if !t.cfg.Dynamic {
		return t.cfg.Timeo
	}
	switch c {
	case ClassGetattr, ClassLookup, ClassRead, ClassWrite:
		return t.est[c].rto(t.cfg.Timeo, MinRTO, MaxRTO)
	default:
		// Infrequent, mostly non-idempotent RPCs keep the conservative
		// mount constant.
		return t.cfg.Timeo
	}
}

// Call implements Transport.
func (t *UDP) Call(p *sim.Proc, proc uint32, args func(e *xdr.Encoder)) (*xdr.Decoder, error) {
	return t.CallProgram(p, nfsproto.Program, nfsproto.Version, proc, args)
}

// CallProgram implements Transport.
func (t *UDP) CallProgram(p *sim.Proc, prog, vers, proc uint32, args func(e *xdr.Encoder)) (*xdr.Decoder, error) {
	if t.closed {
		return nil, ErrClosed
	}
	// Congestion window: cap outstanding requests (dynamic mode only).
	if t.cfg.Dynamic {
		for !t.closed && float64(len(t.pending)) >= t.cwnd {
			t.waiters.Wait(p)
		}
		if t.closed {
			return nil, ErrClosed
		}
	}
	t.xid++
	xid := t.xid
	t.stats.Calls++
	metrics.Emit(t.cfg.Tracer, metrics.CallSent{Proc: proc, XID: xid})
	var pc *udpPending
	if n := len(t.free); n > 0 {
		pc, t.free = t.free[n-1], t.free[:n-1]
	} else {
		pc = &udpPending{}
	}
	pc.done.Reset(t.env)
	pc.xid, pc.prog, pc.vers, pc.proc, pc.args = xid, prog, vers, proc, args
	pc.class, pc.sentAt = ClassOf(proc), p.Now()
	t.pending.add(pc)
	t.wake.Broadcast()
	t.send(p, pc)
	pc.done.Wait(p)
	t.pending.remove(xid)
	if t.cfg.Dynamic {
		t.waiters.Broadcast()
	}
	reply, err := pc.reply, pc.err
	*pc = udpPending{done: pc.done}
	t.free = append(t.free, pc)
	if err != nil {
		t.stats.Failures++
		return nil, err
	}
	return reply, nil
}

// Release implements Transport.
func (t *UDP) Release(reply *xdr.Decoder) { t.replies.release(reply) }

// backedOff is pc's class timeout under its exponential backoff.
func (t *UDP) backedOff(pc *udpPending) sim.Time {
	rto := t.rtoFor(pc.class)
	if pc.backoff > 0 {
		rto *= sim.Time(uint(1) << uint(min(pc.backoff, 10)))
		if rto > MaxRTO {
			rto = MaxRTO
		}
	}
	return rto
}

// send (re)transmits a request, stamps its deadline and returns the RTO it
// used. It reads pc only before the socket send, which may park while the
// record is answered and reused.
func (t *UDP) send(p *sim.Proc, pc *udpPending) sim.Time {
	rto := t.backedOff(pc)
	pc.rtoAtTx = rto
	pc.deadline = t.env.Now() + rto
	t.sock.Send(p, t.server, t.port, buildCall(&t.enc, &t.msg, pc.xid, pc.prog, pc.vers, pc.proc, pc.args))
	return rto
}

// receive matches a reply to its pending call; it consumes the socket's
// receive queue as a callback (sim.Queue.Serve). The reply's mbufs move out
// of the datagram, which is released; one a fault may deliver again stays,
// read through a view. A message that answers no call is freed unless a
// fault may deliver it again.
func (t *UDP) receive(dg *netsim.Datagram) {
	defer dg.Release()
	var pc *udpPending
	if xid, err := rpc.PeekXID(dg.Payload); err == nil {
		pc = t.pending.find(xid)
	}
	if pc == nil || pc.done.IsSet() {
		if !dg.Duplicated {
			dg.Payload.Free() // garbage, or a late duplicate reply
		}
		return
	}
	msg := t.replies.chain()
	if dg.Duplicated {
		dg.Payload.AppendRange(msg, 0, dg.Len())
	} else {
		msg.AppendChain(dg.Payload)
	}
	dec, err := t.replies.decode(msg)
	if err != nil {
		return
	}
	xid := pc.xid
	rtt := t.env.Now() - pc.sentAt
	if t.cfg.Dynamic {
		// Karn's rule: only time unambiguous (non-retried) replies.
		if !pc.retried {
			switch pc.class {
			case ClassGetattr, ClassLookup, ClassRead, ClassWrite:
				t.est[pc.class].sample(rtt)
			}
		}
		// Congestion window opens by one request per window's worth of
		// replies (linear growth; slow start removed per the paper).
		t.cwnd = min(t.cwnd+1/t.cwnd, CwndMax)
		t.waiters.Broadcast()
	}
	t.stats.Replies++
	metrics.Emit(t.cfg.Tracer, metrics.Reply{Proc: pc.proc, XID: xid, RTT: rtt, RTO: pc.rtoAtTx})
	pc.reply = dec
	pc.done.Set()
}

// timerLoop is the NFS client timer: every tick it scans pending requests
// and retransmits the expired in XID order (see pendingTable), recomputing deadlines
// from the freshest estimates (unless the ablation pins them at send time).
// While nothing is pending the timer parks and keeps its tick phase, which
// the per-tick deadline refresh depends on.
func (t *UDP) timerLoop(p *sim.Proc) {
	var expired []uint32
	for !t.closed {
		p.Sleep(NFSTick)
		parkWhileIdle(p, t.wake, NFSTick, func() bool { return len(t.pending) == 0 && !t.closed })
		now := p.Now()
		expired = expired[:0]
		for _, pc := range t.pending {
			if !pc.done.IsSet() && now >= t.deadlineOf(pc) {
				expired = append(expired, pc.xid)
			}
		}
		for _, xid := range expired {
			pc := t.pending.find(xid)
			if pc == nil || pc.done.IsSet() {
				continue // answered while an earlier retransmission was going out
			}
			if pc.backoff >= t.cfg.Retrans {
				pc.err = ErrCallTimeout
				metrics.Emit(t.cfg.Tracer, metrics.CallFailed{Proc: pc.proc, XID: xid, Reason: "timeout"})
				pc.done.Set()
				continue
			}
			pc.retried = true
			pc.backoff++
			pc.sentAt = now
			t.stats.Retries++
			t.stats.RetryClass[pc.class]++
			if t.cfg.Dynamic {
				t.cwnd = t.cwnd / 2
				if t.cwnd < 1 {
					t.cwnd = 1
				}
			}
			retx := metrics.Retransmit{Proc: pc.proc, XID: xid, Backoff: pc.backoff}
			retx.RTO = t.send(p, pc)
			metrics.Emit(t.cfg.Tracer, retx)
		}
	}
}

// deadlineOf is when the timer gives up waiting on pc's last transmission.
func (t *UDP) deadlineOf(pc *udpPending) sim.Time {
	if !t.cfg.Dynamic || t.cfg.RecalcAtSendOnly {
		return pc.deadline
	}
	// Refresh from the current estimator so the newest A and D are used
	// (§4's second retry-rate fix).
	return pc.sentAt + t.backedOff(pc)
}
