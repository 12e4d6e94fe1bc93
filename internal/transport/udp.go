package transport

import (
	"cmp"
	"fmt"
	"slices"
	"time"

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
	// after finding 2 caused 2-4x the retry rate).
	BigFactor int
	// SmallFactor is the multiplier for getattr/lookup (2).
	SmallFactor int
	// SlowStart re-enables the slow start the paper removed (for the
	// ablation; found to hurt).
	SlowStart bool
	// RecalcAtSendOnly computes each request's deadline once at transmit
	// time instead of refreshing it every NFS tick (ablation of the second
	// §4 change).
	RecalcAtSendOnly bool
	// CwndInit and CwndMax bound the congestion window (requests).
	CwndInit float64
	CwndMax  float64
	// Tracer, when set, receives the transport's RPC lifecycle events: call
	// sent, retransmit, reply (with its RTT and the RTO its transmission
	// used — Graph 7 is a trace of READ replies) and call failed.
	Tracer metrics.Tracer
}

// FixedUDP returns the classic configuration.
func FixedUDP() UDPConfig {
	return UDPConfig{Dynamic: false, Timeo: time.Second, BigFactor: 4, SmallFactor: 2}
}

// DynamicUDP returns the paper's tuned configuration.
func DynamicUDP() UDPConfig {
	return UDPConfig{Dynamic: true, Timeo: time.Second, BigFactor: 4, SmallFactor: 2,
		CwndInit: 4, CwndMax: 32}
}

// udpPending is one in-flight request. Retransmission re-encodes from the
// recorded argument closure (reqChain), which is cheaper than cloning
// chains whose payload views are consumed by the send path.
type udpPending struct {
	xid      uint32
	class    Class
	sentAt   sim.Time
	deadline sim.Time
	backoff  int
	retried  bool
	rtoAtTx  sim.Time
	done     *sim.Event
	reply    *xdr.Decoder
	err      error
}

// UDP is the datagram transport.
type UDP struct {
	cfg    UDPConfig
	sock   *netsim.UDPSocket
	server netsim.NodeID
	port   int
	env    *sim.Env

	xid     uint32
	pending map[uint32]*udpPending
	chains  map[uint32]*reqChain
	est     [NumClasses]estimator
	cwnd    float64
	waiters *sim.Cond
	wake    *sim.Cond // ends the timer's idle park (parkWhileIdle)
	closed  bool
	stats   Stats
}

type reqChain struct {
	prog uint32
	vers uint32
	proc uint32
	args func(e *xdr.Encoder)
}

// NewUDP creates a UDP transport from the client node to (server, port).
func NewUDP(node *netsim.Node, localPort int, server netsim.NodeID, port int, cfg UDPConfig) *UDP {
	if cfg.Timeo == 0 {
		cfg.Timeo = time.Second
	}
	if cfg.Retrans == 0 {
		cfg.Retrans = 50
	}
	if cfg.BigFactor == 0 {
		cfg.BigFactor = 4
	}
	if cfg.SmallFactor == 0 {
		cfg.SmallFactor = 2
	}
	if cfg.CwndInit == 0 {
		cfg.CwndInit = 4
	}
	if cfg.CwndMax == 0 {
		cfg.CwndMax = 32
	}
	env := node.Net().Env
	t := &UDP{
		cfg:     cfg,
		sock:    node.UDPSocket(localPort),
		server:  server,
		port:    port,
		env:     env,
		pending: make(map[uint32]*udpPending),
		chains:  make(map[uint32]*reqChain),
		cwnd:    cfg.CwndInit,
		waiters: sim.NewCond(env),
		wake:    sim.NewCond(env),
	}
	for c := Class(0); c < NumClasses; c++ {
		f := sim.Time(cfg.SmallFactor)
		if c.Big() {
			f = sim.Time(cfg.BigFactor)
		}
		t.est[c].factor = f
	}
	env.Spawn(fmt.Sprintf("%s.udprpc-rx", node.Name), t.rxLoop)
	env.Spawn(fmt.Sprintf("%s.udprpc-timer", node.Name), t.timerLoop)
	return t
}

// Stats returns the transport counters.
func (t *UDP) Stats() *Stats { return &t.stats }

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
	for _, pc := range byXID(t.pending) {
		if pc.done.IsSet() {
			continue
		}
		pc.err = ErrClosed
		metrics.Emit(t.cfg.Tracer, metrics.CallFailed{Proc: dgProc(t, pc.xid), XID: pc.xid, Reason: "closed"})
		pc.done.Set()
	}
	t.pending = make(map[uint32]*udpPending)
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

// CallProgram implements ProgramCaller (used by the MOUNT protocol).
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
	class := ClassOf(proc)
	t.stats.Calls++
	metrics.Emit(t.cfg.Tracer, metrics.CallSent{Proc: proc, XID: xid})
	pc := &udpPending{
		xid:    xid,
		class:  class,
		sentAt: p.Now(),
		done:   sim.NewEvent(t.env),
	}
	t.pending[xid] = pc
	t.chains[xid] = &reqChain{prog: prog, vers: vers, proc: proc, args: args}
	t.wake.Broadcast()
	t.send(p, pc)
	pc.done.Wait(p)
	delete(t.pending, xid)
	delete(t.chains, xid)
	if t.cfg.Dynamic {
		t.waiters.Broadcast()
	}
	if pc.err != nil {
		t.stats.Failures++
		return nil, pc.err
	}
	return pc.reply, nil
}

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

// send (re)transmits a request and stamps its deadline.
func (t *UDP) send(p *sim.Proc, pc *udpPending) {
	rc := t.chains[pc.xid]
	if rc == nil {
		return
	}
	rto := t.backedOff(pc)
	pc.rtoAtTx = rto
	pc.deadline = t.env.Now() + rto
	msg := buildCall(pc.xid, rc.prog, rc.vers, rc.proc, rc.args)
	t.sock.Send(p, t.server, t.port, msg)
}

// rxLoop matches replies to pending calls.
func (t *UDP) rxLoop(p *sim.Proc) {
	for {
		dg, ok := t.sock.Recv(p)
		if !ok {
			return
		}
		xid, err := rpc.PeekXID(dg.Payload)
		if err != nil {
			continue
		}
		pc := t.pending[xid]
		if pc == nil || pc.done.IsSet() {
			continue // late duplicate reply
		}
		dec, err := decodeReply(dg.Payload)
		if err != nil {
			continue
		}
		rtt := p.Now() - pc.sentAt
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
			if t.cfg.SlowStart && t.cwnd < 8 {
				t.cwnd++
			} else {
				t.cwnd += 1 / t.cwnd
			}
			if t.cwnd > t.cfg.CwndMax {
				t.cwnd = t.cfg.CwndMax
			}
			t.waiters.Broadcast()
		}
		t.stats.Replies++
		metrics.Emit(t.cfg.Tracer, metrics.Reply{Proc: dgProc(t, xid), XID: xid, RTT: rtt, RTO: pc.rtoAtTx})
		pc.reply = dec
		pc.done.Set()
	}
}

// dgProc recovers the procedure of a pending xid for tracing.
func dgProc(t *UDP, xid uint32) uint32 {
	if rc := t.chains[xid]; rc != nil {
		return rc.proc
	}
	return ^uint32(0)
}

// timerLoop is the NFS client timer: every tick it scans pending requests
// and retransmits the expired in XID order (see byXID), recomputing deadlines
// from the freshest estimates (unless the ablation pins them at send time).
// While nothing is pending the timer parks and keeps its tick phase, which
// the per-tick deadline refresh depends on.
func (t *UDP) timerLoop(p *sim.Proc) {
	var expired []*udpPending
	for !t.closed {
		p.Sleep(NFSTick)
		parkWhileIdle(p, t.wake, NFSTick, func() bool { return len(t.pending) == 0 && !t.closed })
		now := p.Now()
		expired = expired[:0]
		for _, pc := range t.pending {
			if !pc.done.IsSet() && now >= t.deadlineOf(pc) {
				expired = append(expired, pc)
			}
		}
		slices.SortFunc(expired, func(a, b *udpPending) int { return cmp.Compare(a.xid, b.xid) })
		for _, pc := range expired {
			if pc.done.IsSet() {
				continue // answered while an earlier retransmission was going out
			}
			if pc.backoff >= t.cfg.Retrans {
				pc.err = ErrCallTimeout
				metrics.Emit(t.cfg.Tracer, metrics.CallFailed{Proc: dgProc(t, pc.xid), XID: pc.xid, Reason: "timeout"})
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
			t.send(p, pc)
			metrics.Emit(t.cfg.Tracer, metrics.Retransmit{
				Proc: dgProc(t, pc.xid), XID: pc.xid, Backoff: pc.backoff, RTO: pc.rtoAtTx,
			})
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
