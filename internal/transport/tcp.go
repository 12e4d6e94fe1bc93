package transport

import (
	"fmt"
	"time"

	"renonfs/internal/mbuf"
	"renonfs/internal/metrics"
	"renonfs/internal/netsim"
	"renonfs/internal/nfsproto"
	"renonfs/internal/rpc"
	"renonfs/internal/sim"
	"renonfs/internal/tcpsim"
	"renonfs/internal/xdr"
)

// DefaultReplyTimeout is how long a TCP call may stay outstanding before
// the transport concludes the reply was lost along with the server's
// connection state (a reboot whose RST never arrived) and aborts the
// connection to force a reconnect and replay. TCP keeps the data stream
// reliable, but it cannot resurrect a reply the server forgot it owed us.
const DefaultReplyTimeout = 30 * time.Second

// tcpReconnectAttempts bounds redial attempts after a connection loss
// before pending calls are failed (each attempt itself waits out the
// 75 s connect timeout, so this is a generous hard-mount budget).
const tcpReconnectAttempts = 8

// TCP is the stream transport: one connection per mount, record marks
// between messages, reliability delegated to TCP itself. If the connection
// drops, the transport reconnects and re-sends every pending request (the
// server's duplicate request cache absorbs any replays of non-idempotent
// calls).
type TCP struct {
	env    *sim.Env
	stack  *tcpsim.Stack
	server netsim.NodeID
	port   int
	conn   *tcpsim.Conn

	xid     uint32
	pending map[uint32]*tcpPending
	enc     xdr.Encoder // builds every call message
	closed  bool
	stats   Stats
	wake    *sim.Cond // ends the watchdog's idle park (parkWhileIdle)
	// Tracer mirrors UDPConfig.Tracer: typed RPC lifecycle events (calls,
	// replies, replays after a reconnect).
	Tracer metrics.Tracer
	// ReplyTimeout overrides DefaultReplyTimeout when set.
	ReplyTimeout sim.Time
}

type tcpPending struct {
	xid    uint32
	prog   uint32
	vers   uint32
	proc   uint32
	args   func(e *xdr.Encoder)
	sentAt sim.Time
	done   *sim.Event
	reply  *xdr.Decoder
	err    error
}

// NewTCP creates the transport and dials the server; it blocks the calling
// process for the handshake.
func NewTCP(p *sim.Proc, stack *tcpsim.Stack, server netsim.NodeID, port int) (*TCP, error) {
	env := stack.Node().Net().Env
	t := &TCP{
		env:          env,
		stack:        stack,
		server:       server,
		port:         port,
		pending:      make(map[uint32]*tcpPending),
		wake:         sim.NewCond(env),
		ReplyTimeout: DefaultReplyTimeout,
	}
	if err := t.connect(p); err != nil {
		return nil, err
	}
	t.env.Spawn(fmt.Sprintf("%s.tcprpc-watchdog", stack.Node().Name), t.watchdog)
	return t, nil
}

// watchdog aborts the connection when a call has been outstanding past
// ReplyTimeout. That covers the one loss TCP's reliability cannot: the
// server rebooted after acking our request, its RST to us was lost, and
// with no unacked data on the wire neither side will ever transmit again.
// Aborting wakes rxLoop, which reconnects and replays the pending calls.
// While nothing is pending it parks and keeps its check phase.
func (t *TCP) watchdog(p *sim.Proc) {
	for {
		p.Sleep(t.ReplyTimeout / 4)
		parkWhileIdle(p, t.wake, t.ReplyTimeout/4, func() bool { return len(t.pending) == 0 && !t.closed })
		if t.closed {
			return
		}
		overdue := false
		for _, pc := range t.pending {
			if !pc.done.IsSet() && p.Now()-pc.sentAt > t.ReplyTimeout {
				overdue = true
				break
			}
		}
		if overdue && t.conn != nil {
			t.conn.Abort()
		}
	}
}

func (t *TCP) connect(p *sim.Proc) error {
	conn, err := t.stack.Dial(p, t.server, t.port)
	if err != nil {
		return err
	}
	t.conn = conn
	t.env.Spawn(fmt.Sprintf("%s.tcprpc-rx", t.stack.Node().Name), func(rp *sim.Proc) {
		t.rxLoop(rp, conn)
	})
	return nil
}

// Stats returns transport counters.
func (t *TCP) Stats() *Stats { return &t.stats }

// Close tears the connection down.
func (t *TCP) Close() {
	if t.closed {
		return
	}
	t.closed = true
	t.failPending(ErrClosed, "closed")
	t.pending = make(map[uint32]*tcpPending)
	if t.conn != nil {
		t.conn.Close()
	}
	t.wake.Broadcast()
}

// failPending fails every unanswered call, waking the callers in XID order.
func (t *TCP) failPending(err error, reason string) {
	for _, pc := range byXID(t.pending) {
		if pc.done.IsSet() {
			continue
		}
		pc.err = err
		metrics.Emit(t.Tracer, metrics.CallFailed{Proc: pc.proc, XID: pc.xid, Reason: reason})
		pc.done.Set()
	}
}

// Call implements Transport.
func (t *TCP) Call(p *sim.Proc, proc uint32, args func(e *xdr.Encoder)) (*xdr.Decoder, error) {
	return t.CallProgram(p, nfsproto.Program, nfsproto.Version, proc, args)
}

// CallProgram implements ProgramCaller (used by the MOUNT protocol).
func (t *TCP) CallProgram(p *sim.Proc, prog, vers, proc uint32, args func(e *xdr.Encoder)) (*xdr.Decoder, error) {
	if t.closed {
		return nil, ErrClosed
	}
	t.xid++
	pc := &tcpPending{
		xid: t.xid, prog: prog, vers: vers, proc: proc, args: args,
		sentAt: p.Now(), done: sim.NewEvent(t.env),
	}
	t.pending[pc.xid] = pc
	t.wake.Broadcast()
	t.stats.Calls++
	metrics.Emit(t.Tracer, metrics.CallSent{Proc: proc, XID: pc.xid})
	if err := t.sendOne(p, pc); err != nil {
		delete(t.pending, pc.xid)
		t.stats.Failures++
		metrics.Emit(t.Tracer, metrics.CallFailed{Proc: proc, XID: pc.xid, Reason: "send"})
		return nil, err
	}
	pc.done.Wait(p)
	delete(t.pending, pc.xid)
	if pc.err != nil {
		t.stats.Failures++
		return nil, pc.err
	}
	return pc.reply, nil
}

func (t *TCP) sendOne(p *sim.Proc, pc *tcpPending) error {
	msg := buildCall(&t.enc, pc.xid, pc.prog, pc.vers, pc.proc, pc.args)
	rpc.AddRecordMark(msg)
	return t.conn.Send(p, msg)
}

// rxLoop reassembles record-marked replies and matches them to callers.
// On EOF it reconnects and replays everything pending.
func (t *TCP) rxLoop(p *sim.Proc, conn *tcpsim.Conn) {
	var scan rpc.RecordScanner
rx:
	for {
		b, ok := conn.Recv(p)
		if !ok {
			break
		}
		scan.Feed(b)
		for {
			rec, err := scan.Next()
			if err != nil {
				conn.Abort()
				break rx
			}
			if rec == nil {
				break
			}
			msg := mbuf.FromBytes(rec)
			xid, err := rpc.PeekXID(msg)
			if err != nil {
				continue
			}
			pc := t.pending[xid]
			if pc == nil || pc.done.IsSet() {
				continue
			}
			dec, err := decodeReply(msg)
			if err != nil {
				continue
			}
			t.stats.Replies++
			metrics.Emit(t.Tracer, metrics.Reply{Proc: pc.proc, XID: xid, RTT: p.Now() - pc.sentAt})
			pc.reply = dec
			pc.done.Set()
		}
	}
	if t.closed {
		return
	}
	// Connection lost: reconnect and replay pending requests. A hard
	// mount rides out long outages, so redial a few times before giving
	// up on the calls in flight.
	var connErr error
	for attempt := 0; ; attempt++ {
		if t.closed {
			return
		}
		if connErr = t.connect(p); connErr == nil {
			break
		}
		if attempt+1 >= tcpReconnectAttempts {
			t.failPending(connErr, "reconnect-failed")
			return
		}
		p.Sleep(time.Second)
	}
	for _, pc := range byXID(t.pending) {
		if !pc.done.IsSet() {
			t.stats.Retries++
			metrics.Emit(t.Tracer, metrics.Retransmit{Proc: pc.proc, XID: pc.xid, Backoff: 1})
			// Restart the reply clock: RTT then measures the replay's
			// round trip, and the watchdog times the new transmission.
			pc.sentAt = p.Now()
			if err := t.sendOne(p, pc); err != nil {
				pc.err = err
				metrics.Emit(t.Tracer, metrics.CallFailed{Proc: pc.proc, XID: pc.xid, Reason: "send"})
				pc.done.Set()
			}
		}
	}
}
