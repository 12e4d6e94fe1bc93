// Package tcpsim implements a simplified but mechanically faithful TCP on
// top of the network simulator: three-way handshake, cumulative ACKs with
// out-of-order reassembly, Jacobson/Karels RTT estimation (RTO = A + 4D)
// with Karn's rule, slow start, congestion avoidance, fast retransmit, and
// exponential RTO backoff driven by the classic 500 ms slow timeout.
//
// It is the "reliable virtual circuit with dynamic RTO estimation and
// congestion control [Jacobson88a]" the paper evaluates as an NFS transport
// in §4. Per-segment and per-ACK CPU costs are charged through the netsim
// cost model, which is where TCP's ≈20% server CPU premium over UDP comes
// from (Graph 6).
//
// Like 4.3BSD's, the protocol runs as events, not processes: tcp_input ran
// at software-interrupt level and called tcp_output directly, and one
// tcp_slowtimo served every connection. A connection is its port queue's
// Notify consumer (input, then output, then the wait), its segments' CPU
// charges step through a netsim.Tx, and its slow timeout is one timer event
// on the connection's own 500 ms phase. A listener demultiplexes as its
// port queue's consumer too. The two ends an application holds are callbacks
// as well: Listener.Serve hands over each connection as its handshake
// completes, and Conn.Serve hands the reader the stream as the segments' own
// chains, with no copy. Each event falls where the process this replaces
// would have resumed, so no simulated event moves. Only the calls that wait
// for the peer or for buffer space — Dial's handshake and Send — take a
// process.
//
// Deliberate simplifications, none of which affect the §4 comparisons:
// delayed ACKs piggyback or flush on the slow timeout (not a dedicated
// 200 ms timer), the receive window is a fixed advertisement, and there is
// no TIME_WAIT state.
package tcpsim

import (
	"errors"
	"fmt"
	"time"

	"renonfs/internal/mbuf"
	"renonfs/internal/netsim"
	"renonfs/internal/rtt"
	"renonfs/internal/sim"
)

// Protocol parameters.
const (
	// Tick is the classic BSD slow-timeout granularity.
	Tick = 500 * time.Millisecond
	// MinRTO and MaxRTO bound the retransmit timer (2 ticks .. 64 s).
	MinRTO = 1 * time.Second
	MaxRTO = 64 * time.Second
	// RcvWindow is the fixed advertised receive window.
	RcvWindow = 24576
	// SndBufMax bounds the send buffer; Send blocks beyond it.
	SndBufMax = 32768
	// ConnectTimeout bounds Dial.
	ConnectTimeout = 75 * time.Second
)

// ErrTimeout is returned by Dial when the handshake never completes.
var ErrTimeout = errors.New("tcpsim: connection timed out")

// ErrClosed is returned for operations on a closed connection.
var ErrClosed = errors.New("tcpsim: connection closed")

// seg is the TCP header carried in Datagram.Meta.
type seg struct {
	SYN, ACK, FIN, RST bool
	Seq                uint64
	Ack                uint64
	Win                int

	home *Stack // the stack whose free list the header returns to
}

func (s *seg) String() string {
	fl := ""
	if s.SYN {
		fl += "S"
	}
	if s.RST {
		fl += "R"
	}
	if s.ACK {
		fl += "."
	}
	if s.FIN {
		fl += "F"
	}
	return fmt.Sprintf("[%s seq=%d ack=%d win=%d]", fl, s.Seq, s.Ack, s.Win)
}

// ConnStats are per-connection counters.
type ConnStats struct {
	SegsOut, SegsIn   int
	BytesOut, BytesIn int
	Retransmits       int // segments resent for any reason
	FastRetransmits   int // 3-dupack retransmissions
	Timeouts          int // RTO expirations
}

// Stack is a host's TCP instance.
type Stack struct {
	node      *netsim.Node
	env       *sim.Env
	nextPort  int
	listeners map[int]*Listener
	segs      []*seg // headers of released segments
}

// newSeg returns a segment from sport to (dst, dport) carrying header m:
// a datagram from the node's free list and a header from the stack's.
func (st *Stack) newSeg(m seg, dst netsim.NodeID, sport, dport int) *netsim.Datagram {
	var h *seg
	if n := len(st.segs); n > 0 {
		h, st.segs = st.segs[n-1], st.segs[:n-1]
	} else {
		h = &seg{}
	}
	*h = m
	h.home = st
	dg := st.node.NewDatagram()
	dg.Src, dg.Dst, dg.Proto, dg.SrcPort, dg.DstPort = st.node.ID, dst, netsim.ProtoTCP, sport, dport
	dg.HeaderBytes, dg.Meta = 20, h
	return dg
}

// release is done with an arriving segment: the last reference recycles
// its datagram and its header, each to the sender's free list.
func release(dg *netsim.Datagram) {
	h, _ := dg.Meta.(*seg)
	if dg.Release() && h != nil && h.home != nil {
		h.home.segs = append(h.home.segs, h)
	}
}

// NewStack returns a TCP stack bound to the node.
func NewStack(n *netsim.Node) *Stack {
	return &Stack{node: n, env: n.Net().Env, nextPort: 1024, listeners: make(map[int]*Listener)}
}

// Node returns the owning node.
func (st *Stack) Node() *netsim.Node { return st.node }

type connKey struct {
	remote netsim.NodeID
	rport  int
}

// Listener accepts incoming connections on a port.
type Listener struct {
	stack   *Stack
	port    int
	q       *sim.Queue[*netsim.Datagram]
	conns   map[connKey]*Conn
	acceptQ *sim.Queue[*Conn]
	tx      *netsim.Tx // the RST path
}

// Listen starts accepting connections on port.
func (st *Stack) Listen(port int) *Listener {
	l := &Listener{
		stack:   st,
		port:    port,
		q:       st.node.Bind(netsim.ProtoTCP, port),
		conns:   make(map[connKey]*Conn),
		acceptQ: sim.NewQueue[*Conn](st.env, fmt.Sprintf("%s.tcp%d.accept", st.node.Name, port)),
	}
	l.tx = st.node.NewTx(l.run)
	l.q.Notify(l.run)
	st.listeners[port] = l
	return l
}

// Serve hands each connection that completes its handshake to fn, where a
// process looping on accept would take it. fn runs as an event callback and
// must not block. Call it before the first connection arrives.
func (l *Listener) Serve(fn func(c *Conn)) { l.acceptQ.Serve(fn) }

// run is the port queue's consumer: it demultiplexes arriving segments to
// their connections, creating connections for new SYNs. It stops only to
// send an RST, where the process it replaces was charged the CPU for it,
// and goes on from there.
func (l *Listener) run() {
	for l.tx.Run() {
		dg, ok := l.q.TryRecv()
		if !ok {
			l.q.Idle()
			return
		}
		l.segment(dg)
	}
}

// segment demultiplexes one arriving segment.
func (l *Listener) segment(dg *netsim.Datagram) {
	m, ok := dg.Meta.(*seg)
	if !ok {
		return
	}
	key := connKey{dg.Src, dg.SrcPort}
	c := l.conns[key]
	if c == nil {
		if !m.SYN || m.ACK {
			// A segment for a connection we no longer know (e.g. the
			// peer kept talking across our crash): answer with RST so
			// it aborts and reconnects, instead of retransmitting into
			// a void forever.
			if !m.RST {
				rst := seg{RST: true, ACK: true, Seq: m.Ack, Ack: m.Seq + uint64(dg.Len())}
				l.tx.Start(l.stack.newSeg(rst, dg.Src, l.port, dg.SrcPort))
			}
			release(dg)
			return
		}
		c = newConn(l.stack, l.port, dg.Src, dg.SrcPort, sim.NewQueue[*netsim.Datagram](l.stack.env, "connq"))
		c.listener = l
		c.state = stateSynRcvd
		c.irs = m.Seq
		c.rcvNxt = m.Seq + 1
		c.rwnd = m.Win
		c.needAck = true
		l.conns[key] = c
		c.q.Wake() // its first event, where a spawned process would start
	}
	c.q.Send(dg)
}

// Connection states.
const (
	stateSynSent = iota
	stateSynRcvd
	stateEstab
	stateClosed
)

// Conn is one TCP endpoint.
type Conn struct {
	stack      *Stack
	node       *netsim.Node
	env        *sim.Env
	localPort  int
	remote     netsim.NodeID
	remotePort int
	listener   *Listener // non-nil on passive conns
	ownsPort   bool      // active conns bind their ephemeral port

	// The connection runs as events: q's Notify consumer is run, which
	// picks up at stage; output picks up at out; tx carries the segment in
	// hand out through its CPU charges; tick is the slow-timeout timer.
	q           *sim.Queue[*netsim.Datagram] // segments, and nil kicks
	kicked      bool
	run, tick   func() // c.step and c.slowTimer, bound once
	tx          *netsim.Tx
	stage       int
	out         int
	outNow      sim.Time // the instant output began: its sends' timestamps
	wnd         int      // output's send window and end of data, taken as it
	dataEnd     uint64   // began
	nextTick    sim.Time // the slow timeout due next
	rtxOnSent   bool     // restart the retransmit timer once tx has sent
	established *sim.Event
	state       int

	mss int

	// Send state. sndBuf holds unacknowledged and unsent data starting at
	// sequence sndUna.
	iss       uint64
	sndBuf    *mbuf.Chain
	sndUna    uint64
	sndNxt    uint64
	sndMax    uint64 // highest sequence ever sent; survives RTO rollback
	synSent   bool
	finQueued bool
	finSent   bool
	finAcked  bool
	cwnd      int
	ssthresh  int
	rwnd      int
	dupAcks   int
	inRecov   bool
	sendCond  *sim.Cond

	// RTT estimation (A + 4D).
	est         rtt.Estimator
	backoff     int
	timing      bool
	timedSeq    uint64
	timedAt     sim.Time
	rtxDeadline sim.Time // zero when unarmed

	// Receive state: in-order data goes to rcvQ as the segments' own
	// chains, out-of-order data waits in ooo.
	irs      uint64
	rcvNxt   uint64
	ooo      map[uint64]chunk
	rcvQ     *sim.Queue[chunk]
	finRcvd  bool
	needAck  bool
	delayAck bool // a data segment awaits acknowledgment (delayed-ACK)

	Stats ConnStats
}

// newConn returns a connection whose segments arrive on q.
func newConn(st *Stack, localPort int, remote netsim.NodeID, remotePort int, q *sim.Queue[*netsim.Datagram]) *Conn {
	mtu := st.node.PathMTUTo(remote)
	c := &Conn{
		stack:       st,
		node:        st.node,
		env:         st.env,
		localPort:   localPort,
		remote:      remote,
		remotePort:  remotePort,
		q:           q,
		established: sim.NewEvent(st.env),
		mss:         mtu - 34 - 20, // framing/IP + TCP headers
		iss:         uint64(st.env.Rand().Intn(1 << 20)),
		est:         rtt.Estimator{Factor: 4},
		backoff:     1,
		rwnd:        RcvWindow,
		ooo:         make(map[uint64]chunk),
		rcvQ:        sim.NewQueue[chunk](st.env, "rcvq"),
		sendCond:    sim.NewCond(st.env),
		sndBuf:      &mbuf.Chain{},
	}
	c.cwnd = c.mss
	c.ssthresh = 64 * 1024
	c.sndUna = c.iss + 1
	c.sndNxt = c.iss + 1
	c.sndMax = c.iss + 1
	c.rcvNxt = 0
	c.run, c.tick = c.step, c.slowTimer
	c.tx = st.node.NewTx(c.run)
	q.Notify(c.run)
	return c
}

// Dial opens a connection to (remote, rport), blocking until the handshake
// completes or times out.
func (st *Stack) Dial(p *sim.Proc, remote netsim.NodeID, rport int) (*Conn, error) {
	c := st.Open(remote, rport)
	if err := c.WaitEstablished(p); err != nil {
		return nil, err
	}
	return c, nil
}

// Open starts a connection to (remote, rport) and returns it without
// waiting: Dial's first half, for a caller that runs as an event callback.
// WaitEstablished is the other half.
func (st *Stack) Open(remote netsim.NodeID, rport int) *Conn {
	port := st.nextPort
	st.nextPort++
	c := newConn(st, port, remote, rport, st.node.Bind(netsim.ProtoTCP, port))
	c.ownsPort = true
	c.state = stateSynSent
	c.q.Wake() // its first event, where a spawned process would start
	c.kick()
	return c
}

// WaitEstablished blocks until the handshake of a connection from Open
// completes. If it times out or the connection closes first, the
// connection is aborted and the error is ErrTimeout.
func (c *Conn) WaitEstablished(p *sim.Proc) error {
	if !c.established.WaitTimeout(p, ConnectTimeout) || c.state == stateClosed {
		c.Abort()
		return ErrTimeout
	}
	return nil
}

// kick wakes the connection; multiple kicks coalesce.
func (c *Conn) kick() {
	if !c.kicked {
		c.kicked = true
		c.q.Send(nil)
	}
}

// Send appends data to the send buffer, blocking while the buffer is full.
// The chain is consumed.
func (c *Conn) Send(p *sim.Proc, data *mbuf.Chain) error {
	for c.state != stateClosed && c.sndBuf.Len() >= SndBufMax {
		c.sendCond.Wait(p)
	}
	if c.state == stateClosed || c.finQueued {
		return ErrClosed
	}
	c.sndBuf.AppendChain(data)
	c.kick()
	return nil
}

// Serve makes fn and eof the connection's reader, where a process looping
// on receive would be: fn gets each chunk of in-order stream data, a chain
// whose mbufs it must take (AppendChain) or free before it returns, since
// the segment the chain lives in recycles then; eof runs once the stream
// has ended and its data is read (the peer closed, or an abort). fn
// returning false stops the reader for good, as that process returning
// would. Both run as event callbacks and must not block. The reader starts
// at the current instant, where a spawned process would, with whatever data
// arrived before.
func (c *Conn) Serve(fn func(data *mbuf.Chain) bool, eof func()) {
	c.rcvQ.Notify(func() {
		for {
			ch, ok := c.rcvQ.TryRecv()
			if !ok {
				break
			}
			more := fn(ch.data)
			c.consumed(ch)
			if !more {
				return // busy for good: nothing schedules the reader again
			}
		}
		if c.rcvQ.Closed() {
			eof()
			return
		}
		c.rcvQ.Idle()
	})
	c.rcvQ.Wake()
}

// Close queues a FIN after any buffered data and returns immediately; the
// connection process finishes delivery and tears down when both directions
// close.
func (c *Conn) Close() {
	if c.state == stateClosed || c.finQueued {
		return
	}
	c.finQueued = true
	c.kick()
}

// Abort tears the connection down immediately (no FIN exchange).
func (c *Conn) Abort() {
	if c.state == stateClosed {
		return
	}
	c.teardown()
	c.kick() // let the connection observe the closed state and stop
}

func (c *Conn) teardown() {
	c.state = stateClosed
	c.rcvQ.Close()
	c.sendCond.Broadcast()
	// Wake any Dial blocked on the handshake; it re-checks the state.
	c.established.Set()
	if c.ownsPort {
		c.node.Unbind(netsim.ProtoTCP, c.localPort)
	}
	if c.listener != nil {
		delete(c.listener.conns, connKey{c.remote, c.remotePort})
	}
}

// Stages of step: where the connection picks up.
const (
	stepStart  = iota // its first event: the slow-timeout phase starts
	stepInput         // a segment or kick is handled; a fast retransmit may be leaving
	stepOutput        // output, the due slow timeouts, then the wait
	stepWait          // parked in the wait: an item woke it, else the slow timeout
	stepDone          // closed: nothing more happens
)

// step is the connection: it handles arriving segments, the 500 ms slow
// timeout, and output, as the process it replaces did in a loop, stopping
// where that process parked — in a segment's CPU charge (tx schedules step
// again), or in its wait for a segment with the next slow timeout as its
// deadline (a Send or the timer wakes it).
func (c *Conn) step() {
	for {
		switch c.stage {
		case stepStart:
			c.nextTick = c.env.Now() + Tick
			c.env.At(c.nextTick, c.tick)
			c.stage = stepOutput
		case stepInput:
			if !c.tx.Run() {
				return
			}
			if c.rtxOnSent {
				c.rtxOnSent = false
				c.rtxDeadline = c.env.Now() + c.curRTO()
			}
			if c.state == stateClosed {
				c.done()
				return
			}
			c.stage = stepOutput
		case stepOutput:
			if !c.output() {
				return
			}
			if c.state == stateClosed {
				c.done()
				return
			}
			if c.env.Now() >= c.nextTick {
				c.slowTimeout()
				continue
			}
			if !c.take() { // nothing queued: park
				c.stage = stepWait
				c.q.Idle()
				return
			}
		case stepWait:
			if !c.take() { // woken by the timer
				c.slowTimeout()
				c.stage = stepOutput
			}
		default: // stepDone
			return
		}
	}
}

// take handles the next queued segment or kick, reporting false if none is
// queued.
func (c *Conn) take() bool {
	dg, ok := c.q.TryRecv()
	if !ok {
		return false
	}
	if dg == nil {
		c.kicked = false
	} else {
		c.input(dg)
	}
	c.stage = stepInput
	return true
}

// done stops the connection for good. Its queue stays busy, so nothing
// schedules it again.
func (c *Conn) done() {
	c.stage = stepDone
	c.rcvQ.Close()
}

// slowTimer is the slow timeout's event, due every Tick on the
// connection's own phase. A connection parked in its wait is woken as the
// wait's timeout would wake it; a busy one finds the timeout due when it
// next reaches its wait.
func (c *Conn) slowTimer() {
	if c.stage == stepDone {
		return
	}
	if c.stage == stepWait {
		c.q.Wake()
	}
	c.env.After(Tick, c.tick)
}

// sendSeg puts one segment in tx's hand, carrying n bytes of the send
// buffer from off; whoever called it runs tx. The datagram and its header
// are recycled ones, and the payload views go in the datagram's own chain.
func (c *Conn) sendSeg(m seg, off, n int) {
	m.Win = RcvWindow
	c.Stats.SegsOut++
	c.Stats.BytesOut += n
	dg := c.stack.newSeg(m, c.remote, c.localPort, c.remotePort)
	if n > 0 {
		c.sndBuf.AppendRange(dg.Own(), off, n)
	}
	c.tx.Start(dg)
}

// armTimer starts the retransmit timer if it is not running.
func (c *Conn) armTimer(now sim.Time) {
	if c.rtxDeadline == 0 {
		c.rtxDeadline = now + c.curRTO()
	}
}

// curRTO is A + 4D (3 s before any sample, per BSD) backed off, then
// clamped to [MinRTO, MaxRTO].
func (c *Conn) curRTO() sim.Time {
	return min(max(c.est.RTO(3*time.Second)*sim.Time(c.backoff), MinRTO), MaxRTO)
}

// flight returns the number of unacknowledged bytes in transit.
func (c *Conn) flight() int { return int(c.sndNxt - c.sndUna) }

// Stages of output: where it picks up.
const (
	outStart  = iota // take the state and the send window
	outData          // new data within the window, a segment at a time
	outFin           // a queued FIN once all data is out
	outAck           // a pure ACK if one is still owed
	outFinish        // close if both directions have
	outEnd           // return
)

// output transmits whatever the connection state allows: handshake
// segments, new data within the send window, a queued FIN, or a pure ACK.
// It reports false where a process would park in a segment's CPU charges,
// and goes on from there when step calls it again. What a segment's
// sending changes is the connection's own state, nothing another process
// reads, so it changes as the segment is put in hand; what output reads
// from outside (a FIN that Close queued meanwhile) it reads after.
func (c *Conn) output() bool {
	for c.tx.Run() {
		switch c.out {
		case outStart:
			c.outNow = c.env.Now()
			c.out = outEnd
			switch c.state {
			case stateSynSent:
				if !c.synSent {
					c.synSent = true
					c.sendSeg(seg{SYN: true, Seq: c.iss}, 0, 0)
					c.armTimer(c.outNow)
				}
			case stateSynRcvd:
				if !c.synSent {
					c.synSent = true
					c.sendSeg(seg{SYN: true, ACK: true, Seq: c.iss, Ack: c.rcvNxt}, 0, 0)
					c.armTimer(c.outNow)
				}
				c.needAck = false // SYN|ACK carries it
			case stateClosed:
			default:
				// Established (or closing): send data within min(cwnd, rwnd).
				c.wnd = min(c.cwnd, c.rwnd)
				c.dataEnd = c.sndUna + uint64(c.sndBuf.Len())
				c.out = outData
			}
		case outData:
			if !c.sendData() {
				c.out = outFin
			}
		case outFin:
			c.out = outAck
			if c.finQueued && !c.finSent && c.sndNxt == c.dataEnd && c.sndNxt < c.sndUna+uint64(c.wnd)+1 {
				c.sendSeg(seg{ACK: true, FIN: true, Seq: c.sndNxt, Ack: c.rcvNxt}, 0, 0)
				c.finSent = true
				c.sndNxt++ // FIN consumes a sequence number
				if c.sndNxt > c.sndMax {
					c.sndMax = c.sndNxt
				}
				c.needAck = false
				c.armTimer(c.outNow)
			}
		case outAck:
			c.out = outFinish
			if c.needAck {
				c.sendSeg(seg{ACK: true, Seq: c.sndNxt, Ack: c.rcvNxt}, 0, 0)
				c.needAck = false
				c.delayAck = false
			}
		case outFinish:
			c.maybeFinish()
			c.out = outStart
			return true
		default: // outEnd
			c.out = outStart
			return true
		}
	}
	return false
}

// sendData puts the next segment of new data in tx's hand, reporting false
// if the window or the data is used up.
func (c *Conn) sendData() bool {
	limit := c.sndUna + uint64(c.wnd)
	if c.sndNxt >= c.dataEnd || c.sndNxt >= limit {
		return false
	}
	n := min(int(c.dataEnd-c.sndNxt), c.mss, int(limit-c.sndNxt))
	if n <= 0 {
		return false
	}
	off := int(c.sndNxt - c.sndUna)
	c.sendSeg(seg{ACK: true, Seq: c.sndNxt, Ack: c.rcvNxt}, off, n)
	c.needAck = false
	c.delayAck = false // the piggybacked ack covers delayed data
	if !c.timing {
		c.timing = true
		c.timedSeq = c.sndNxt
		c.timedAt = c.outNow
	}
	c.sndNxt += uint64(n)
	if c.sndNxt > c.sndMax {
		c.sndMax = c.sndNxt
	}
	c.armTimer(c.outNow)
	return true
}

// maybeFinish closes the connection once both directions have closed.
func (c *Conn) maybeFinish() {
	if c.finSent && c.finAcked && c.finRcvd && c.state != stateClosed {
		c.teardown()
	}
}

// slowTimeout is the 500 ms slow timeout: it flushes a pending delayed ACK
// and checks the retransmit timer. The next one is due a Tick later.
func (c *Conn) slowTimeout() {
	c.nextTick += Tick
	if c.delayAck {
		c.delayAck = false
		c.needAck = true
	}
	if c.rtxDeadline == 0 || c.env.Now() < c.rtxDeadline {
		return
	}
	// Retransmit timeout: Karn's rule, multiplicative backoff, collapse
	// the window and go back to snd_una.
	c.Stats.Timeouts++
	c.Stats.Retransmits++
	c.timing = false
	if c.backoff < 64 {
		c.backoff *= 2
	}
	half := c.flight() / 2
	if half < 2*c.mss {
		half = 2 * c.mss
	}
	c.ssthresh = half
	c.cwnd = c.mss
	c.inRecov = false
	c.dupAcks = 0
	switch c.state {
	case stateSynSent, stateSynRcvd:
		c.synSent = false // resend SYN / SYN|ACK
	default:
		c.sndNxt = c.sndUna
		if c.finSent {
			c.finSent = false
		}
	}
	c.rtxDeadline = 0
	// output() will retransmit and re-arm with the backed-off RTO.
}

// RTO returns the current retransmit timeout (A + 4D, clamped).
func (c *Conn) RTO() sim.Time { return c.curRTO() }

// processAck handles the acknowledgment field of an arriving segment.
func (c *Conn) processAck(m *seg, payloadLen int) {
	c.rwnd = m.Win
	ack := m.Ack
	if ack > c.sndMax {
		return // acks data we never sent; ignore
	}
	if ack > c.sndUna {
		if ack > c.sndNxt {
			// An ACK from before an RTO rollback: the data it covers needs
			// no retransmission.
			c.sndNxt = ack
		}
		// New data acknowledged.
		if c.timing && ack > c.timedSeq {
			c.est.Sample(c.env.Now() - c.timedAt)
			c.timing = false
		}
		acked := int(ack - c.sndUna)
		dataAcked := acked
		if dataAcked > c.sndBuf.Len() {
			// The ack extends past the data: it covers the FIN.
			dataAcked = c.sndBuf.Len()
			c.finSent = true
			c.finAcked = true
		}
		if dataAcked > 0 {
			c.sndBuf.TrimFront(dataAcked)
		}
		c.sndUna = ack
		c.backoff = 1
		c.dupAcks = 0
		if c.inRecov {
			c.cwnd = c.ssthresh
			c.inRecov = false
		} else if c.cwnd < c.ssthresh {
			c.cwnd += c.mss // slow start: exponential growth
		} else {
			c.cwnd += c.mss * c.mss / c.cwnd // congestion avoidance
			if c.cwnd > 1<<20 {
				c.cwnd = 1 << 20
			}
		}
		if c.sndUna == c.sndNxt {
			c.rtxDeadline = 0
		} else {
			c.rtxDeadline = c.env.Now() + c.curRTO()
		}
		c.sendCond.Broadcast()
		c.maybeFinish()
		return
	}
	if ack == c.sndUna && payloadLen == 0 && c.flight() > 0 && !m.SYN && !m.FIN {
		// Duplicate ACK.
		c.dupAcks++
		if c.dupAcks == 3 {
			// Fast retransmit + (simplified Reno) fast recovery.
			c.Stats.FastRetransmits++
			c.Stats.Retransmits++
			half := c.flight() / 2
			if half < 2*c.mss {
				half = 2 * c.mss
			}
			c.ssthresh = half
			n := c.mss
			if avail := c.sndBuf.Len(); avail < n {
				n = avail
			}
			if n > 0 {
				c.sendSeg(seg{ACK: true, Seq: c.sndUna, Ack: c.rcvNxt}, 0, n)
			}
			c.timing = false
			c.cwnd = c.ssthresh + 3*c.mss
			c.inRecov = true
			c.rtxOnSent = true // the timer restarts once the segment is out
		} else if c.dupAcks > 3 && c.inRecov {
			c.cwnd += c.mss
		}
	}
}

// input handles one arriving segment and releases it, unless its own chain
// went to the reader, which then does. A fast retransmit it starts is left
// in tx's hand for step to send: nothing input does after it depends on it.
func (c *Conn) input(dg *netsim.Datagram) {
	if !c.handle(dg) {
		release(dg)
	}
}

// handle is input's work; it reports whether the segment's chain was handed
// on in a chunk.
func (c *Conn) handle(dg *netsim.Datagram) (handed bool) {
	m, ok := dg.Meta.(*seg)
	if !ok {
		return false
	}
	c.Stats.SegsIn++
	payloadLen := dg.Len()
	c.Stats.BytesIn += payloadLen

	if m.RST {
		// Connection reset by peer: tear down immediately. Stale RSTs
		// cannot hit a later incarnation — every active connection binds a
		// fresh ephemeral port.
		c.teardown()
		return
	}

	if m.SYN {
		switch c.state {
		case stateSynSent:
			if m.ACK && m.Ack == c.iss+1 {
				c.irs = m.Seq
				c.rcvNxt = m.Seq + 1
				c.processAck(m, 0)
				c.state = stateEstab
				c.rtxDeadline = 0
				c.needAck = true
				c.established.Set()
			}
			return
		default:
			// Duplicate SYN (lost SYN|ACK): re-ack it.
			c.needAck = true
			if c.state == stateSynRcvd {
				c.synSent = false
			}
			return
		}
	}

	if m.ACK {
		if c.state == stateSynRcvd && m.Ack == c.iss+1 {
			c.state = stateEstab
			c.rtxDeadline = 0
			c.established.Set()
			if c.listener != nil {
				c.listener.acceptQ.Send(c)
			}
		}
		c.processAck(m, payloadLen)
	}

	if c.state != stateEstab {
		return
	}

	// Data and FIN processing.
	if payloadLen > 0 {
		// Delayed ACK (4.3BSD behaviour): acknowledge every second data
		// segment immediately; a lone segment waits for a piggyback or
		// the slow timeout. Out-of-order data is acked at once so dup
		// acks still drive fast retransmit.
		if c.delayAck || m.Seq != c.rcvNxt {
			c.needAck = true
			c.delayAck = false
		} else {
			c.delayAck = true
		}
		seqEnd := m.Seq + uint64(payloadLen)
		switch {
		case seqEnd <= c.rcvNxt:
			// Entire segment is old: pure duplicate, ack it now.
			c.needAck = true
			c.delayAck = false
		case m.Seq > c.rcvNxt:
			if _, dup := c.ooo[m.Seq]; !dup && len(c.ooo) < 64 {
				ch := payload(dg, 0)
				c.ooo[m.Seq] = ch
				handed = ch.dg != nil
			}
		default:
			// In order (possibly with an old prefix).
			ch := payload(dg, int(c.rcvNxt-m.Seq))
			handed = ch.dg != nil
			c.rcvNxt += uint64(ch.data.Len())
			c.rcvQ.Send(ch)
			// Drain contiguous out-of-order segments.
			for {
				nc, ok := c.ooo[c.rcvNxt]
				if !ok {
					break
				}
				delete(c.ooo, c.rcvNxt)
				c.rcvNxt += uint64(nc.data.Len())
				c.rcvQ.Send(nc)
			}
		}
	}
	if m.FIN {
		finSeq := m.Seq + uint64(payloadLen)
		if finSeq == c.rcvNxt && !c.finRcvd {
			// The FIN is acknowledged before the connection closes, as
			// 4.3BSD acknowledges it on the way into TIME_WAIT: output's
			// maybeFinish closes it once the ACK is sent. Closing here
			// would leave the peer retransmitting its FIN to an unbound
			// port for as long as the run lasts.
			c.rcvNxt++
			c.finRcvd = true
			c.rcvQ.Close()
			c.needAck = true
		} else if finSeq < c.rcvNxt {
			c.needAck = true // duplicate FIN
		}
	}
	return handed
}

// chunk is in-order data on its way to the reader, and the segment whose
// own chain it is, released once the reader has taken the data (nil for a
// view, which holds its storage itself).
type chunk struct {
	data *mbuf.Chain
	dg   *netsim.Datagram
}

// payload returns dg's data from byte off on, for the reader, without a
// copy: the segment's own chain, or a view of it when off cuts into it or a
// fault may deliver the same chain again.
func payload(dg *netsim.Datagram, off int) chunk {
	if off == 0 && !dg.Duplicated {
		return chunk{dg.Payload, dg}
	}
	return chunk{data: dg.Payload.Range(off, dg.Len()-off)}
}

// consumed releases the segment a chunk the reader has taken came in.
func (c *Conn) consumed(ch chunk) {
	if ch.dg != nil {
		release(ch.dg)
	}
}
