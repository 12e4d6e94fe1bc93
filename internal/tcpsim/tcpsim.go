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
	st.listeners[port] = l
	st.env.Spawn(fmt.Sprintf("%s.tcp%d.listen", st.node.Name, port), l.run)
	return l
}

// Accept blocks until a connection completes its handshake.
func (l *Listener) Accept(p *sim.Proc) (*Conn, bool) {
	return l.acceptQ.Recv(p)
}

// run demultiplexes arriving segments to per-connection queues, creating
// connections for new SYNs.
func (l *Listener) run(p *sim.Proc) {
	for {
		dg, ok := l.q.Recv(p)
		if !ok {
			return
		}
		m, ok := dg.Meta.(*seg)
		if !ok {
			continue
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
					l.stack.node.SendDatagram(p, &netsim.Datagram{
						Src: l.stack.node.ID, Dst: dg.Src, Proto: netsim.ProtoTCP,
						SrcPort: l.port, DstPort: dg.SrcPort,
						HeaderBytes: 20,
						Meta:        &seg{RST: true, ACK: true, Seq: m.Ack, Ack: m.Seq + uint64(dg.Len())},
					})
				}
				continue
			}
			c = newConn(l.stack, l.port, dg.Src, dg.SrcPort)
			c.listener = l
			c.state = stateSynRcvd
			c.irs = m.Seq
			c.rcvNxt = m.Seq + 1
			c.rwnd = m.Win
			c.needAck = true
			l.conns[key] = c
			l.stack.env.Spawn(c.name, c.run)
		}
		c.q.Send(dg)
	}
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
	name       string
	localPort  int
	remote     netsim.NodeID
	remotePort int
	listener   *Listener // non-nil on passive conns
	ownsPort   bool      // active conns bind their ephemeral port

	q           *sim.Queue[*netsim.Datagram]
	kicked      bool
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
	// NoSlowStart disables slow start (for the §4 ablation of what the
	// paper removed from its UDP congestion window).
	NoSlowStart bool

	// RTT estimation (A = srtt, D = rttvar).
	srtt, rttvar sim.Time
	rto          sim.Time
	backoff      int
	timing       bool
	timedSeq     uint64
	timedAt      sim.Time
	rtxDeadline  sim.Time // zero when unarmed

	// Receive state.
	irs      uint64
	rcvNxt   uint64
	ooo      map[uint64][]byte
	rcvQ     *sim.Queue[[]byte]
	finRcvd  bool
	needAck  bool
	delayAck bool // a data segment awaits acknowledgment (delayed-ACK)

	Stats ConnStats
}

func newConn(st *Stack, localPort int, remote netsim.NodeID, remotePort int) *Conn {
	mtu := st.node.PathMTUTo(remote)
	c := &Conn{
		stack:       st,
		node:        st.node,
		env:         st.env,
		name:        fmt.Sprintf("%s.tcp:%d-%d:%d", st.node.Name, localPort, remote, remotePort),
		localPort:   localPort,
		remote:      remote,
		remotePort:  remotePort,
		q:           sim.NewQueue[*netsim.Datagram](st.env, "connq"),
		established: sim.NewEvent(st.env),
		mss:         mtu - 34 - 20, // framing/IP + TCP headers
		iss:         uint64(st.env.Rand().Intn(1 << 20)),
		rto:         3 * time.Second, // pre-sample default, per BSD
		backoff:     1,
		rwnd:        RcvWindow,
		ooo:         make(map[uint64][]byte),
		rcvQ:        sim.NewQueue[[]byte](st.env, "rcvq"),
		sendCond:    sim.NewCond(st.env),
		sndBuf:      &mbuf.Chain{},
	}
	c.cwnd = c.mss
	c.ssthresh = 64 * 1024
	c.sndUna = c.iss + 1
	c.sndNxt = c.iss + 1
	c.sndMax = c.iss + 1
	c.rcvNxt = 0
	return c
}

// Dial opens a connection to (remote, rport), blocking until the handshake
// completes or times out.
func (st *Stack) Dial(p *sim.Proc, remote netsim.NodeID, rport int) (*Conn, error) {
	port := st.nextPort
	st.nextPort++
	c := newConn(st, port, remote, rport)
	c.ownsPort = true
	c.state = stateSynSent
	// The connection's own queue is the bound port queue, so segments and
	// kicks share one channel.
	c.q = st.node.Bind(netsim.ProtoTCP, port)
	st.env.Spawn(c.name, c.run)
	c.kick()
	if !c.established.WaitTimeout(p, ConnectTimeout) || c.state == stateClosed {
		c.Abort()
		return nil, ErrTimeout
	}
	return c, nil
}

// MSS returns the negotiated (path-MTU derived) maximum segment size.
func (c *Conn) MSS() int { return c.mss }

// kick wakes the connection process; multiple kicks coalesce.
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

// Recv returns the next chunk of in-order stream data; ok is false at EOF
// (peer closed) or after Abort.
func (c *Conn) Recv(p *sim.Proc) ([]byte, bool) {
	return c.rcvQ.Recv(p)
}

// RecvTimeout is Recv with a deadline.
func (c *Conn) RecvTimeout(p *sim.Proc, d sim.Time) ([]byte, bool) {
	return c.rcvQ.RecvTimeout(p, d)
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
	c.kick() // let the conn process observe the closed state and exit
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

// run is the connection process: it handles arriving segments, the 500 ms
// slow timeout, and output.
func (c *Conn) run(p *sim.Proc) {
	nextTick := p.Now() + Tick
	for c.state != stateClosed {
		c.output(p)
		if c.state == stateClosed {
			break
		}
		wait := nextTick - p.Now()
		if wait <= 0 {
			c.tick(p)
			nextTick += Tick
			continue
		}
		dg, ok := c.q.RecvTimeout(p, wait)
		if !ok {
			c.tick(p)
			nextTick = p.Now() + Tick
			continue
		}
		if dg == nil {
			c.kicked = false
			continue
		}
		c.input(p, dg)
	}
	// Drain any leftover kick so the queue does not wake a dead process.
	c.rcvQ.Close()
}

// sendSeg transmits one segment.
func (c *Conn) sendSeg(p *sim.Proc, m *seg, payload *mbuf.Chain) {
	m.Win = RcvWindow
	n := 0
	if payload != nil {
		n = payload.Len()
	}
	c.Stats.SegsOut++
	c.Stats.BytesOut += n
	c.node.SendDatagram(p, &netsim.Datagram{
		Src: c.node.ID, Dst: c.remote, Proto: netsim.ProtoTCP,
		SrcPort: c.localPort, DstPort: c.remotePort,
		HeaderBytes: 20, Payload: payload, Meta: m,
	})
}

// armTimer starts the retransmit timer if it is not running.
func (c *Conn) armTimer(now sim.Time) {
	if c.rtxDeadline == 0 {
		c.rtxDeadline = now + c.curRTO()
	}
}

func (c *Conn) curRTO() sim.Time {
	r := c.rto * sim.Time(c.backoff)
	if r < MinRTO {
		r = MinRTO
	}
	if r > MaxRTO {
		r = MaxRTO
	}
	return r
}

// flight returns the number of unacknowledged bytes in transit.
func (c *Conn) flight() int { return int(c.sndNxt - c.sndUna) }

// output transmits whatever the connection state allows: handshake
// segments, new data within the send window, a queued FIN, or a pure ACK.
func (c *Conn) output(p *sim.Proc) {
	now := p.Now()
	switch c.state {
	case stateSynSent:
		if !c.synSent {
			c.synSent = true
			c.sendSeg(p, &seg{SYN: true, Seq: c.iss}, nil)
			c.armTimer(now)
		}
		return
	case stateSynRcvd:
		if !c.synSent {
			c.synSent = true
			c.sendSeg(p, &seg{SYN: true, ACK: true, Seq: c.iss, Ack: c.rcvNxt}, nil)
			c.armTimer(now)
		}
		if c.needAck {
			c.needAck = false // SYN|ACK carried it
		}
		return
	case stateClosed:
		return
	}
	// Established (or closing): send data within min(cwnd, rwnd).
	wnd := c.cwnd
	if c.rwnd < wnd {
		wnd = c.rwnd
	}
	dataEnd := c.sndUna + uint64(c.sndBuf.Len())
	for {
		limit := c.sndUna + uint64(wnd)
		if c.sndNxt >= dataEnd || c.sndNxt >= limit {
			break
		}
		n := int(dataEnd - c.sndNxt)
		if n > c.mss {
			n = c.mss
		}
		if room := int(limit - c.sndNxt); n > room {
			n = room
		}
		if n <= 0 {
			break
		}
		off := int(c.sndNxt - c.sndUna)
		payload := c.sndBuf.Range(off, n)
		c.sendSeg(p, &seg{ACK: true, Seq: c.sndNxt, Ack: c.rcvNxt}, payload)
		c.needAck = false
		c.delayAck = false // the piggybacked ack covers delayed data
		if !c.timing {
			c.timing = true
			c.timedSeq = c.sndNxt
			c.timedAt = now
		}
		c.sndNxt += uint64(n)
		if c.sndNxt > c.sndMax {
			c.sndMax = c.sndNxt
		}
		c.armTimer(now)
	}
	// FIN once all data is out.
	if c.finQueued && !c.finSent && c.sndNxt == dataEnd && c.sndNxt < c.sndUna+uint64(wnd)+1 {
		c.sendSeg(p, &seg{ACK: true, FIN: true, Seq: c.sndNxt, Ack: c.rcvNxt}, nil)
		c.finSent = true
		c.sndNxt++ // FIN consumes a sequence number
		if c.sndNxt > c.sndMax {
			c.sndMax = c.sndNxt
		}
		c.needAck = false
		c.armTimer(now)
	}
	if c.needAck {
		c.sendSeg(p, &seg{ACK: true, Seq: c.sndNxt, Ack: c.rcvNxt}, nil)
		c.needAck = false
		c.delayAck = false
	}
	c.maybeFinish()
}

// maybeFinish closes the connection once both directions have closed.
func (c *Conn) maybeFinish() {
	if c.finSent && c.finAcked && c.finRcvd && c.state != stateClosed {
		c.teardown()
	}
}

// tick is the 500 ms slow timeout: it flushes a pending delayed ACK and
// checks the retransmit timer.
func (c *Conn) tick(p *sim.Proc) {
	if c.delayAck {
		c.delayAck = false
		c.needAck = true
	}
	if c.rtxDeadline == 0 || p.Now() < c.rtxDeadline {
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
	if c.NoSlowStart {
		c.cwnd = c.ssthresh
	}
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

// updateRTT folds one round-trip sample into the Jacobson estimator.
func (c *Conn) updateRTT(sample sim.Time) {
	if c.srtt == 0 {
		c.srtt = sample
		c.rttvar = sample / 2
	} else {
		delta := sample - c.srtt
		c.srtt += delta / 8
		if delta < 0 {
			delta = -delta
		}
		c.rttvar += (delta - c.rttvar) / 4
	}
	c.rto = c.srtt + 4*c.rttvar
}

// RTO returns the current retransmit timeout (A + 4D, clamped).
func (c *Conn) RTO() sim.Time { return c.curRTO() }

// processAck handles the acknowledgment field of an arriving segment.
func (c *Conn) processAck(p *sim.Proc, m *seg, payloadLen int) {
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
			c.updateRTT(p.Now() - c.timedAt)
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
			c.sndBuf = c.sndBuf.Range(dataAcked, c.sndBuf.Len()-dataAcked)
		}
		c.sndUna = ack
		c.backoff = 1
		c.dupAcks = 0
		if c.inRecov {
			c.cwnd = c.ssthresh
			c.inRecov = false
		} else if c.cwnd < c.ssthresh && !c.NoSlowStart {
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
			c.rtxDeadline = p.Now() + c.curRTO()
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
				c.sendSeg(p, &seg{ACK: true, Seq: c.sndUna, Ack: c.rcvNxt},
					c.sndBuf.Range(0, n))
			}
			c.timing = false
			c.cwnd = c.ssthresh + 3*c.mss
			c.inRecov = true
			c.rtxDeadline = p.Now() + c.curRTO()
		} else if c.dupAcks > 3 && c.inRecov {
			c.cwnd += c.mss
		}
	}
}

// input handles one arriving segment.
func (c *Conn) input(p *sim.Proc, dg *netsim.Datagram) {
	m, ok := dg.Meta.(*seg)
	if !ok {
		return
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
				c.processAck(p, m, 0)
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
		c.processAck(p, m, payloadLen)
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
				c.ooo[m.Seq] = dg.Payload.Bytes()
			}
		default:
			// In order (possibly with an old prefix).
			b := dg.Payload.Bytes()
			b = b[int(c.rcvNxt-m.Seq):]
			c.rcvNxt += uint64(len(b))
			c.rcvQ.Send(b)
			// Drain contiguous out-of-order segments.
			for {
				nb, ok := c.ooo[c.rcvNxt]
				if !ok {
					break
				}
				delete(c.ooo, c.rcvNxt)
				c.rcvNxt += uint64(len(nb))
				c.rcvQ.Send(nb)
			}
		}
	}
	if m.FIN {
		finSeq := m.Seq + uint64(payloadLen)
		if finSeq == c.rcvNxt && !c.finRcvd {
			c.rcvNxt++
			c.finRcvd = true
			c.rcvQ.Close()
			c.needAck = true
			c.maybeFinish()
		} else if finSeq < c.rcvNxt {
			c.needAck = true // duplicate FIN
		}
	}
}
