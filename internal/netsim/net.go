// Package netsim models hosts, network interfaces, links and IP routers on
// top of the discrete-event kernel in internal/sim.
//
// A Node owns a CPU (a FIFO sim.Resource) and a calibrated CPUModel; every
// protocol action — driver work, copies, checksums, IP/UDP/TCP processing,
// forwarding — is charged to the CPU in virtual time under a named profile
// bucket, so experiments can report both utilization (Graph 6) and a §3
// style profile breakdown. Links have finite drop-tail queues, bandwidth,
// propagation delay, random loss and background cross-traffic, which is
// where the fragmentation-amplified loss driving §4's results comes from.
package netsim

import (
	"fmt"
	"slices"
	"sort"

	"renonfs/internal/ipfrag"
	"renonfs/internal/mbuf"
	"renonfs/internal/metrics"
	"renonfs/internal/sim"
)

// NodeID identifies a node within a Net.
type NodeID int

// Protocol numbers for datagram demultiplexing.
const (
	ProtoUDP = 17
	ProtoTCP = 6
)

// Wire overheads in bytes.
const (
	etherIPHeader = 34 // Ethernet framing + IP header per fragment
	udpHeader     = 8
	tcpHeader     = 20
)

// Datagram is a transport-layer datagram or segment in flight. Payload is
// never copied by the network: fragments carry views and the receiver gets
// the original chain when all fragments arrive.
type Datagram struct {
	Src, Dst         NodeID
	Proto            uint8
	SrcPort, DstPort int
	// HeaderBytes is the transport header size counted on the wire (and in
	// checksum cost) but not present in Payload.
	HeaderBytes int
	Payload     *mbuf.Chain
	// Meta carries transport-private state (the TCP segment header).
	Meta any
	ID   uint32
	// Corrupted marks a datagram damaged in flight by fault injection; the
	// receiving host's transport checksum drops it on reassembly.
	Corrupted bool
	// Duplicated marks a datagram a fault sent a frame of twice, set before
	// either copy arrives: the receiver may get the same Payload chain
	// again, so it must not recycle it.
	Duplicated bool
}

// Len returns the transport payload length in bytes.
func (dg *Datagram) Len() int {
	if dg.Payload == nil {
		return 0
	}
	return dg.Payload.Len()
}

// packet is one link-layer frame: a fragment of a datagram. Frames are
// values, queued and propagated by copy, so a frame allocates nothing.
type packet struct {
	dg   *Datagram
	frag ipfrag.Frag
}

// wireBytes is the frame size on the wire.
func (p packet) wireBytes() int {
	n := etherIPHeader + p.frag.Len
	if p.frag.Off == 0 {
		n += p.dg.HeaderBytes
	}
	return n
}

// NodeConfig describes a host or router.
type NodeConfig struct {
	Name string
	// MIPS sets the CPU speed; zero defaults to MIPSMicroVAXII.
	MIPS float64
	// Forward makes the node an IP router: packets not addressed to it are
	// forwarded rather than dropped.
	Forward bool
	// PageRemapTx enables the §3 optimization: cluster mbufs are mapped
	// into NIC buffers by page-table swaps instead of copied.
	PageRemapTx bool
	// NoTxInterrupts enables the §3 optimization that disables transmit
	// interrupts and does buffer release in the start routine.
	NoTxInterrupts bool
}

// NodeStats are cumulative per-node counters.
type NodeStats struct {
	PktsOut, PktsIn   int
	BytesOut, BytesIn int
	DgramsOut         int
	DgramsIn          int
	Forwarded         int
	NoPortDrops       int
	// ChecksumDrops counts reassembled datagrams rejected because fault
	// injection corrupted a fragment in flight (UDP and TCP checksums both
	// catch this; 4.3BSD-Reno ran with UDP checksums enabled).
	ChecksumDrops int
}

// Node is a simulated host or router.
type Node struct {
	ID    NodeID
	Name  string
	CPU   *sim.Resource
	Model CPUModel
	cfg   NodeConfig
	net   *Net

	ifaces    []*Link          // outgoing links
	peer      map[NodeID]*Link // outgoing link by neighbour
	routes    map[NodeID]*Link // outgoing link by final destination
	rxq       sim.FIFO[packet] // frames arrived and not yet taken by softnet
	rxBusy    bool             // softnet is scheduled or running
	rxStage   int              // where softnet picks up
	rxCharge  int              // the step of its CPU charge under way
	rxCur     packet           // the frame softnet has in hand
	softnetFn func()           // n.softnet, bound once
	reasm     *ipfrag.Reassembler
	ports     map[portKey]*sim.Queue[*Datagram]
	dgramID   uint32
	ephPort   int

	Stats   NodeStats
	profile []ProfileBucket // in first-charge order since the last reset
}

type portKey struct {
	proto uint8
	port  int
}

// Net is a collection of nodes and links sharing one simulation
// environment.
type Net struct {
	Env    *sim.Env
	nodes  []*Node
	tracer metrics.Tracer
}

// New returns an empty network bound to env.
func New(env *sim.Env) *Net { return &Net{Env: env} }

// Links returns every unidirectional link in the network, grouped by node
// creation order (each node's outgoing links in attachment order). The
// fault-injection layer uses this to install hooks.
func (nt *Net) Links() []*Link {
	var out []*Link
	for _, n := range nt.nodes {
		out = append(out, n.ifaces...)
	}
	return out
}

// Links returns the node's outgoing links in attachment order.
func (n *Node) Links() []*Link { return n.ifaces }

// AddNode creates a node.
func (nt *Net) AddNode(cfg NodeConfig) *Node {
	if cfg.MIPS == 0 {
		cfg.MIPS = MIPSMicroVAXII
	}
	n := &Node{
		ID:     NodeID(len(nt.nodes)),
		Name:   cfg.Name,
		CPU:    sim.NewResource(nt.Env, cfg.Name+".cpu", 1),
		Model:  DefaultModel(cfg.MIPS),
		cfg:    cfg,
		net:    nt,
		peer:   make(map[NodeID]*Link),
		routes: make(map[NodeID]*Link),
		reasm:  ipfrag.NewReassembler(15 * 1e9), // 15s, classic BSD value
		ports:  make(map[portKey]*sim.Queue[*Datagram]),
	}
	n.softnetFn = n.softnet
	nt.nodes = append(nt.nodes, n)
	return n
}

// Config returns the node's configuration.
func (n *Node) Config() NodeConfig { return n.cfg }

// Net returns the network the node belongs to.
func (n *Node) Net() *Net { return n.net }

// PathMTUTo returns the smallest MTU on the route to dst.
func (n *Node) PathMTUTo(dst NodeID) int { return n.net.PathMTU(n.ID, dst) }

// ChargeCPU charges d of CPU time under a profile bucket, blocking the
// calling process while the CPU is busy with earlier work.
func (n *Node) ChargeCPU(p *sim.Proc, bucket string, d sim.Time) {
	if d <= 0 {
		return
	}
	n.bucket(bucket).Time += d
	n.CPU.Use(p, d)
}

// bucket returns the profile row named name, adding it if the node has not
// charged it since the last reset. A node charges a handful of names, so a
// linear search costs less than hashing the name on every charge.
func (n *Node) bucket(name string) *ProfileBucket {
	for i := range n.profile {
		if n.profile[i].Name == name {
			return &n.profile[i]
		}
	}
	n.profile = append(n.profile, ProfileBucket{Name: name})
	return &n.profile[len(n.profile)-1]
}

// ProfileBucket is one row of a CPU profile report.
type ProfileBucket struct {
	Name string
	Time sim.Time
}

// Profile returns the accumulated CPU profile, largest bucket first — the
// simulator's version of the kernel profiling in §3.
func (n *Node) Profile() []ProfileBucket {
	out := slices.Clone(n.profile)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time > out[j].Time
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// ResetProfile clears profile buckets and restarts CPU utilization
// accounting (used to exclude warm-up from measurements).
func (n *Node) ResetProfile() {
	n.profile = n.profile[:0]
	n.CPU.ResetStats()
}

// Connect joins a and b with a bidirectional link (two unidirectional
// halves sharing one configuration).
func (nt *Net) Connect(a, b *Node, cfg LinkConfig) {
	ab := newLink(nt.Env, cfg, a, b)
	ba := newLink(nt.Env, cfg, b, a)
	a.ifaces = append(a.ifaces, ab)
	b.ifaces = append(b.ifaces, ba)
	a.peer[b.ID] = ab
	b.peer[a.ID] = ba
}

// ComputeRoutes fills every node's route table by BFS over the link graph
// (all links weigh 1, like the static routes of the era).
func (nt *Net) ComputeRoutes() {
	for _, src := range nt.nodes {
		// BFS from src.
		prev := make(map[NodeID]NodeID)
		visited := map[NodeID]bool{src.ID: true}
		queue := []NodeID{src.ID}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for nb := range nt.nodes[cur].peer {
				if !visited[nb] {
					visited[nb] = true
					prev[nb] = cur
					queue = append(queue, nb)
				}
			}
		}
		for _, dst := range nt.nodes {
			if dst.ID == src.ID || !visited[dst.ID] {
				continue
			}
			// Walk back from dst to find the first hop.
			hop := dst.ID
			for prev[hop] != src.ID {
				hop = prev[hop]
			}
			src.routes[dst.ID] = src.peer[hop]
		}
	}
}

// PathMTU returns the smallest MTU along the route from a to b, which TCP
// uses to size segments (the era's equivalent of knowing your interconnect).
func (nt *Net) PathMTU(a, b NodeID) int {
	mtu := 1 << 30
	cur := a
	for cur != b {
		lk := nt.nodes[cur].routes[b]
		if lk == nil {
			panic(fmt.Sprintf("netsim: no route %v -> %v", a, b))
		}
		if lk.cfg.MTU < mtu {
			mtu = lk.cfg.MTU
		}
		cur = lk.to.ID
	}
	return mtu
}

// nextDgramID returns a fresh datagram id for this node.
func (n *Node) nextDgramID() uint32 {
	n.dgramID++
	return n.dgramID
}

// Bind registers a receive queue for (proto, port) and returns it. Binding
// a taken port panics: port allocation is static in the experiments.
func (n *Node) Bind(proto uint8, port int) *sim.Queue[*Datagram] {
	k := portKey{proto, port}
	if _, dup := n.ports[k]; dup {
		panic(fmt.Sprintf("netsim: %s: port %d/%d already bound", n.Name, proto, port))
	}
	q := sim.NewQueue[*Datagram](n.net.Env, fmt.Sprintf("%s.port%d", n.Name, port))
	n.ports[k] = q
	return q
}

// Unbind releases a bound port.
func (n *Node) Unbind(proto uint8, port int) {
	delete(n.ports, portKey{proto, port})
}

// EphemeralPort hands out the next unused UDP port from the node's
// ephemeral range. The cursor is per-node state, so allocation is
// deterministic per simulation however many rigs share the process —
// unlike a package-global counter, which two concurrently-built
// environments would interleave nondeterministically.
const ephemeralBase = 49152

func (n *Node) EphemeralPort() int {
	if n.ephPort == 0 {
		n.ephPort = ephemeralBase
	}
	for {
		p := n.ephPort
		n.ephPort++
		if _, taken := n.ports[portKey{ProtoUDP, p}]; !taken {
			return p
		}
	}
}

// SendDatagram fragments and transmits dg toward its destination, charging
// the sending node's CPU for transport, IP, copy and driver work. It runs
// in the calling process.
func (n *Node) SendDatagram(p *sim.Proc, dg *Datagram) {
	s := n.startSend(dg)
	for {
		bucket, d, ok := n.sendNext(&s)
		if !ok {
			return
		}
		n.ChargeCPU(p, bucket, d)
	}
}

// Tx is SendDatagram for a sender that runs as event callbacks (tcpsim's
// connections and listeners), the way softnet is the receive path: the same
// CPU charges and frames, each charge stepped by charge, so that every
// event keeps the time and order the sending process would give it.
type Tx struct {
	n        *Node
	fn       func() // the sender's continuation
	s        sendState
	busy     bool // a datagram is in hand
	charging bool // bucket and d are the charge under way
	step     int  // the step of that charge
	bucket   string
	d        sim.Time
}

// NewTx returns an idle transmit path on the node whose charges resume the
// sender by scheduling fn.
func (n *Node) NewTx(fn func()) *Tx { return &Tx{n: n, fn: fn} }

// Start takes dg in hand: Run then sends it.
func (t *Tx) Start(dg *Datagram) {
	t.s, t.busy = t.n.startSend(dg), true
}

// Run sends the datagram in hand as far as it can. It reports true once it
// is sent (at once if none is in hand), and false where a process would
// park in a CPU charge: fn is then scheduled where the process would
// resume, and must call Run again.
func (t *Tx) Run() bool {
	for t.busy {
		if !t.charging {
			bucket, d, ok := t.n.sendNext(&t.s)
			if !ok {
				t.s, t.busy = sendState{}, false
				break
			}
			t.bucket, t.d, t.charging = bucket, d, true
		}
		if !t.n.charge(&t.step, t.fn, t.bucket, t.d) {
			return false
		}
		t.charging = false
	}
	return true
}

// sendState is one datagram on its way out: SendDatagram's and a Tx's.
type sendState struct {
	dg        *Datagram
	lk        *Link
	frag      ipfrag.Frag // the fragment in hand
	copyBytes int         // its NIC copy
	stage     int         // where sendNext picks up
}

// Send stages: the CPU charge sendNext returns next.
const (
	sendTransport = iota // UDP or TCP output
	sendChecksum         // the transport checksum over the payload
	sendIP               // per fragment from here on
	sendRemap            // page-remap TX: the clusters' page-table swaps
	sendCopy             // the NIC copy of what was not remapped
	sendDrv              // the driver's start routine
	sendIntr             // the transmit interrupt
	sendFrame            // no charge: the frame leaves
)

// startSend stamps dg with an id and routes it.
func (n *Node) startSend(dg *Datagram) sendState {
	if dg.ID == 0 {
		dg.ID = n.nextDgramID()
	}
	lk := n.routes[dg.Dst]
	if lk == nil {
		panic(fmt.Sprintf("netsim: %s: no route to node %d", n.Name, dg.Dst))
	}
	return sendState{dg: dg, lk: lk, frag: ipfrag.First(dg.Len(), lk.cfg.MTU-etherIPHeader)}
}

// sendNext does what comes before the send's next CPU charge and returns
// that charge; ok is false once the last frame has left. A NIC copy with
// page-remap TX copies only the bytes outside clusters, and each cluster
// pays a page-table swap instead.
func (n *Node) sendNext(s *sendState) (bucket string, d sim.Time, ok bool) {
	m := &n.Model
	for {
		switch s.stage {
		case sendTransport:
			s.stage = sendChecksum
			switch s.dg.Proto {
			case ProtoUDP:
				return "udp", m.Cost(m.UDPPkt), true
			case ProtoTCP:
				return "tcp", m.Cost(m.TCPPkt), true
			}
		case sendChecksum:
			s.stage = sendIP
			return "checksum", m.CostBytes(m.ChecksumPerByte, s.dg.Len()+s.dg.HeaderBytes), true
		case sendIP:
			s.stage = sendRemap
			return "ip", m.Cost(m.IPPkt), true
		case sendRemap:
			s.stage = sendCopy
			s.copyBytes = packet{s.dg, s.frag}.wireBytes()
			if n.cfg.PageRemapTx && s.dg.Payload != nil && s.frag.Len > 0 {
				// ClusterRange walks the fragment's extent in place — no view
				// chain materialized per packet.
				nclusters, clBytes := s.dg.Payload.ClusterRange(s.frag.Off, s.frag.Len)
				s.copyBytes -= int(float64(clBytes) * m.RemapCoverage)
				return "nic_remap", m.Cost(float64(nclusters) * m.PageRemap), true
			}
		case sendCopy:
			s.stage = sendDrv
			return "nic_copy", m.CostBytes(m.NICCopyPerByte, s.copyBytes), true
		case sendDrv:
			s.stage = sendIntr
			return "nic_drv", m.Cost(m.EtherTxPkt), true
		case sendIntr:
			s.stage = sendFrame
			if !n.cfg.NoTxInterrupts {
				return "tx_intr", m.Cost(m.TxInterrupt), true
			}
		default: // sendFrame
			pk := packet{s.dg, s.frag}
			n.Stats.PktsOut++
			n.Stats.BytesOut += pk.wireBytes()
			n.net.trace(n.net.Env.Now(), n.Name, TraceSend, pk)
			s.lk.enqueue(pk)
			if !s.frag.More {
				n.Stats.DgramsOut++
				return "", 0, false
			}
			s.frag = ipfrag.Next(s.frag, s.dg.Len(), s.lk.cfg.MTU-etherIPHeader)
			s.stage = sendIP
		}
	}
}

// receive hands the node a frame off a link. A frame that finds the receive
// path idle starts it at the current instant.
func (n *Node) receive(pk packet) {
	n.rxq.Push(pk)
	if !n.rxBusy {
		n.rxBusy = true
		n.net.Env.At(n.net.Env.Now(), n.softnetFn)
	}
}

// Receive-path stages: where softnet picks up.
const (
	rxNext      = iota // take the next frame
	rxForward          // charge forwarding, then route the frame on
	rxNIC              // charge the NIC's receive interrupt
	rxIP               // charge IP input, then reassemble
	rxTransport        // charge UDP or TCP input
	rxChecksum         // charge the checksum, then demultiplex
)

// softnet is the node's receive path: it drains arriving frames, charges
// receive-path CPU, forwards (routers) or reassembles and demultiplexes
// (hosts). Like a link's transmitter it is a chain of events, not a
// process: each CPU charge is charge's Use, and it returns where that would
// park a process, to run again where the process would resume.
func (n *Node) softnet() {
	m := &n.Model
	for {
		pk := n.rxCur
		switch n.rxStage {
		case rxNext:
			if n.rxq.Len() == 0 {
				n.rxBusy = false
				return
			}
			pk = n.rxq.Pop()
			n.rxCur = pk
			n.Stats.PktsIn++
			n.Stats.BytesIn += pk.wireBytes()
			switch {
			case pk.dg.Dst == n.ID:
				n.net.trace(n.net.Env.Now(), n.Name, TraceRecv, pk)
				n.rxStage = rxNIC
			case n.cfg.Forward:
				n.rxStage = rxForward
			} // else not for us and we are no router: drop
		case rxForward:
			if !n.charge(&n.rxCharge, n.softnetFn, "forward", m.Cost(m.ForwardPkt)) {
				return
			}
			n.forward(pk)
			n.rxStage = rxNext
		case rxNIC:
			if !n.charge(&n.rxCharge, n.softnetFn, "nic_drv", m.Cost(m.EtherRxPkt)) {
				return
			}
			n.rxStage = rxIP
		case rxIP:
			if !n.charge(&n.rxCharge, n.softnetFn, "ip", m.Cost(m.IPPkt)) {
				return
			}
			now := n.net.Env.Now()
			if n.reasm.Add(ipfrag.Key{Src: int(pk.dg.Src), ID: pk.dg.ID}, pk.frag, now) {
				n.rxStage = rxTransport // datagram complete
			} else {
				n.reasm.Expire(now)
				n.rxStage = rxNext
			}
		case rxTransport:
			switch pk.dg.Proto {
			case ProtoUDP:
				if !n.charge(&n.rxCharge, n.softnetFn, "udp", m.Cost(m.UDPPkt)) {
					return
				}
			case ProtoTCP:
				if !n.charge(&n.rxCharge, n.softnetFn, "tcp", m.Cost(m.TCPPkt)) {
					return
				}
			}
			n.rxStage = rxChecksum
		case rxChecksum:
			if !n.charge(&n.rxCharge, n.softnetFn, "checksum", m.CostBytes(m.ChecksumPerByte, pk.dg.Len()+pk.dg.HeaderBytes)) {
				return
			}
			n.rxStage = rxNext
			n.demux(pk.dg)
		}
	}
}

// forward sends a frame not addressed to this router on toward its
// destination, fragmenting it further if the next link's MTU is smaller.
func (n *Node) forward(pk packet) {
	lk := n.routes[pk.dg.Dst]
	if lk == nil {
		return
	}
	maxPayload := lk.cfg.MTU - etherIPHeader
	if pk.frag.Len > maxPayload {
		ipfrag.ForEach(pk.frag.Len, maxPayload, func(sub ipfrag.Frag) {
			n.Stats.PktsOut++
			spk := packet{dg: pk.dg, frag: ipfrag.Frag{
				Off:  pk.frag.Off + sub.Off,
				Len:  sub.Len,
				More: sub.More || pk.frag.More,
			}}
			n.Stats.BytesOut += spk.wireBytes()
			lk.enqueue(spk)
		})
	} else {
		n.Stats.PktsOut++
		n.Stats.BytesOut += pk.wireBytes()
		lk.enqueue(pk)
	}
	n.Stats.Forwarded++
	n.net.trace(n.net.Env.Now(), n.Name, TraceFwd, pk)
}

// demux hands a complete datagram to the socket bound to its port, unless
// fault injection corrupted it in flight: its checksum was computed, and
// paid for, before it failed.
func (n *Node) demux(dg *Datagram) {
	if dg.Corrupted {
		n.Stats.ChecksumDrops++
		return
	}
	q := n.ports[portKey{dg.Proto, dg.DstPort}]
	if q == nil {
		n.Stats.NoPortDrops++
		return
	}
	n.Stats.DgramsIn++
	q.Send(dg)
}

// charge is ChargeCPU for the event-driven paths (softnet, a Tx): Use's
// acquire, hold and release of the CPU as steps, the charge's step kept in
// *step. It reports true once the charge is done, and false where Use would
// park the process: waiting for the CPU, or holding it for d when the clock
// cannot advance in place. fn is then scheduled to run again where the
// process would resume, and calls charge again for the same charge.
func (n *Node) charge(step *int, fn func(), bucket string, d sim.Time) bool {
	switch *step {
	case chargeNone:
		if d <= 0 {
			return true
		}
		n.bucket(bucket).Time += d
		*step = chargeAcquire
		fallthrough
	case chargeAcquire:
		if !n.CPU.AcquireFunc(fn) {
			return false
		}
		*step = chargeHold
		if !sleep(n.net.Env, d, fn) {
			return false
		}
		fallthrough
	default: // chargeHold: the charge has run its time
		n.CPU.Release()
		*step = chargeNone
		return true
	}
}

// Steps of an event-driven charge.
const (
	chargeNone    = iota // no charge under way
	chargeAcquire        // waiting for the CPU
	chargeHold           // holding the CPU for the charge's time
)
