package netsim

import (
	"renonfs/internal/mbuf"
	"renonfs/internal/sim"
)

// UDPSocket is a bound UDP endpoint.
type UDPSocket struct {
	node *Node
	port int
	rq   *sim.Queue[*Datagram]
}

// UDPSocket binds a UDP port on the node.
func (n *Node) UDPSocket(port int) *UDPSocket {
	return &UDPSocket{node: n, port: port, rq: n.Bind(ProtoUDP, port)}
}

// Node returns the owning node.
func (s *UDPSocket) Node() *Node { return s.node }

// Port returns the bound port.
func (s *UDPSocket) Port() int { return s.port }

// Send transmits payload to (dst, dport). It runs in the calling process
// and consumes CPU time on the sending node. The payload's mbufs move into
// the datagram, leaving the chain empty for the caller to reuse.
func (s *UDPSocket) Send(p *sim.Proc, dst NodeID, dport int, payload *mbuf.Chain) {
	dg := s.node.NewDatagram()
	dg.Src, dg.Dst, dg.Proto = s.node.ID, dst, ProtoUDP
	dg.SrcPort, dg.DstPort = s.port, dport
	dg.Own().AppendChain(payload)
	dg.HeaderBytes = udpHeader
	s.node.SendDatagram(p, dg)
}

// Recv blocks until a datagram arrives.
func (s *UDPSocket) Recv(p *sim.Proc) (*Datagram, bool) {
	return s.rq.Recv(p)
}

// Queue exposes the receive queue for select-style servers.
func (s *UDPSocket) Queue() *sim.Queue[*Datagram] { return s.rq }

// Close unbinds the port.
func (s *UDPSocket) Close() {
	s.node.Unbind(ProtoUDP, s.port)
	s.rq.Close()
}
