//go:build !linux

package nfsnet

import (
	"net"
	"net/netip"
)

// recvProbe carries only the drain buffer where there is no raw
// non-blocking receive.
type recvProbe struct {
	buf []byte
}

// pending is always 0: the portable drain reads one datagram at a time.
func (p *recvProbe) pending() int { return 0 }

// drainRead degrades to the portable flush-then-deadline drain off Linux.
func drainRead(conn *net.UDPConn, p *recvProbe, b *sendBatch) ([]byte, netip.AddrPort, bool) {
	if p.buf == nil {
		p.buf = make([]byte, 65536)
	}
	n, addr, ok := drainReadDeadline(conn, b, p.buf)
	if !ok {
		return nil, netip.AddrPort{}, false
	}
	return p.buf[:n], addr, true
}
