//go:build linux

package nfsnet

import (
	"net"
	"net/netip"
	"runtime"
	"syscall"
	"unsafe"
)

// The non-blocking drain probe: recvmmsg(MSG_DONTWAIT) through a cached
// raw connection. The drain loop's contract is recvmmsg's — take the
// datagrams the kernel has already queued behind a wakeup, never wait for
// more — and a positive read deadline cannot express it: the read parks
// for the whole window when the queue is empty, holding any fast-path
// replies staged in the send batch (an expired deadline is no better: the
// runtime fails the read without issuing the syscall, so queued data is
// unreachable). The probe fills a small batch of datagrams per syscall and
// serves them one at a time, so a deep backlog costs one kernel crossing
// per recvBatch datagrams instead of one each, and a lone reply still
// flushes the instant the backlog is dry.

// sysRecvmmsg is the recvmmsg(2) syscall number per arch (the same frozen
// stdlib-table situation as sysSendmmsg). 0 degrades to the portable
// flush-then-deadline drain.
var sysRecvmmsg = map[string]uintptr{
	"amd64":   299,
	"arm64":   243, // generic syscall table (also riscv64, loong64)
	"riscv64": 243,
	"loong64": 243,
	"386":     337,
	"arm":     365,
}[runtime.GOARCH]

// recvBatch is how many datagrams one recvmmsg fill may return. Small on
// purpose: the buffers are sized for a worst-case datagram, so the batch
// is recvBatch*64K of reader-resident memory.
const recvBatch = 8

// recvProbe is one reader's reusable probe state. The raw connection,
// callback, buffers and header arrays are built once (SyscallConn and a
// fresh closure would each allocate per fill; the headers are rebuilt by
// the kernel's value-result fields, not reallocated). got/next window the
// current fill: bufs[next:got] hold datagrams already received but not yet
// served to the drain loop.
type recvProbe struct {
	rc    syscall.RawConn
	rcErr bool
	fn    func(fd uintptr) bool
	bufs  [][]byte
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	rsas  []syscall.RawSockaddrAny
	got   int
	next  int
	// fallback is the portable drain's buffer, allocated only when raw
	// access is unavailable.
	fallback []byte
}

// init readies the cached raw connection, buffers and callback. false
// means raw access is unavailable and the caller must use the portable
// drain.
func (p *recvProbe) init(conn *net.UDPConn) bool {
	if sysRecvmmsg == 0 {
		return false
	}
	if p.rc != nil {
		return true
	}
	if p.rcErr {
		return false
	}
	rc, err := conn.SyscallConn()
	if err != nil {
		p.rcErr = true
		return false
	}
	p.bufs = make([][]byte, recvBatch)
	p.hdrs = make([]mmsghdr, recvBatch)
	p.iovs = make([]syscall.Iovec, recvBatch)
	p.rsas = make([]syscall.RawSockaddrAny, recvBatch)
	for i := range p.bufs {
		p.bufs[i] = make([]byte, 65536)
		p.iovs[i].Base = &p.bufs[i][0]
		p.iovs[i].SetLen(len(p.bufs[i]))
		h := &p.hdrs[i].hdr
		h.Iov = &p.iovs[i]
		h.Iovlen = 1
		h.Name = (*byte)(unsafe.Pointer(&p.rsas[i]))
	}
	p.rc = rc
	p.fn = func(fd uintptr) bool {
		p.got, p.next = 0, 0
		for {
			// msg_namelen is value-result: the kernel overwrites it with
			// each sender's sockaddr size, so every fill must restore it.
			for i := range p.hdrs {
				p.hdrs[i].hdr.Namelen = uint32(unsafe.Sizeof(p.rsas[i]))
			}
			n, _, errno := syscall.Syscall6(sysRecvmmsg, fd,
				uintptr(unsafe.Pointer(&p.hdrs[0])), uintptr(len(p.hdrs)),
				syscall.MSG_DONTWAIT, 0, 0)
			if errno == syscall.EINTR {
				continue
			}
			// Always true: a probe never parks the goroutine. EAGAIN (empty
			// queue) and real errors both read as "no more queued here" —
			// the reader falls back to its blocking read, which surfaces any
			// persistent socket error the normal way.
			if errno != 0 {
				return true
			}
			p.got = int(n)
			return true
		}
	}
	return true
}

// getPort reads a network-byte-order port whatever the host endianness
// (putPort's inverse).
func getPort(src *uint16) uint16 {
	b := (*[2]byte)(unsafe.Pointer(src))
	return uint16(b[0])<<8 | uint16(b[1])
}

// sourceAt decodes the i-th probed datagram's sender. The kernel's bytes
// are mirrored exactly (no 4-in-6 unmapping) so the address matches what
// ReadFromUDPAddrPort reports for the same peer on the same socket — one
// peerCache key per peer, and a reply address the socket family accepts.
func (p *recvProbe) sourceAt(i int) netip.AddrPort {
	switch p.rsas[i].Addr.Family {
	case syscall.AF_INET:
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(&p.rsas[i]))
		return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), getPort(&sa.Port))
	case syscall.AF_INET6:
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(&p.rsas[i]))
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr), getPort(&sa.Port))
	}
	return netip.AddrPort{}
}

// pending is how many datagrams of the current fill are still unserved —
// calls known to be waiting behind the one the drain loop holds.
func (p *recvProbe) pending() int { return p.got - p.next }

// drainRead serves the next datagram the kernel already queued, without
// waiting: (packet, source, true), or ok=false the instant the queue is
// empty. The packet slice aliases a probe-owned buffer that stays intact
// until the current fill is exhausted — callers consume or copy it before
// the next empty-handed drainRead.
func drainRead(conn *net.UDPConn, p *recvProbe, b *sendBatch) ([]byte, netip.AddrPort, bool) {
	if !p.init(conn) {
		if p.fallback == nil {
			p.fallback = make([]byte, 65536)
		}
		n, addr, ok := drainReadDeadline(conn, b, p.fallback)
		if !ok {
			return nil, netip.AddrPort{}, false
		}
		return p.fallback[:n], addr, true
	}
	if p.next >= p.got {
		err := p.rc.Read(p.fn)
		runtime.KeepAlive(p)
		if err != nil || p.got == 0 {
			return nil, netip.AddrPort{}, false
		}
	}
	i := p.next
	p.next++
	return p.bufs[i][:p.hdrs[i].n], p.sourceAt(i), true
}
