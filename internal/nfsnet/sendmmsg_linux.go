//go:build linux

package nfsnet

import (
	"net"
	"runtime"
	"syscall"
	"unsafe"
)

// The sendmmsg(2) batch writer: one syscall delivers a whole sendBatch.
// Linux has had it since 3.0; it is to sendto what the ingest path's
// batched drain is to recvfrom. Each message is a gather: a flat reply is
// one iovec, a reply chain one iovec per mbuf segment (msg_iovlen = segment
// count), so a loaned payload goes from the file block to the socket with
// no user-space copy. The headers, iovecs and raw sockaddrs are kept in
// reusable per-batch scratch (mmsgState) so a steady stream of flushes
// allocates nothing.

// mmsghdr mirrors struct mmsghdr: a msghdr plus the kernel's bytes-sent
// out-parameter. Go's alignment rules reproduce the C layout on every
// linux arch (msghdr carries pointer alignment; the trailing pad matches).
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
}

// mmsgState is the reusable scratch behind sendMulti. The raw connection
// and the write callback are built once and reused — SyscallConn and a
// fresh closure would each allocate per flush, and the flush path is pinned
// to zero steady-state allocations.
type mmsgState struct {
	hdrs []mmsghdr
	// iovs holds every message's iovecs back to back; segs is the scratch
	// a chain's segments are listed into on their way there.
	iovs []syscall.Iovec
	segs [][]byte
	sa4  []syscall.RawSockaddrInet4
	sa6  []syscall.RawSockaddrInet6

	rc    syscall.RawConn
	rcErr bool
	fn    func(fd uintptr) bool
	// want/sent/syscalls carry arguments and results across fn invocations.
	want, sent, syscalls int
}

// init readies the cached raw connection and callback. false means raw
// access is unavailable and the caller must use the portable loop.
func (st *mmsgState) init(conn *net.UDPConn) bool {
	if st.rc != nil {
		return true
	}
	if st.rcErr {
		return false
	}
	rc, err := conn.SyscallConn()
	if err != nil {
		st.rcErr = true
		return false
	}
	st.rc = rc
	st.fn = func(fd uintptr) bool {
		for st.sent < st.want {
			n, _, errno := syscall.Syscall6(sysSendmmsg, fd,
				uintptr(unsafe.Pointer(&st.hdrs[st.sent])), uintptr(st.want-st.sent), 0, 0, 0)
			st.syscalls++
			switch {
			case errno == syscall.EINTR:
				continue
			case errno == syscall.EAGAIN:
				return false // wait for the socket to drain, then retry
			case errno != 0:
				return true // give up on the batch; the caller's loop mops up
			default:
				st.sent += int(n)
			}
		}
		return true
	}
	return true
}

func (st *mmsgState) grow(n int) {
	if cap(st.hdrs) < n {
		st.hdrs = make([]mmsghdr, n)
		st.sa4 = make([]syscall.RawSockaddrInet4, n)
		st.sa6 = make([]syscall.RawSockaddrInet6, n)
	}
	st.hdrs = st.hdrs[:n]
	st.sa4 = st.sa4[:n]
	st.sa6 = st.sa6[:n]
}

// putPort stores p in network byte order whatever the host endianness.
func putPort(dst *uint16, p uint16) {
	*(*[2]byte)(unsafe.Pointer(dst)) = [2]byte{byte(p >> 8), byte(p)}
}

// addIov appends one iovec covering b.
func (st *mmsgState) addIov(b []byte) {
	iov := syscall.Iovec{Base: &b[0]}
	iov.SetLen(len(b))
	st.iovs = append(st.iovs, iov)
}

// setIovlen stores n in a msghdr's msg_iovlen, whose width is per-arch.
func setIovlen[T uint32 | uint64](dst *T, n int) { *dst = T(n) }

// sendMulti sends every staged reply and returns the number of send
// syscalls it took. A lone flat reply skips straight to the plain writer
// (one WriteToUDPAddrPort, the path meta_udp's unbatched fast replies have
// always taken); a lone chain still goes through the raw gather send.
// Failures degrade to the portable loop for whatever remains unsent.
func (b *sendBatch) sendMulti() int {
	msgs, st := b.msgs, &b.mm
	if (len(msgs) == 1 && msgs[0].chain == nil) || sysSendmmsg == 0 || !st.init(b.conn) {
		return b.sendLoop(msgs)
	}
	st.grow(len(msgs))
	st.iovs = st.iovs[:0]
	for i := range msgs {
		m := &msgs[i]
		h := &st.hdrs[i]
		*h = mmsghdr{}
		first := len(st.iovs)
		if m.chain != nil {
			st.segs = m.chain.AppendSegments(st.segs[:0])
			for _, seg := range st.segs {
				st.addIov(seg)
			}
		} else {
			st.addIov(m.buf)
		}
		setIovlen(&h.hdr.Iovlen, len(st.iovs)-first)
		if a := m.addr.Addr(); a.Is4() {
			sa := &st.sa4[i]
			sa.Family = syscall.AF_INET
			putPort(&sa.Port, m.addr.Port())
			sa.Addr = a.As4()
			h.hdr.Name = (*byte)(unsafe.Pointer(sa))
			h.hdr.Namelen = syscall.SizeofSockaddrInet4
		} else {
			sa := &st.sa6[i]
			sa.Family = syscall.AF_INET6
			putPort(&sa.Port, m.addr.Port())
			sa.Addr = a.As16()
			h.hdr.Name = (*byte)(unsafe.Pointer(sa))
			h.hdr.Namelen = syscall.SizeofSockaddrInet6
		}
	}
	// Point the headers at their iovec runs only now: iovs may have been
	// reallocated while it grew.
	first := 0
	for i := range st.hdrs {
		h := &st.hdrs[i].hdr
		if h.Iovlen > 0 {
			h.Iov = &st.iovs[first]
			first += int(h.Iovlen)
		}
	}
	st.want, st.sent, st.syscalls = len(msgs), 0, 0
	if sendmmsgLimit > 0 && st.want > sendmmsgLimit {
		st.want = sendmmsgLimit
	}
	werr := st.rc.Write(st.fn)
	runtime.KeepAlive(st)
	if st.sent < len(msgs) || werr != nil {
		st.syscalls += b.sendLoop(msgs[st.sent:])
	}
	return st.syscalls
}
