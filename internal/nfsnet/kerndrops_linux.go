//go:build linux && (amd64 || arm64 || riscv64 || loong64 || arm)

package nfsnet

import (
	"net"
	"syscall"
	"unsafe"
)

// getsockopt(SOL_SOCKET, SO_MEMINFO) fills skMeminfoVars uint32s of socket
// memory accounting (linux/sock_diag.h); entry skMeminfoDrops is sk_drops,
// the datagrams the kernel discarded at this socket — above all those that
// found its receive queue full. The stdlib syscall package names neither.
// 386 has no direct getsockopt syscall and is left to the stub
// (kerndrops_other.go).
const (
	soMeminfo      = 55
	skMeminfoDrops = 8
	skMeminfoVars  = 9
)

// kernelDrops returns conn's sk_drops: datagrams that reached the socket
// but were dropped before any reader could take them. 0 when unreadable.
func kernelDrops(conn *net.UDPConn) int64 {
	rc, err := conn.SyscallConn()
	if err != nil {
		return 0
	}
	var mem [skMeminfoVars]uint32
	size := uint32(unsafe.Sizeof(mem))
	var errno syscall.Errno
	if rc.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_GETSOCKOPT, fd, syscall.SOL_SOCKET, soMeminfo,
			uintptr(unsafe.Pointer(&mem)), uintptr(unsafe.Pointer(&size)), 0)
	}) != nil || errno != 0 {
		return 0
	}
	return int64(mem[skMeminfoDrops])
}
