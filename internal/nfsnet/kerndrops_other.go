//go:build !linux || !(amd64 || arm64 || riscv64 || loong64 || arm)

package nfsnet

import "net"

// kernelDrops reports 0 where SO_MEMINFO is not wired up: the platform
// does not say what it dropped.
func kernelDrops(*net.UDPConn) int64 { return 0 }
