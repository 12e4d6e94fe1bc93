//go:build !linux

package nfsnet

// mmsgState is empty where there is no batch send syscall.
type mmsgState struct{}

// sendMulti degrades to one send syscall per reply off Linux.
func (b *sendBatch) sendMulti() int { return b.sendLoop(b.msgs) }
