package nfsnet

import (
	"net"
	"net/netip"

	"renonfs/internal/mbuf"
	"renonfs/internal/metrics"
	"renonfs/internal/server"
)

// Reply coalescing (DESIGN.md §3.4). A remount herd or retransmit storm
// delivers datagram bursts; answering each small reply with its own
// WriteToUDP pays one syscall per RPC — the per-packet overhead the paper's
// §3 profile complains about, relocated to the send side. Fast-path
// readers and nfsd workers instead stage small replies bound for their
// shard socket in a sendBatch and flush it with one sendmmsg on Linux
// (sendmmsg_linux.go; a loop of WriteToUDPAddrPort elsewhere) whenever the
// burst is drained, the batch fills, or the fast-path arena runs low.
// Nothing is held across an idle socket: a flush always happens before the
// owner blocks again, so coalescing adds microseconds of queueing inside a
// burst and zero latency outside one.
//
// Gather send. A generic reply is staged as its mbuf chain, not as bytes:
// the Linux writer lays the chain's segments out as consecutive iovecs and
// the kernel gathers them, so an 8 KB READ payload that memfs loaned into
// the chain is never copied in user space. The batch owns a staged chain
// and frees it after the send returns. Holding a loaned file block that
// long is safe because a loaned block is immutable — a later WRITE
// replaces the block (copy-on-write), it never modifies it.

// maxPeerCache bounds a peer-label interning table; past it the table is
// reset so a peer-churn storm cannot pin unbounded label memory.
const maxPeerCache = 16384

// peerCache interns the "udp:<addr>" tracing/dupcache label per source
// address — the hot path stops paying a formatting allocation per request.
// One per goroutine (reader or worker), so no locking.
type peerCache map[netip.AddrPort]string

func (pc *peerCache) get(addr netip.AddrPort) string {
	if s, ok := (*pc)[addr]; ok {
		return s
	}
	if *pc == nil || len(*pc) >= maxPeerCache {
		*pc = make(peerCache, 64)
	}
	s := "udp:" + addr.String()
	(*pc)[addr] = s
	return s
}

// batchMsg is one reply staged for a coalesced send: flat bytes in the
// arena (buf, fast path) or a reply chain the batch owns (chain, generic
// path) — exactly one of the two is set.
type batchMsg struct {
	buf   []byte
	chain *mbuf.Chain
	addr  netip.AddrPort
}

// sendBatch accumulates replies leaving on one socket. Readers carry one
// with an arena (fast-path replies are encoded straight into it); workers
// carry one without (generic replies are chains). The spans ride along so
// StageSend is stamped at the actual send.
type sendBatch struct {
	conn  *net.UDPConn
	msgs  []batchMsg
	spans []metrics.Span
	// arena backs fast-path reply encoding; off is the high-water mark of
	// the staged replies within it.
	arena []byte
	off   int
	// mm is reusable platform scratch for the sendmmsg writer; lin the
	// reusable buffer the portable writer linearizes a chain into.
	mm  mmsgState
	lin []byte
	// batches counts send syscalls issued; batched the replies sent through
	// the writer — batches/batched is the syscalls-per-reply ratio.
	batches, batched *metrics.Counter
	stages           *metrics.StageStats
}

func newSendBatch(conn *net.UDPConn, withArena bool, batches, batched *metrics.Counter, stages *metrics.StageStats) *sendBatch {
	b := &sendBatch{
		conn:    conn,
		msgs:    make([]batchMsg, 0, maxBatch),
		spans:   make([]metrics.Span, 0, maxBatch),
		batches: batches,
		batched: batched,
		stages:  stages,
	}
	if withArena {
		b.arena = make([]byte, maxBatch*4096) // 256 KB: scratch flushes when less than FastReplyMax is left
	}
	return b
}

// scratch returns a zero-length slice at the arena tail with at least
// FastReplyMax spare capacity, flushing staged replies first when the
// batch or the arena is full. Fast-path replies append into it without
// ever reallocating, so the arena slice handed to add aliases the arena.
func (b *sendBatch) scratch() []byte {
	if len(b.msgs) == cap(b.msgs) || len(b.arena)-b.off < server.FastReplyMax {
		b.flush()
	}
	return b.arena[b.off:b.off]
}

// add stages one fast-path reply and a copy of its span. buf must be the
// slice the service call returned: it extends the scratch region of the
// arena, and off advances past it.
func (b *sendBatch) add(buf []byte, addr netip.AddrPort, sp *metrics.Span) {
	b.off += len(buf)
	b.msgs = append(b.msgs, batchMsg{buf: buf, addr: addr})
	b.spans = append(b.spans, *sp)
}

// addChain stages one generic reply as its chain, and a copy of its span.
// The batch takes ownership: the chain is freed once the flush has sent it.
func (b *sendBatch) addChain(rep *mbuf.Chain, addr netip.AddrPort, sp *metrics.Span) {
	if len(b.msgs) == cap(b.msgs) {
		b.flush()
	}
	b.msgs = append(b.msgs, batchMsg{chain: rep, addr: addr})
	b.spans = append(b.spans, *sp)
}

// flush sends every staged reply, stamps and records their spans, and only
// then frees the staged chains — the kernel has copied the bytes out by the
// time the send syscall returns, not before.
func (b *sendBatch) flush() {
	if len(b.msgs) > 0 {
		sys := b.sendMulti()
		b.batches.Add(int64(sys))
		b.batched.Add(int64(len(b.msgs)))
		for i := range b.spans {
			b.spans[i].Stamp(metrics.StageSend)
			b.stages.Record(&b.spans[i])
		}
		for i := range b.msgs {
			if c := b.msgs[i].chain; c != nil {
				c.Free()
				b.msgs[i].chain = nil
			}
		}
		b.msgs = b.msgs[:0]
		b.spans = b.spans[:0]
	}
	b.off = 0
}

// sendLoop is the portable writer, and the mop-up for whatever a failed or
// partial sendmmsg left unsent: one syscall per reply, a chain linearized
// into the batch's reusable scratch first. Send errors are ignored, as they
// are for unbatched replies — UDP owes nobody delivery.
func (b *sendBatch) sendLoop(msgs []batchMsg) int {
	for i := range msgs {
		m := &msgs[i]
		buf := m.buf
		if m.chain != nil {
			n := m.chain.Len()
			if cap(b.lin) < n {
				b.lin = make([]byte, n)
			}
			buf = b.lin[:n]
			m.chain.CopyTo(buf)
		}
		b.conn.WriteToUDPAddrPort(buf, m.addr)
	}
	return len(msgs)
}

// sendmmsgLimit is a test hook: when positive, the raw sendmmsg writer
// stops after that many messages of a flush, the way a partial send would,
// so the rest take the sendLoop mop-up on a platform that never needs it.
var sendmmsgLimit int
