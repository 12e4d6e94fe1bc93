// Package nfsnet serves the same NFS server core — identical mbuf/XDR/RPC
// codec, dispatch, caches and duplicate-request cache — over real UDP and
// TCP sockets from the net package, and provides a small synchronous
// client. It demonstrates the transport-layer independence that §2 of the
// paper claims for the implementation: nothing in the protocol code knows
// whether its bytes ride a simulated internetwork or a real socket.
//
// Dispatch is run-to-completion when the server is idle and pooled when it
// is not (DESIGN.md §3.3/§3.4). A UDP reader serves the datagram it just
// read where it stands: header-only procedures (NULL, GETATTR, LOOKUP,
// small READDIRs, STATFS, the MOUNT herd) through the shallow path,
// server.HandleCallFast, flat datagram in, reply encoded into a per-reader
// arena; everything else — READ, WRITE, the non-idempotent procedures, any
// shallow-path fallback — through the ordinary HandleCall, the request
// chain wrapping the read buffer itself (mbuf.Chain.Wrap: no ingest copy,
// sound because the call finishes before the next read). No goroutine is
// woken, no ring crossed, and such a call's span has no queue stage. TCP
// connections work the same way, one goroutine each: the socket is read
// into the record scanner's buffer and each record is served in order where
// the read put it, through the same two arms (fastEligible and serveFast
// are shared; only a record split across reads is moved, and a record is
// valid until the next read). Every dispatch holds the read side of a quiesce gate (what is left
// of the giant "kernel lock" of earlier revisions) concurrently with all
// others; Crash takes the write side to swap the volatile state with no
// call in flight.
//
// The pool of Opts.NFSDs workers behind the per-reader ingest rings is the
// overflow path, entered only on backlog the reader can see at no extra
// syscall: its ring already holds calls (the pool is awake and behind), the
// recvmmsg fill it is serving holds more datagrams behind this one, or
// several readers share one socket (inline service there would hog the
// descriptor's read lock). A spilled datagram outlives the read buffer, so
// it is copied into pooled mbufs from a per-reader mbuf.Cache and queued,
// the way the BSD network interrupt handed mbuf chains to sleeping nfsds.
// Only a reader that owns its socket runs the drain that shows it a fill; a
// lone reader (Readers 1) takes plain blocking reads, sees no backlog and
// serves every call itself, pool or no pool (DESIGN.md §3.3 has what was
// measured of that, and what was not).
//
// Ingest is sharded (DESIGN.md §3.3): Opts.Readers reader goroutines. On
// Linux each owns its own SO_REUSEPORT socket bound to the one service
// port, so the kernel spreads flows across sockets, readers never contend
// on a descriptor, and each wakeup drains what the kernel has already
// queued (recvmmsg-style); elsewhere (or when reuseport binding fails) the
// readers share one socket and pipeline staging against its read lock.
//
// Replies coalesce in per-goroutine send batches, flushed before the owner
// blocks again, and generic replies are never linearized on the way out
// (DESIGN.md §3.4, "gather send"): the reply mbuf chain itself is handed to
// the socket — one iovec per segment through sendmsg/sendmmsg on UDP, one
// writev of [record mark, segments…] on TCP — and freed after the send
// returns. (A shallow reply is flat already: it leaves from the arena it
// was encoded into, on TCP behind its own record mark in one Write.) An 8 KB READ or WRITE served in place therefore moves no payload
// byte through mbufs in either direction: the block memfs loaned into a
// READ reply reaches the kernel uncopied, and WRITE's one copy is memfs's,
// from the read buffer into the file block.
package nfsnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"renonfs/internal/lockstat"
	"renonfs/internal/mbuf"
	"renonfs/internal/metrics"
	"renonfs/internal/nfsproto"
	"renonfs/internal/rpc"
	"renonfs/internal/server"
	"renonfs/internal/xdr"
)

// Server serves an NFS server core over real sockets.
type Server struct {
	srv *server.Server

	// readers are the sharded UDP ingest lanes; socks the distinct sockets
	// behind them (len(socks) == len(readers) under reuseport, 1 in the
	// shared-socket fallback). reuse records which strategy bound.
	readers []*udpReader
	socks   []*net.UDPConn
	reuse   bool

	tcp net.Listener

	// crashMu is the quiesce gate described in the package comment. It is
	// not a serializer: dispatches share the read side.
	crashMu sync.RWMutex

	closed    chan struct{}
	closeOnce sync.Once

	// Shutdown drains in order: readers, then the worker pool (so every
	// ring-resident request still gets its reply), then the acceptor, then
	// the per-connection servers.
	readerWG, workerWG, acceptWG, connWG sync.WaitGroup

	// Live TCP connections, so Close can kick their readers.
	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	// nfsd utilization: how many dispatchers are inside HandleCall right
	// now. The rpc.nfsd.busy gauge is published lazily by PublishStats —
	// the earlier per-dispatch gauge writes were two extra stores on one
	// shared cache line per RPC, a serialization point the mutex/stage
	// telemetry this package now carries exists to catch.
	busyCount atomic.Int64
	busy      *metrics.Gauge

	// stages aggregates every request's span into the rpc.stage.*
	// histograms and keeps the slowest spans for trace dumps.
	stages *metrics.StageStats

	// fastOff turns inline service off, shallow and generic alike (several
	// readers sharing one socket, see Serve). The counters: fastCalls
	// datagrams served on the shallow path, fastFallbacks datagrams
	// classified eligible but punted to the generic dispatch, sendBatches
	// send syscalls issued by the coalescing writers and sendMsgs replies
	// sent through them.
	fastOff                  bool
	fastCalls, fastFallbacks *metrics.Counter
	sendBatches, sendMsgs    *metrics.Counter
}

// crashSite attributes waits on the quiesce gate: nonzero numbers mean
// dispatch stalled behind a Crash (or the gate itself became a bottleneck).
var crashSite = lockstat.NewSite("nfsnet.crashgate")

// udpJob is one spilled datagram awaiting an nfsd: the request was copied
// into (pooled) mbufs, so the reader's socket buffer is immediately reusable.
type udpJob struct {
	addr netip.AddrPort
	req  *mbuf.Chain
	// t0 is the datagram's arrival (span begin); readNS how long the
	// socket-to-mbuf staging took (the span's read stage).
	t0     time.Time
	readNS int64
}

// udpReader is one ingest shard: a reader goroutine serving datagrams from
// conn inline or spilling them into ring, and the subset of nfsds that
// drain the ring (worker i serves ring i%len(readers)). Replies go back out
// on the shard's conn — under reuseport every socket is bound to the same
// local port, so the reply's source address is identical whichever socket
// sends it.
type udpReader struct {
	id   int
	conn *net.UDPConn
	ring chan udpJob
	// reads counts every datagram the reader pulled off its socket
	// (rpc.reader.<id>.reads). Each is consumed exactly one of three ways:
	// fast counts those served inline on the shallow path
	// (rpc.reader.<id>.fast), inline those served inline through the generic
	// dispatch (rpc.reader.<id>.inline), and the rest ride the ring to an
	// nfsd — so Σreads == Σnfsd calls + Σfast + Σinline is the drain
	// invariant. wakeups counts blocking-read returns that yielded at least
	// one datagram (rpc.reader.<id>.wakeups) — reads/wakeups is the mean
	// drain batch.
	reads, fast, inline, wakeups *metrics.Counter
}

// Reader deadlines. A reader that owns its socket re-arms a bounded
// blocking deadline each loop, so a Close kick can never be erased by a
// racing re-arm for longer than readerPoll; after a wakeup it drains the
// already-queued backlog non-blocking (drainRead; the recvmmsg-style
// amortization). batchPoll bounds the portable fallback drain where no
// non-blocking probe exists. Readers sharing one socket never touch its
// deadline: a short per-reader deadline on a shared descriptor would wake
// every blocked sibling.
const (
	readerPoll   = 250 * time.Millisecond
	batchPoll    = time.Millisecond
	maxBatch     = 64 // datagrams staged per wakeup before re-blocking
	ringPerNfsd  = 4  // ring slots per worker draining the ring
	ringMinSlots = 16
)

// Serve starts UDP and TCP listeners on the given addresses (use
// "127.0.0.1:0" to pick free ports), a pool of srv.Opts.NFSDs worker
// goroutines, and srv.Opts.Readers sharded UDP ingest readers (0 picks
// GOMAXPROCS, clamped to the worker count so no ring can be left without a
// drainer). It widens the core's cache lock striping for concurrent
// dispatch, so the server should not also be serving simulator traffic.
func Serve(srv *server.Server, udpAddr, tcpAddr string) (*Server, error) {
	srv.EnableConcurrentDispatch()
	nfsds := srv.Opts.NFSDs
	if nfsds < 1 {
		nfsds = 1
	}
	nreaders := srv.Opts.Readers
	if nreaders <= 0 {
		nreaders = runtime.GOMAXPROCS(0)
	}
	if nreaders > nfsds {
		nreaders = nfsds
	}

	// Socket strategy: one owned socket per reader where the platform can
	// bind several to the port, otherwise one socket shared by every reader.
	var socks []*net.UDPConn
	reuse := false
	if nreaders > 1 && reusePortSupported() && !srv.Opts.NoReusePort {
		if cs, err := listenReusePort(udpAddr, nreaders); err == nil {
			socks, reuse = cs, true
		}
	}
	if socks == nil {
		ua, err := net.ResolveUDPAddr("udp", udpAddr)
		if err != nil {
			return nil, err
		}
		uc, err := net.ListenUDP("udp", ua)
		if err != nil {
			return nil, err
		}
		socks = []*net.UDPConn{uc}
	}
	tl, err := net.Listen("tcp", tcpAddr)
	if err != nil {
		for _, c := range socks {
			c.Close()
		}
		return nil, err
	}
	s := &Server{
		srv:    srv,
		socks:  socks,
		reuse:  reuse,
		tcp:    tl,
		closed: make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
		busy:   srv.Metrics.Gauge("rpc.nfsd.busy"),
		stages: metrics.NewStageStats(srv.Metrics, metrics.DefaultSlowSpans),
		// Serving requests inline on the reader is only sound when readers
		// cannot contend for datagrams: an inline-serving reader on a
		// multi-reader *shared* socket never blocks on its ring, so it
		// would hog the descriptor's read lock (starving its siblings) and
		// serialize all service on one goroutine. Reuseport sockets (each
		// reader owns one) and the single-reader fallback have no such
		// contention.
		fastOff: !reuse && nreaders > 1,
	}
	s.fastCalls = srv.Metrics.Counter("rpc.fastpath.calls")
	s.fastFallbacks = srv.Metrics.Counter("rpc.fastpath.fallbacks")
	s.sendBatches = srv.Metrics.Counter("rpc.send.batches")
	s.sendMsgs = srv.Metrics.Counter("rpc.send.batched_msgs")
	srv.Metrics.Gauge("rpc.readers").Set(float64(nreaders))
	if reuse {
		srv.Metrics.Gauge("rpc.reader.reuseport").Set(1)
	}
	for i := 0; i < nreaders; i++ {
		conn := socks[0]
		if reuse {
			conn = socks[i]
		}
		// Ring sizing (DESIGN.md §3.3): a few slots per draining worker —
		// enough to ride out dispatch jitter, small enough that queueing
		// delay stays visible in the queue-stage histogram instead of
		// hiding requests in deep buffers.
		drainers := nfsds / nreaders
		if i < nfsds%nreaders {
			drainers++
		}
		slots := ringPerNfsd * drainers
		if slots < ringMinSlots {
			slots = ringMinSlots
		}
		s.readers = append(s.readers, &udpReader{
			id:      i,
			conn:    conn,
			ring:    make(chan udpJob, slots),
			reads:   srv.Metrics.Counter(fmt.Sprintf("rpc.reader.%d.reads", i)),
			fast:    srv.Metrics.Counter(fmt.Sprintf("rpc.reader.%d.fast", i)),
			inline:  srv.Metrics.Counter(fmt.Sprintf("rpc.reader.%d.inline", i)),
			wakeups: srv.Metrics.Counter(fmt.Sprintf("rpc.reader.%d.wakeups", i)),
		})
	}
	for i := 0; i < nfsds; i++ {
		s.workerWG.Add(1)
		go s.nfsd(i)
	}
	for _, r := range s.readers {
		s.readerWG.Add(1)
		go s.readUDP(r)
	}
	s.acceptWG.Add(1)
	go s.serveTCP()
	return s, nil
}

// Stages exposes the stage-level span aggregator (trace dumps read its
// slow-span ring).
func (s *Server) Stages() *metrics.StageStats { return s.stages }

// PublishStats refreshes the lazily maintained metric surfaces: the
// rpc.nfsd.busy gauge and the lock.<site>.* contention counters. Stats
// endpoints call this right before snapshotting the registry.
func (s *Server) PublishStats() {
	s.busy.Set(float64(s.busyCount.Load()))
	lockstat.Publish(s.srv.Metrics)
}

// Core returns the server core behind the sockets. Its Stats and Metrics
// are atomic, so callers (the nfsd stats endpoint, tests) may read them
// concurrently with request handling, without the kernel lock.
func (s *Server) Core() *server.Server { return s.srv }

// UDPAddr returns the bound UDP address (under reuseport every ingest
// socket is bound to the same one).
func (s *Server) UDPAddr() string { return s.socks[0].LocalAddr().String() }

// Readers returns the ingest shard count.
func (s *Server) Readers() int { return len(s.readers) }

// ReusePort reports whether each reader owns a SO_REUSEPORT socket (false:
// all readers share one socket).
func (s *Server) ReusePort() bool { return s.reuse }

// TCPAddr returns the bound TCP address.
func (s *Server) TCPAddr() string { return s.tcp.Addr().String() }

// Close shuts the frontends down gracefully: no ring-resident request
// loses its reply, and no serving goroutine is leaked. The drain order is
// readers first (each is kicked out of its blocking read by a deadline and
// closes its ring on exit; the sockets stay open so the worker pool can
// still send replies), then the pool (which drains every ring to the
// close), then the acceptor and each TCP connection, and only then are the
// UDP sockets closed. Idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.closed)
		now := time.Now()
		for _, c := range s.socks {
			c.SetReadDeadline(now)
		}
		s.readerWG.Wait() // readers exit, closing their rings
		s.workerWG.Wait() // pool drains ring-resident requests, replies sent
		s.tcp.Close()
		s.acceptWG.Wait()
		s.connMu.Lock()
		for c := range s.conns {
			// Both directions: a connection whose peer stopped reading is
			// parked in a reply write, which a read deadline never wakes.
			c.SetDeadline(time.Now())
		}
		s.connMu.Unlock()
		s.connWG.Wait()
		for _, c := range s.socks {
			c.Close()
		}
	})
}

// closing reports whether Close has begun (readers poll it when a read
// errors out).
func (s *Server) closing() bool {
	select {
	case <-s.closed:
		return true
	default:
		return false
	}
}

// dispatch runs one request (which the callee consumes) through the core
// under the crash gate and returns the reply chain, or nil when the call
// produced no reply (garbage, crash window, in-flight duplicate). The
// caller owns the chain: it sends its segments as they lie and frees it
// after the send returns. A loaned file block in it outlives the crash
// gate safely — loaned blocks are immutable (memfs replaces, never
// modifies, a block that is out on loan).
func (s *Server) dispatch(peer string, req *mbuf.Chain, sp *metrics.Span) *mbuf.Chain {
	crashSite.RLock(&s.crashMu, sp)
	defer s.crashMu.RUnlock()
	if s.srv.Down() {
		req.Free()
		sp.SetErr()
		return nil // crashed: the request vanishes, like the sim frontends
	}
	s.busyCount.Add(1)
	rep := s.srv.HandleCallSpan(nil, peer, req, sp)
	s.busyCount.Add(-1)
	// The request chain is ours (copied from, or wrapping, the socket read
	// buffer) and the call is finished with it; recycle its mbufs.
	req.Free()
	if rep != nil {
		sp.Stamp(metrics.StageEncode)
	}
	return rep
}

// SetDown makes the frontends silently drop requests (true) or serve
// normally (false). Safe to call concurrently with request handling.
func (s *Server) SetDown(down bool) { s.srv.SetDown(down) }

// Crash simulates a server reboot, dropping all volatile core state. It
// takes the quiesce gate exclusively, so it is safe to call while requests
// are being served — unlike calling Core().Crash() directly.
func (s *Server) Crash() {
	s.crashMu.Lock()
	defer s.crashMu.Unlock()
	s.srv.Crash()
}

// scribbleServed is a test hook: when set, a buffer served in place is
// overwritten the instant its dispatch returns — what the next read would do
// to it, done at once — so anything the core or a staged reply still points
// into it shows up as 0xA5 bytes.
var scribbleServed bool

// declineFast is a test hook: when set, fastEligible declines every call, so
// the same traffic can be replayed down the generic path for comparison.
var declineFast bool

// scribble does to a served buffer what the next read would.
func scribble(b []byte) {
	for i := range b {
		b[i] = 0xA5
	}
}

// dispatchInPlace serves a request straight out of the buffer it was read
// into: req (empty, reusable — dispatch frees it) wraps b instead of copying
// it into mbufs. Only for callers that run the call to completion before b
// is written again. Nothing the call leaves behind may alias b: arguments
// are copied out as they are decoded, WRITE data is copied into file blocks,
// and replies are built from fresh mbufs and loaned file blocks.
func (s *Server) dispatchInPlace(peer string, req *mbuf.Chain, b []byte, sp *metrics.Span) *mbuf.Chain {
	req.Wrap(b)
	sp.Stamp(metrics.StageRead)
	rep := s.dispatch(peer, req, sp)
	if scribbleServed {
		scribble(b)
	}
	return rep
}

// readUDP is one sharded socket reader, and the server's first-choice
// dispatcher: it serves each datagram to completion where it stands —
// tryFast for header-only procedures, dispatchInPlace for the rest — with the
// replies coalescing in its send batch, and hands a datagram to the nfsd
// pool only on backlog it can already see. A reader that owns its socket
// (reuseport) drains the kernel backlog per wakeup through the non-blocking
// drainRead probe — take what's queued, never wait for more — so the batch
// flushes the instant the backlog is dry and coalescing never holds a reply
// while the socket idles. Readers sharing one socket take plain blocking
// reads and spill everything — they pipeline staging against the
// descriptor's read lock but must leave the shared deadline alone. A lone
// reader takes plain blocking reads too and serves everything itself: with
// no drain it holds no evidence of backlog, and a probe to get some costs
// more than the pool returns wherever that was measured (EXPERIMENTS.md).
func (s *Server) readUDP(r *udpReader) {
	defer s.readerWG.Done()
	defer close(r.ring)
	owned := s.reuse
	var cache mbuf.Cache
	defer cache.Drain()
	batch := newSendBatch(r.conn, true, s.sendBatches, s.sendMsgs, s.stages)
	defer batch.flush()
	var peers peerCache
	var probe recvProbe
	// One span and one request chain, reused per inline datagram (the batch
	// copies the span by value, dispatch empties the chain); per-datagram
	// ones would escape through the call chain.
	var sp metrics.Span
	var wrap mbuf.Chain
	buf := make([]byte, 65536)
	for {
		// Checked on the success path too: under a continuous flood reads
		// never fail, and a reader that only noticed Close through read
		// errors would stage forever while Close waits on it.
		if s.closing() {
			return
		}
		if owned {
			r.conn.SetReadDeadline(time.Now().Add(readerPoll))
		}
		n, addr, err := r.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			if s.closing() {
				return
			}
			continue
		}
		r.wakeups.Inc()
		// pkt aliases either buf or a probe-owned batch buffer; both stay
		// intact until the next drainRead, and every consumer below finishes
		// with the bytes synchronously (inline service or mbuf copy).
		pkt := buf[:n]
		for nread := 0; ; {
			t0 := time.Now()
			r.reads.Inc()
			switch {
			case s.tryFast(r, batch, &peers, pkt, addr, t0, &sp):
				// Served on the shallow path.
			case s.fastOff || len(r.ring) > 0 || probe.pending() > 0:
				// Backlog: readers share the socket, the pool is already
				// awake and behind, or the current recvmmsg fill holds more
				// datagrams behind this one (the last of a fill is served
				// here). Evidence the reader holds anyway — no syscall asks.
				req := cache.FromBytes(pkt)
				r.ring <- udpJob{addr: addr, req: req, t0: t0, readNS: int64(time.Since(t0))}
			default:
				sp.Reset(t0)
				sp.Peer = peers.get(addr)
				rep := s.dispatchInPlace(sp.Peer, &wrap, pkt, &sp)
				r.inline.Inc()
				if rep != nil {
					batch.addChain(rep, addr, &sp)
				} else {
					s.stages.Record(&sp)
				}
			}
			nread++
			// A fill is always served out: a datagram left inside the probe
			// would wait until the next one arrived to wake the reader, and
			// would make that one look like it had company on the socket.
			if probe.pending() == 0 && (!owned || nread >= maxBatch) {
				break
			}
			var more bool
			if pkt, addr, more = drainRead(r.conn, &probe, batch); !more {
				break
			}
		}
		batch.flush()
	}
}

// drainReadDeadline is the portable drain used where no non-blocking probe
// exists: the read can park for the whole batch window on an empty queue,
// so staged replies flush first — the window still amortizes wakeups but
// must never hold a reply. A datagram arriving inside it is taken early.
func drainReadDeadline(conn *net.UDPConn, b *sendBatch, buf []byte) (int, netip.AddrPort, bool) {
	b.flush()
	conn.SetReadDeadline(time.Now().Add(batchPoll))
	n, addr, err := conn.ReadFromUDPAddrPort(buf)
	return n, addr, err == nil
}

// fastEligible peeks at one call — a UDP datagram or a TCP record, still in
// the buffer it was read into — and reports whether the shallow dispatch path
// may be offered it, with the offset of its arguments.
func fastEligible(pkt []byte, h *rpc.PeekedCall) (argOff int, ok bool) {
	argOff, ok = rpc.PeekCallHeader(pkt, h)
	return argOff, ok && server.FastEligible(h) && !declineFast
}

// serveFast puts an eligible call through the shallow path, the reply
// encoded flat onto out (len 0, cap >= server.FastReplyMax). done means the
// call was consumed here: rep is its reply, or nil when there is none to send
// (dropped by the crash window exactly as the generic path would have dropped
// it, or a non-idempotent call's in-flight duplicate). The caller sends rep
// and records sp. Not done means the caller must put the call through the
// generic dispatch, nothing having happened to it but the count of a fallback.
func (s *Server) serveFast(peer string, pkt []byte, h *rpc.PeekedCall, argOff int, out []byte, t0 time.Time, sp *metrics.Span) (rep []byte, done bool) {
	sp.Reset(t0)
	sp.Stamp(metrics.StageRead)
	sp.SetCall(h.XID, h.Proc)
	sp.Stamp(metrics.StageDecode)
	sp.Peer = peer
	crashSite.RLock(&s.crashMu, sp)
	if s.srv.Down() {
		s.crashMu.RUnlock()
		sp.SetErr()
		return nil, true // crashed: the request vanishes, like the generic drop
	}
	rep, ok := s.srv.HandleCallFast(peer, pkt, h, argOff, out, sp)
	s.crashMu.RUnlock()
	if !ok {
		s.fastFallbacks.Inc()
		return nil, false
	}
	s.fastCalls.Inc()
	if scribbleServed {
		scribble(pkt)
	}
	return rep, true
}

// tryFast offers one datagram to the shallow path, staging the reply in b.
// True means the datagram was consumed here; false that the caller must put
// it through the generic dispatch.
func (s *Server) tryFast(r *udpReader, b *sendBatch, peers *peerCache, pkt []byte, addr netip.AddrPort, t0 time.Time, sp *metrics.Span) bool {
	if s.fastOff {
		return false
	}
	var h rpc.PeekedCall
	argOff, ok := fastEligible(pkt, &h)
	if !ok {
		return false
	}
	rep, done := s.serveFast(peers.get(addr), pkt, &h, argOff, b.scratch(), t0, sp)
	if !done {
		return false
	}
	r.fast.Inc()
	if rep == nil {
		s.stages.Record(sp)
	} else {
		b.add(rep, addr, sp)
	}
	return true
}

// nfsd is one worker of the overflow pool, permanently attached to the
// ingest ring of reader id%len(readers) (replies leave on that shard's
// socket); it sleeps unless its reader spills. Its per-worker counters
// (rpc.nfsd.<id>.calls, rpc.nfsd.<id>.busy_us) expose how evenly the rings
// spread load, and the shared rpc.nfsd.busy gauge how many dispatches —
// pooled, inline or TCP — are inside the core.
func (s *Server) nfsd(id int) {
	defer s.workerWG.Done()
	r := s.readers[id%len(s.readers)]
	calls := s.srv.Metrics.Counter(fmt.Sprintf("rpc.nfsd.%d.calls", id))
	busyUS := s.srv.Metrics.Counter(fmt.Sprintf("rpc.nfsd.%d.busy_us", id))
	// Replies coalesce per burst: as long as the ring has more jobs queued
	// the batch keeps accumulating, and it flushes the moment the ring runs
	// momentarily dry (or the batch fills), so a storm of small replies
	// leaves in a handful of send syscalls without delaying a lone reply.
	batch := newSendBatch(r.conn, false, s.sendBatches, s.sendMsgs, s.stages)
	defer batch.flush()
	// Peer tracing/dupcache labels are interned per source address — the
	// per-request "udp:"+addr.String() formatting was one alloc/op.
	var peers peerCache
	// One span per worker, reused for every request: a per-iteration span
	// would escape to the heap through the cross-package call chain and
	// cost an allocation per RPC (Record and add copy by value, never
	// retain).
	var sp metrics.Span
	for job, ok := <-r.ring; ok; {
		start := time.Now()
		sp.Reset(job.t0)
		sp.Worker = int32(id)
		peer := peers.get(job.addr)
		sp.Peer = peer
		sp.SetStageEnd(metrics.StageRead, job.readNS)
		sp.Stamp(metrics.StageQueue)
		rep := s.dispatch(peer, job.req, &sp)
		busyUS.Add(time.Since(start).Microseconds())
		calls.Inc()
		if rep != nil {
			batch.addChain(rep, job.addr, &sp)
		} else {
			s.stages.Record(&sp)
		}
		// Take the next job without blocking if the burst continues; flush
		// the staged replies before blocking on an empty ring. (A closed
		// ring falls through with ok=false and the deferred flush sends the
		// tail.)
		select {
		case job, ok = <-r.ring:
		default:
			batch.flush()
			job, ok = <-r.ring
		}
	}
}

func (s *Server) serveTCP() {
	defer s.acceptWG.Done()
	for {
		conn, err := s.tcp.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
				continue
			}
		}
		s.connMu.Lock()
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.connWG.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn serves one TCP connection, the stream-shaped twin of readUDP's
// inline arms: conn.Read fills the record scanner's buffer and every record
// that arrived whole is served where the read put it (only a record split
// across reads is moved, once; a record is valid until the next read).
// Header-only procedures take the shallow path, serveFast, their reply
// encoded flat behind its own record mark and sent with one Write; the rest
// go through dispatchInPlace and leave as a gather (recordWriter). Requests
// on a connection execute in order (as the record stream demands), but
// connections run concurrently with each other and with the UDP readers.
func (s *Server) serveConn(conn net.Conn) {
	defer s.connWG.Done()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		conn.Close()
	}()
	peer := "tcp:" + conn.RemoteAddr().String()
	// Per-connection span, reused across records (Worker stays -1: TCP
	// serving has no pool slot; trace dumps put it on a shared track).
	var sp metrics.Span
	var wrap mbuf.Chain
	var scan rpc.RecordScanner
	var w recordWriter
	var h rpc.PeekedCall
	flat := make([]byte, 4+server.FastReplyMax) // record mark + one shallow reply
	for {
		n, err := conn.Read(scan.Space(1))
		if err != nil {
			return
		}
		scan.Fill(n)
		// A record's span begins when its bytes became available: at the
		// read's return for the first of a fill, at the previous record's
		// last stamp after that — so the scan is inside the read stage.
		for t0 := time.Now(); ; t0 = sp.Begin.Add(time.Duration(sp.TotalNS())) {
			rec, err := scan.Next()
			if err != nil {
				return // a record past MaxRecord: the stream is desynchronized
			}
			if rec == nil {
				break
			}
			var rep []byte
			sent, done := false, false
			if argOff, ok := fastEligible(rec, &h); ok {
				rep, done = s.serveFast(peer, rec, &h, argOff, flat[4:4], t0, &sp)
			}
			switch {
			case rep != nil:
				binary.BigEndian.PutUint32(flat, 0x80000000|uint32(len(rep)))
				_, err = conn.Write(flat[:4+len(rep)])
				sent = true
			case !done:
				sp.Reset(t0)
				sp.Peer = peer
				if chain := s.dispatchInPlace(peer, &wrap, rec, &sp); chain != nil {
					err = w.write(conn, chain)
					chain.Free()
					sent = true
				}
			}
			if sent && err == nil {
				sp.Stamp(metrics.StageSend)
			}
			s.stages.Record(&sp)
			if err != nil {
				return
			}
		}
	}
}

// recordWriter sends reply chains on one TCP connection as record-marked
// gathers: [record mark, segments…] in a single writev (net.Buffers), so
// the reply is neither linearized nor copied behind its mark. All backing
// is per connection and reused — writing a record allocates nothing.
type recordWriter struct {
	mark [4]byte
	segs [][]byte
	// bufs is the net.Buffers header WriteTo consumes; a field so that it
	// is not re-boxed per record.
	bufs net.Buffers
}

// write sends rep as one last-fragment record. The caller still owns rep
// and frees it after write returns.
func (w *recordWriter) write(conn net.Conn, rep *mbuf.Chain) error {
	binary.BigEndian.PutUint32(w.mark[:], 0x80000000|uint32(rep.Len()))
	w.segs = rep.AppendSegments(append(w.segs[:0], w.mark[:]))
	w.bufs = w.segs
	_, err := w.bufs.WriteTo(conn)
	return err
}

// --- Client ---------------------------------------------------------------

// ErrTimeout is returned when a UDP call exhausts its retries.
var ErrTimeout = errors.New("nfsnet: call timed out")

// Client is a synchronous NFS client over a real socket.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	tcp  bool
	xid  uint32
	// Timeout and Retries govern UDP retransmission.
	Timeout time.Duration
	Retries int
	// scan holds the TCP receive stream, rbuf is the UDP receive buffer;
	// both are reused across calls (guarded by mu; a reply is copied into
	// its own chain before the call returns).
	scan rpc.RecordScanner
	rbuf []byte
}

// DialUDP connects a UDP client.
func DialUDP(addr string) (*Client, error) {
	c, err := net.Dial("udp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: c, Timeout: time.Second, Retries: 5, xid: uint32(time.Now().UnixNano())}, nil
}

// DialTCP connects a TCP client.
func DialTCP(addr string) (*Client, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: c, tcp: true, Timeout: 10 * time.Second, Retries: 1, xid: uint32(time.Now().UnixNano())}, nil
}

// Close closes the socket.
func (c *Client) Close() error { return c.conn.Close() }

// Call issues one NFS RPC and returns a decoder at the results.
func (c *Client) Call(proc uint32, args func(e *xdr.Encoder)) (*xdr.Decoder, error) {
	return c.CallProgram(nfsproto.Program, nfsproto.Version, proc, args)
}

// CallProgram issues an RPC against any program (the MOUNT protocol in
// particular) and returns a decoder at the results.
func (c *Client) CallProgram(prog, vers, proc uint32, args func(e *xdr.Encoder)) (*xdr.Decoder, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.xid++
	xid := c.xid
	msg := &mbuf.Chain{}
	rpc.EncodeCall(msg, &rpc.Call{XID: xid, Prog: prog, Vers: vers, Proc: proc})
	if args != nil {
		args(xdr.NewEncoder(msg))
	}
	if c.tcp {
		rpc.AddRecordMark(msg)
	}
	wire := msg.Bytes()
	if c.rbuf == nil && !c.tcp {
		c.rbuf = make([]byte, 65536)
	}
	for attempt := 0; attempt <= c.Retries; attempt++ {
		if _, err := c.conn.Write(wire); err != nil {
			return nil, err
		}
		deadline := time.Now().Add(c.Timeout)
		for {
			c.conn.SetReadDeadline(deadline)
			rec, err := c.recv()
			if err != nil {
				if isTimeout(err) {
					break
				}
				return nil, err
			}
			chain := mbuf.FromBytes(rec)
			got, err := rpc.PeekXID(chain)
			if err != nil || got != xid {
				continue // stale reply from an earlier retry
			}
			d := xdr.NewDecoder(chain)
			r, err := rpc.DecodeReply(d)
			if err != nil {
				return nil, err
			}
			if r.Denied || r.AcceptStat != rpc.Success {
				return nil, fmt.Errorf("nfsnet: rpc failed (stat %d)", r.AcceptStat)
			}
			return d, nil
		}
	}
	return nil, ErrTimeout
}

// recv returns the next message from the server: a datagram, or the next
// record of the TCP stream. The bytes are valid until the next recv.
func (c *Client) recv() ([]byte, error) {
	if !c.tcp {
		n, err := c.conn.Read(c.rbuf)
		return c.rbuf[:n], err
	}
	for {
		rec, err := c.scan.Next()
		if rec != nil || err != nil {
			return rec, err
		}
		n, err := c.conn.Read(c.scan.Space(1))
		if err != nil {
			return nil, err
		}
		c.scan.Fill(n)
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// --- Convenience file operations -----------------------------------------

// Lookup resolves name under dir.
func (c *Client) Lookup(dir nfsproto.FH, name string) (*nfsproto.DiropRes, error) {
	d, err := c.Call(nfsproto.ProcLookup, func(e *xdr.Encoder) {
		(&nfsproto.DiropArgs{Dir: dir, Name: name}).Encode(e)
	})
	if err != nil {
		return nil, err
	}
	return nfsproto.DecodeDiropRes(d)
}

// Getattr stats a handle.
func (c *Client) Getattr(fh nfsproto.FH) (*nfsproto.AttrRes, error) {
	d, err := c.Call(nfsproto.ProcGetattr, func(e *xdr.Encoder) {
		(&nfsproto.GetattrArgs{File: fh}).Encode(e)
	})
	if err != nil {
		return nil, err
	}
	return nfsproto.DecodeAttrRes(d)
}

// Create makes a file.
func (c *Client) Create(dir nfsproto.FH, name string, mode uint32) (*nfsproto.DiropRes, error) {
	attr := nfsproto.NewSattr()
	attr.Mode = mode
	d, err := c.Call(nfsproto.ProcCreate, func(e *xdr.Encoder) {
		(&nfsproto.CreateArgs{Where: nfsproto.DiropArgs{Dir: dir, Name: name}, Attr: attr}).Encode(e)
	})
	if err != nil {
		return nil, err
	}
	return nfsproto.DecodeDiropRes(d)
}

// Mkdir makes a directory.
func (c *Client) Mkdir(dir nfsproto.FH, name string, mode uint32) (*nfsproto.DiropRes, error) {
	attr := nfsproto.NewSattr()
	attr.Mode = mode
	d, err := c.Call(nfsproto.ProcMkdir, func(e *xdr.Encoder) {
		(&nfsproto.CreateArgs{Where: nfsproto.DiropArgs{Dir: dir, Name: name}, Attr: attr}).Encode(e)
	})
	if err != nil {
		return nil, err
	}
	return nfsproto.DecodeDiropRes(d)
}

// Write writes data at offset.
func (c *Client) Write(fh nfsproto.FH, offset uint32, data []byte) (*nfsproto.AttrRes, error) {
	d, err := c.Call(nfsproto.ProcWrite, func(e *xdr.Encoder) {
		(&nfsproto.WriteArgs{File: fh, Offset: offset, Data: mbuf.FromBytes(data)}).Encode(e)
	})
	if err != nil {
		return nil, err
	}
	return nfsproto.DecodeAttrRes(d)
}

// Read reads count bytes at offset.
func (c *Client) Read(fh nfsproto.FH, offset, count uint32) (*nfsproto.ReadRes, error) {
	d, err := c.Call(nfsproto.ProcRead, func(e *xdr.Encoder) {
		(&nfsproto.ReadArgs{File: fh, Offset: offset, Count: count}).Encode(e)
	})
	if err != nil {
		return nil, err
	}
	return nfsproto.DecodeReadRes(d)
}

// Remove unlinks a file.
func (c *Client) Remove(dir nfsproto.FH, name string) (*nfsproto.StatusRes, error) {
	d, err := c.Call(nfsproto.ProcRemove, func(e *xdr.Encoder) {
		(&nfsproto.DiropArgs{Dir: dir, Name: name}).Encode(e)
	})
	if err != nil {
		return nil, err
	}
	return nfsproto.DecodeStatusRes(d)
}

// Mnt obtains the root handle of an exported path via the MOUNT protocol.
func (c *Client) Mnt(path string) (*nfsproto.MntRes, error) {
	d, err := c.CallProgram(nfsproto.MountProgram, nfsproto.MountVersion, nfsproto.MountProcMnt,
		func(e *xdr.Encoder) { (&nfsproto.MntArgs{DirPath: path}).Encode(e) })
	if err != nil {
		return nil, err
	}
	return nfsproto.DecodeMntRes(d)
}

// Exports lists the server's export table.
func (c *Client) Exports() ([]nfsproto.ExportEntry, error) {
	d, err := c.CallProgram(nfsproto.MountProgram, nfsproto.MountVersion, nfsproto.MountProcExport, nil)
	if err != nil {
		return nil, err
	}
	return nfsproto.DecodeExportList(d)
}

// Readdir lists a directory page.
func (c *Client) Readdir(dir nfsproto.FH, cookie, count uint32) (*nfsproto.ReaddirRes, error) {
	d, err := c.Call(nfsproto.ProcReaddir, func(e *xdr.Encoder) {
		(&nfsproto.ReaddirArgs{Dir: dir, Cookie: cookie, Count: count}).Encode(e)
	})
	if err != nil {
		return nil, err
	}
	return nfsproto.DecodeReaddirRes(d)
}
