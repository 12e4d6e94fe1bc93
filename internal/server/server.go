// Package server implements the NFS v2 server over memfs, with the two
// personalities §5 compares:
//
//   - Reno: a VFS name-lookup cache in front of directory scans, directory
//     blocks chained off vnodes (cheap buffer-cache searches), and RPC
//     arguments/results handled directly in mbufs.
//   - Ultrix (Sun-reference-port style): no name cache, linear buffer-cache
//     scans, and a user-library XDR layer that costs an extra copy per call.
//
// Every call charges the server node's CPU through the netsim cost model
// under profile buckets (nfs, buf_copy, dirscan, xdr_layer, ...), the disk
// pays the synchronous writes NFS v2 statelessness demands, and a
// duplicate-request cache ([Juszczak89]) suppresses re-execution of
// retransmitted non-idempotent calls.
package server

import (
	"sync"
	"sync/atomic"
	"time"

	"renonfs/internal/mbuf"
	"renonfs/internal/memfs"
	"renonfs/internal/metrics"
	"renonfs/internal/netsim"
	"renonfs/internal/nfsproto"
	"renonfs/internal/rpc"
	"renonfs/internal/sim"
	"renonfs/internal/tcpsim"
	"renonfs/internal/vfs"
	"renonfs/internal/xdr"
)

// Server CPU cost table, µs at 1 MIPS (see DESIGN.md §4).
const (
	costDispatch     = 600.0  // RPC decode + dispatch + reply header
	costVOP          = 180.0  // filesystem operation base cost
	costBufCopyByte  = 1.0    // buffer cache <-> mbuf copy, per byte
	costDirScanBuf   = 35.0   // per buffer examined in a directory search
	costNameCacheHit = 60.0   // name cache probe
	costXDRCall      = 1400.0 // Ultrix user-library RPC/XDR layer, per call
	costXDRByte      = 0.5    // Ultrix XDR layer, per argument/result byte
)

// Options selects a server personality and sizes.
type Options struct {
	Name string
	// NameCache enables the server-side name lookup cache.
	NameCache bool
	// ChainedBufs selects vnode-chained buffer-cache lookups; false means
	// linear scans of the whole cache.
	ChainedBufs bool
	// XDRCopyLayer charges the reference port's user-library XDR costs.
	XDRCopyLayer bool
	// LendPages is the §3 "further work" optimization: buffer-cache pages
	// are lent to the network code as mbuf clusters, skipping the
	// buffer-cache-to-mbuf copy on reads.
	LendPages bool
	// CacheBufs is the buffer cache capacity (block buffers).
	CacheBufs int
	// DupCacheSize bounds the duplicate request cache.
	DupCacheSize int
	// NFSDs is the number of server daemons for the simulated frontends.
	NFSDs int
	// Readers is the number of sharded UDP ingest readers the real-socket
	// frontend (internal/nfsnet) runs: each owns an SO_REUSEPORT socket
	// where the platform supports it and feeds a bounded per-reader ring.
	// 0 means one per GOMAXPROCS; nfsnet clamps the count to NFSDs so
	// every ring has a drainer. The simulator ignores it.
	Readers int
	// NoReusePort forces the real-socket frontend's shared-socket ingest
	// fallback even where SO_REUSEPORT is available. Under reuseport the
	// kernel pins a peer's 4-tuple to one socket, so a client's
	// retransmissions always land on the same reader; on a shared socket
	// they spread across readers — the hostile cross-reader path the
	// fleet rig's herd and storm scenarios exist to exercise.
	NoReusePort bool
	// Leases enables the NQNFS-style cache lease extension (procedures
	// LEASE/VACATED) from the paper's Future Directions.
	Leases bool
	// ReaddirLook enables the readdir_and_lookup_files extension.
	ReaddirLook bool
	// LeaseDuration bounds granted leases (default 30s).
	LeaseDuration time.Duration
	// WriteGathering batches the metadata (inode/indirect) disk writes of
	// back-to-back WRITE RPCs to the same file, the [Juszczak89] nfsd
	// optimization the paper cites: the data still goes to disk before the
	// reply, but a burst from the client's biods pays the inode update
	// once per gather window instead of once per RPC.
	WriteGathering bool
}

// Reno returns the tuned 4.3BSD Reno server personality.
func Reno() Options {
	return Options{
		Name: "reno", NameCache: true, ChainedBufs: true,
		CacheBufs: 192, DupCacheSize: 64, NFSDs: 4,
	}
}

// Ultrix returns the Sun-reference-port (Ultrix 2.2) personality. The
// buffer cache is configured identically, per the appendix ("identically
// sized buffer caches"); what differs is how it is searched and the RPC
// layering.
func Ultrix() Options {
	return Options{
		Name: "ultrix", NameCache: false, ChainedBufs: false,
		XDRCopyLayer: true, CacheBufs: 192, DupCacheSize: 64, NFSDs: 4,
	}
}

// Server is an NFS server instance.
//
// Concurrency: HandleCall is safe to call from many goroutines at once —
// the real-socket frontends (internal/nfsnet) run a pool of nfsd workers
// plus one goroutine per TCP connection, all dispatching into one Server.
// The giant per-server lock of earlier revisions is gone; in its place the
// caches shard their own locks (stripes below), memfs carries per-file RW
// locks, and the lease/mount/gather side tables take small leaf mutexes.
// Under the simulator none of this matters (the cooperative scheduler runs
// one proc at a time) and the caches stay at one stripe so eviction order
// is bit-for-bit the single-cache behaviour the golden runs pin down.
type Server struct {
	FS    *memfs.FS
	Opts  Options
	Node  *netsim.Node // nil outside the simulator
	bufc  *vfs.StripedBufCache
	namec *vfs.StripedNameCache
	dupc  *dupCache
	// stripes is the cache lock-stripe count: 1 until a concurrent
	// frontend calls EnableConcurrentDispatch (before serving traffic).
	stripes int

	// Metrics is the server's registry: per-procedure service-time
	// histograms (whose counts are the call counts) plus byte, error and
	// dupcache counters, safe to snapshot concurrently (the nfsd stats
	// endpoint and nfsstat read it live).
	Metrics *metrics.Registry
	// Hot-path metric handles, interned once in New: looking a counter up
	// by name costs a map probe plus a string concatenation per call
	// otherwise.
	cBytesIn, cBytesOut, cDupHits, cErrors *metrics.Counter
	// Lease protocol counters (lease.*), interned for the piggyback path
	// which runs on every hinted call.
	cLeaseGrants, cLeasePiggy, cLeaseRenewals     *metrics.Counter
	cLeaseTryLater, cLeaseVacates, cLeaseExpiries *metrics.Counter
	cLeaseEvict                                   *metrics.Counter
	procSvc                                       [nfsproto.NumProcsExt]*metrics.Histogram
	// Tracer, when set, receives ServerCall and DupCacheHit lifecycle
	// events for every RPC handled.
	Tracer metrics.Tracer
	// epoch anchors wall-clock service-time measurement when the server
	// runs over real sockets (no simulator process to ask for time).
	epoch time.Time

	// Lease extension state (lease.go). leaseMu covers leaseTab and
	// noGrantsUntil; it is never held across a callback-socket send (which
	// parks the sending proc under the simulator).
	leaseMu  sync.Mutex
	leaseTab map[nfsproto.FH]*leaseState
	cbSock   *netsim.UDPSocket
	// noGrantsUntil implements NQNFS crash recovery: after a reboot the
	// server refuses new leases for one lease period, so every lease
	// granted before the crash has expired before a conflicting one can
	// exist.
	noGrantsUntil sim.Time
	// down simulates a crashed (unresponsive) server: frontends drop
	// requests, clients retransmit — the statelessness story of §1. It is
	// atomic because the real-socket frontends (internal/nfsnet) flip it
	// from goroutines other than the ones serving requests.
	down atomic.Bool
	// conns tracks live simulated TCP connections so Crash can reset them
	// the way a reboot kills established connections.
	conns map[*tcpsim.Conn]struct{}
	// MOUNT protocol state (mountd.go).
	mounts *mountState
	// Write-gathering state: per-file end of the current metadata window,
	// under its own leaf mutex.
	gatherMu sync.Mutex
	gather   map[nfsproto.FH]sim.Time
}

// Crash simulates a server reboot: every piece of volatile state a real
// reboot would lose is dropped — the buffer cache, the name cache, the
// duplicate request cache and the lease table — and lease grants are
// refused for one lease period (NQNFS-style recovery). The filesystem
// itself (the disk) survives. Callers typically pair this with
// SetDown(true) ... SetDown(false) around a virtual outage window.
// Callers over real sockets must quiesce the dispatch pool first (the
// nfsnet frontend's Crash does); under the simulator the single-threaded
// scheduler makes that automatic.
func (s *Server) Crash() {
	s.resetCaches()
	s.leaseMu.Lock()
	s.leaseTab = nil
	s.noGrantsUntil = s.now() + s.leaseDuration()
	s.leaseMu.Unlock()
	s.AbortTCPConns()
	metrics.Emit(s.Tracer, metrics.ServerCrash{RecoverFor: time.Duration(s.leaseDuration())})
}

// resetCaches rebuilds the volatile caches at the current stripe count.
func (s *Server) resetCaches() {
	s.bufc = vfs.NewStripedBufCache(s.Opts.CacheBufs, s.Opts.ChainedBufs, s.stripes)
	s.namec = vfs.NewStripedNameCache(s.stripes)
	s.namec.SetEnabled(s.Opts.NameCache)
	s.dupc = newDupCache(s.Opts.DupCacheSize)
	s.dupc.cDrops = s.Metrics.Counter("server.dupc.inflight_drops")
}

// EnableConcurrentDispatch widens the cache lock striping for a pool of
// concurrent frontends. It must be called before any traffic is served
// (internal/nfsnet does, from Serve): the caches are rebuilt empty, which
// is invisible at that point, and swapping them later would race with
// in-flight calls.
func (s *Server) EnableConcurrentDispatch() {
	n := s.Opts.NFSDs * 2
	if n < 4 {
		n = 4
	}
	s.stripes = n
	s.resetCaches()
}

// AbortTCPConns resets every live simulated TCP connection, as a reboot
// would. Clients see the reset (or an RST on their next segment) and
// reconnect, replaying pending calls.
func (s *Server) AbortTCPConns() {
	for c := range s.conns {
		c.Abort()
	}
	s.conns = nil
}

// SetDown makes the frontends silently drop requests (true) or serve
// normally (false).
func (s *Server) SetDown(down bool) { s.down.Store(down) }

// Down reports whether the server is dropping requests.
func (s *Server) Down() bool { return s.down.Load() }

// New creates a server over fs.
func New(fs *memfs.FS, opts Options) *Server {
	if opts.CacheBufs == 0 {
		opts.CacheBufs = 192
	}
	if opts.DupCacheSize == 0 {
		opts.DupCacheSize = 64
	}
	if opts.NFSDs == 0 {
		opts.NFSDs = 4
	}
	s := &Server{
		FS:      fs,
		Opts:    opts,
		stripes: 1,
		Metrics: metrics.NewRegistry(),
		epoch:   time.Now(),
	}
	s.resetCaches()
	// Eager so concurrent first calls never race the lazy allocation.
	s.mounts = newMountState()
	s.cBytesIn = s.Metrics.Counter("nfs.bytes_in")
	s.cBytesOut = s.Metrics.Counter("nfs.bytes_out")
	s.cDupHits = s.Metrics.Counter("nfs.dup_hits")
	s.cErrors = s.Metrics.Counter("nfs.errors")
	s.cLeaseGrants = s.Metrics.Counter("lease.grants")
	s.cLeasePiggy = s.Metrics.Counter("lease.piggy_grants")
	s.cLeaseRenewals = s.Metrics.Counter("lease.renewals")
	s.cLeaseTryLater = s.Metrics.Counter("lease.trylater")
	s.cLeaseVacates = s.Metrics.Counter("lease.vacates")
	s.cLeaseExpiries = s.Metrics.Counter("lease.expiries")
	s.cLeaseEvict = s.Metrics.Counter("lease.evictions")
	for proc := uint32(0); proc < nfsproto.NumProcsExt; proc++ {
		s.procSvc[proc] = s.Metrics.Histogram("nfs.service_ms." + nfsproto.ProcName(proc))
	}
	return s
}

// Calls returns how many NFS calls the server has executed: the sum of the
// per-procedure service-time histogram counts, since every executed call
// lands in exactly one (dupcache replays and dropped duplicates in none).
func (s *Server) Calls() int64 {
	var n int64
	for _, h := range s.procSvc {
		n += h.Snapshot().Count
	}
	return n
}

// AttachNode binds the server to a simulated host for CPU accounting.
func (s *Server) AttachNode(n *netsim.Node) { s.Node = n }

// NameCacheStats exposes server name-cache behaviour.
func (s *Server) NameCacheStats() vfs.NameCacheStats { return s.namec.Stats() }

// BufCacheStats exposes server buffer-cache behaviour.
func (s *Server) BufCacheStats() vfs.CacheStats { return s.bufc.Stats() }

// RootFH returns the exported root file handle.
func (s *Server) RootFH() nfsproto.FH { return s.FS.FH(s.FS.Root()) }

// countErr records one NFS-level failure.
func (s *Server) countErr() { s.cErrors.Inc() }

// svcNow reads the clock used for service-time measurement: virtual time
// under the simulator, wall clock when serving real sockets (p == nil).
func (s *Server) svcNow(p *sim.Proc) time.Duration {
	if p != nil {
		return time.Duration(p.Now())
	}
	return time.Since(s.epoch)
}

// charge bills CPU when attached to a simulated node.
func (s *Server) charge(p *sim.Proc, bucket netsim.Bucket, us float64) {
	if s.Node == nil || p == nil {
		return
	}
	s.Node.ChargeCPU(p, bucket, s.Node.Model.Cost(us))
}

// errStatus maps memfs errors to NFS status codes.
func errStatus(err error) nfsproto.Status {
	switch err {
	case nil:
		return nfsproto.OK
	case memfs.ErrNoEnt:
		return nfsproto.ErrNoEnt
	case memfs.ErrExist:
		return nfsproto.ErrExist
	case memfs.ErrNotDir:
		return nfsproto.ErrNotDir
	case memfs.ErrIsDir:
		return nfsproto.ErrIsDir
	case memfs.ErrNotEmpty:
		return nfsproto.ErrNotEmpty
	case memfs.ErrStale:
		return nfsproto.ErrStale
	case memfs.ErrNoSpc:
		return nfsproto.ErrNoSpc
	case memfs.ErrNameLen:
		return nfsproto.ErrNameTooLong
	default:
		return nfsproto.ErrIO
	}
}

// HandleCall processes one RPC request message and returns the reply
// message (nil for undecodable garbage, which real servers also drop).
// peer identifies the caller for duplicate-request caching.
func (s *Server) HandleCall(p *sim.Proc, peer string, req *mbuf.Chain) *mbuf.Chain {
	return s.HandleCallSpan(p, peer, req, nil)
}

// HandleCallSpan is HandleCall carrying the request's latency span: the
// concurrent frontends pass their per-worker span so the decode, dupcache
// and service stages — and any lock waits underneath them — are attributed
// to this request. sp may be nil (the simulator and tests pass nil), and
// every stamp below is nil-safe.
func (s *Server) HandleCallSpan(p *sim.Proc, peer string, req *mbuf.Chain, sp *metrics.Span) *mbuf.Chain {
	reqLen := req.Len()
	s.cBytesIn.Add(int64(reqLen))
	d := xdr.NewDecoder(req)
	var call rpc.Call
	if err := rpc.DecodeCallInto(d, &call); err != nil {
		sp.SetErr()
		return nil
	}
	sp.SetCall(call.XID, call.Proc)
	sp.Stamp(metrics.StageDecode)
	out := s.serve(p, peer, &call, req, d, sp)
	if out != nil {
		// Every reply that leaves counts: accept-stat rejections and
		// dupcache replays as much as fresh results.
		s.cBytesOut.Add(int64(out.Len()))
	}
	return out
}

// serve routes a decoded call header to its program and builds the reply;
// nil means the call is dropped without one. The header-only procedures go
// to their flat wrapper (fastpath.go), the arguments from d's offset on.
func (s *Server) serve(p *sim.Proc, peer string, call *rpc.Call, req *mbuf.Chain, d *xdr.Decoder, sp *metrics.Span) *mbuf.Chain {
	reqLen := req.Len()
	if flatEligible(call.Prog, call.Vers, call.Proc) {
		return s.serveGathered(p, peer, call, req, reqLen-d.Remaining(), sp)
	}
	if call.Prog == nfsproto.MountProgram && call.Vers == nfsproto.MountVersion &&
		call.Proc <= nfsproto.MountProcExport {
		out := newReply(call.XID, rpc.Success)
		if err := s.dispatchMount(p, call.Proc, peer, d, xdr.NewEncoder(out)); err != nil {
			out.Free()
			out = newReply(call.XID, rpc.GarbageArgs)
		}
		return out
	}
	unavailable := call.Proc >= nfsproto.NumProcsExt ||
		(call.Proc >= nfsproto.NumProcs && !s.extensionEnabled(call.Proc))
	if call.Prog != nfsproto.Program || call.Vers != nfsproto.Version || unavailable {
		stat := uint32(rpc.ProcUnavail)
		if call.Prog != nfsproto.Program {
			stat = rpc.ProgUnavail
		} else if call.Vers != nfsproto.Version {
			stat = rpc.ProgMismatch
		}
		return newReply(call.XID, stat)
	}
	f := callFrame{peer: peer, xid: call.XID, proc: call.Proc}
	replay, run := s.admit(p, &f, reqLen, sp)
	if !run {
		if replay == nil {
			return nil
		}
		return replay.Clone()
	}
	out := newReply(call.XID, rpc.Success)
	err := s.dispatch(p, call.Proc, peer, d, xdr.NewEncoder(out), sp)
	sp.Stamp(metrics.StageService)
	if err != nil {
		// Argument decode failure: garbage args.
		sp.SetErr()
		out.Free()
		out = newReply(call.XID, rpc.GarbageArgs)
	}
	var saved *mbuf.Chain
	if nfsproto.NonIdempotent[call.Proc] {
		saved = out.Clone()
	}
	s.finish(p, &f, out.Len(), err != nil, saved, sp)
	return out
}

// newReply starts a reply chain with the RPC header for acceptStat.
func newReply(xid, acceptStat uint32) *mbuf.Chain {
	out := &mbuf.Chain{}
	rpc.EncodeReply(out, xid, acceptStat)
	return out
}

// dispatch decodes arguments from d and encodes results onto e. A returned
// error means the arguments were garbage; NFS-level failures are encoded as
// statuses.
func (s *Server) dispatch(p *sim.Proc, proc uint32, peer string, d *xdr.Decoder, e *xdr.Encoder, sp *metrics.Span) error {
	switch proc {
	case nfsproto.ProcLease:
		return s.leaseCall(p, peer, d, e)
	case nfsproto.ProcVacated:
		return s.vacatedCall(p, peer, d, e)
	case nfsproto.ProcReaddirLook:
		return s.readdirLook(p, d, e)
	case nfsproto.ProcRead:
		return s.read(p, peer, d, e, sp)
	case nfsproto.ProcWrite:
		return s.write(p, peer, d, e, sp)
	case nfsproto.ProcCreate:
		return s.create(p, peer, d, e, sp)
	case nfsproto.ProcRemove:
		return s.remove(p, peer, d, e)
	case nfsproto.ProcRename:
		return s.rename(p, d, e)
	case nfsproto.ProcLink:
		return s.link(p, d, e)
	case nfsproto.ProcSymlink:
		return s.symlink(p, d, e)
	case nfsproto.ProcMkdir:
		return s.mkdir(p, d, e)
	case nfsproto.ProcRmdir:
		return s.rmdir(p, d, e)
	default:
		// ROOT and WRITECACHE are obsolete/unused; the header-only
		// procedures never reach here (serveGathered).
		(&nfsproto.StatusRes{Status: nfsproto.ErrIO}).Encode(e)
		return nil
	}
}

// The header-only procedures have one wrapper, in the flat codec
// (fastpath.go); the payload procedures below encode onto the reply chain.

func (r *procResult) encodeAttr(e *xdr.Encoder) {
	(&nfsproto.AttrRes{Status: r.status, Attr: &r.attr}).Encode(e)
	if r.granted {
		r.grant.Encode(e)
	}
}

func (r *procResult) encodeDirop(e *xdr.Encoder) {
	(&nfsproto.DiropRes{Status: r.status, File: r.file, Attr: &r.attr}).Encode(e)
	if r.granted {
		r.grant.Encode(e)
	}
}

// scanDirectory walks the directory's blocks through the buffer cache,
// charging CPU for the buffers examined and the disk for misses. This is
// where the Reno/Ultrix lookup gap of Graphs 8-9 comes from. Probe and
// reserve are one critical section, so two nfsds scanning the same
// directory never double-insert; the charge and the disk sleep come after.
func (s *Server) scanDirectory(p *sim.Proc, dir *memfs.Inode, sp *metrics.Span) {
	nblocks := s.FS.DirBlocks(dir)
	for b := 0; b < nblocks; b++ {
		key := vfs.BufKey{Vnode: dir.Ino, Gen: dir.Gen, Block: uint32(b)}
		hit, scanned := s.bufc.LookupOrReserve(key, sp)
		s.charge(p, netsim.BucketDirScan, costDirScanBuf*float64(scanned+1))
		if !hit {
			s.FS.Disk.Read(p, memfs.BlockSize)
		}
	}
}

func (s *Server) read(p *sim.Proc, peer string, d *xdr.Decoder, e *xdr.Encoder, sp *metrics.Span) error {
	args, err := nfsproto.DecodeReadArgs(d)
	if err != nil {
		return err
	}
	s.charge(p, netsim.BucketNFS, costVOP)
	if s.leaseConflict(p, args.File, false, peer) {
		(&nfsproto.ReadRes{Status: nfsproto.ErrTryLater}).Encode(e)
		return nil
	}
	n, err := s.FS.Resolve(args.File)
	if err != nil {
		(&nfsproto.ReadRes{Status: errStatus(err)}).Encode(e)
		return nil
	}
	// Buffer cache residency decides whether the disk pays. An aligned 8K
	// read touches one block; unaligned reads touch two.
	first := args.Offset / memfs.BlockSize
	last := first
	if args.Count > 0 {
		last = (args.Offset + args.Count - 1) / memfs.BlockSize
	}
	cached := true
	for b := first; b <= last; b++ {
		key := vfs.BufKey{Vnode: n.Ino, Gen: n.Gen, Block: b}
		hit, scanned := s.bufc.LookupOrReserve(key, sp)
		s.charge(p, netsim.BucketDirScan, costDirScanBuf*float64(scanned+1))
		if !hit {
			cached = false
		}
	}
	// File blocks are loaned straight into the reply chain — no staging
	// buffer, no copy (the blocks go copy-on-write against later writers).
	// The reference port still *pays* for the buffer-cache-to-mbuf copy —
	// the §3 "third bottleneck" — as a CPU charge; only the Reno LendPages
	// personality skips it.
	data := &mbuf.Chain{}
	got, err := s.FS.ReadLoan(p, n, args.Offset, args.Count, cached, data, sp)
	if err != nil {
		data.Free()
		(&nfsproto.ReadRes{Status: errStatus(err)}).Encode(e)
		return nil
	}
	if !s.Opts.LendPages {
		s.charge(p, netsim.BucketBufCopy, costBufCopyByte*float64(got))
	}
	attr := s.FS.Attr(n)
	(&nfsproto.ReadRes{Status: nfsproto.OK, Attr: &attr, Data: data}).Encode(e)
	return nil
}

func (s *Server) write(p *sim.Proc, peer string, d *xdr.Decoder, e *xdr.Encoder, sp *metrics.Span) error {
	args, err := nfsproto.DecodeWriteArgs(d)
	if err != nil {
		return err
	}
	hint := nfsproto.DecodeLeaseHint(d)
	// Data is a view into the request chain; drop its storage references
	// once the payload has landed in file blocks.
	defer args.Data.Free()
	s.charge(p, netsim.BucketNFS, costVOP)
	if s.leaseConflict(p, args.File, true, peer) {
		(&nfsproto.AttrRes{Status: nfsproto.ErrTryLater}).Encode(e)
		return nil
	}
	n, err := s.FS.Resolve(args.File)
	if err != nil {
		(&nfsproto.AttrRes{Status: errStatus(err)}).Encode(e)
		return nil
	}
	// mbuf -> buffer cache copy (charged; the substrate moves the payload
	// segment-by-segment from the request view into file blocks).
	s.charge(p, netsim.BucketBufCopy, costBufCopyByte*float64(args.Data.Len()))
	// Synchronous writes: data + inode, plus an indirect block once the
	// file outgrows its direct blocks (UFS: 12 of them).
	diskWrites := 2
	if args.Offset/memfs.BlockSize >= 12 {
		diskWrites = 3
	}
	if s.Opts.WriteGathering && s.Node != nil {
		// Within the gather window, only the data block is synchronous;
		// the metadata updates ride the window's single commit.
		const gatherWindow = 100 * time.Millisecond
		now := s.now()
		s.gatherMu.Lock()
		if s.gather == nil {
			s.gather = make(map[nfsproto.FH]sim.Time)
		}
		if now < s.gather[args.File] {
			diskWrites = 1
		} else {
			s.gather[args.File] = now + gatherWindow
		}
		s.gatherMu.Unlock()
	}
	if err := s.FS.WriteAtChain(p, n, args.Offset, args.Data, diskWrites, sp); err != nil {
		(&nfsproto.AttrRes{Status: errStatus(err)}).Encode(e)
		return nil
	}
	// The written block is now cached.
	s.bufc.EnsureResident(vfs.BufKey{Vnode: n.Ino, Gen: n.Gen, Block: args.Offset / memfs.BlockSize}, sp)
	var r procResult
	s.okResult(&r, peer, args.File, n, hint)
	r.encodeAttr(e)
	return nil
}

func (s *Server) create(p *sim.Proc, peer string, d *xdr.Decoder, e *xdr.Encoder, sp *metrics.Span) error {
	args, err := nfsproto.DecodeCreateArgs(d)
	if err != nil {
		return err
	}
	hint := nfsproto.DecodeLeaseHint(d)
	s.charge(p, netsim.BucketNFS, costVOP)
	dir, err := s.FS.Resolve(args.Where.Dir)
	if err != nil {
		(&nfsproto.DiropRes{Status: errStatus(err)}).Encode(e)
		return nil
	}
	s.scanDirectory(p, dir, sp)
	mode := args.Attr.Mode
	if mode == nfsproto.NoValue {
		mode = 0644
	}
	n, err := s.FS.Create(p, dir, args.Where.Name, mode)
	if err == memfs.ErrExist {
		// CREATE of an existing file succeeds (truncating per sattr), the
		// way NFS v2 open-for-write works. The truncation is a data write:
		// a foreign lease holder must be evicted first, or its later flush
		// would resurrect the truncated bytes.
		n, err = s.FS.Lookup(dir, args.Where.Name)
		if err == nil && s.leaseConflict(p, s.FS.FH(n), true, peer) {
			(&nfsproto.DiropRes{Status: nfsproto.ErrTryLater}).Encode(e)
			return nil
		}
	}
	if err != nil {
		s.countErr()
		(&nfsproto.DiropRes{Status: errStatus(err)}).Encode(e)
		return nil
	}
	if args.Attr.Size != nfsproto.NoValue {
		trunc := nfsproto.NewSattr()
		trunc.Size = args.Attr.Size
		s.FS.Setattr(p, n, trunc)
	}
	s.namec.Enter(dir.Ino, dir.Gen, args.Where.Name, n.Ino, n.Gen, sp)
	// The grant that kills the §5 ladder's explicit LEASE RPC: a hinted
	// CREATE leaves with a write lease, so the writes that follow stay in
	// the client's cache and close pushes nothing.
	var r procResult
	s.okResult(&r, peer, s.FS.FH(n), n, hint)
	r.encodeDirop(e)
	return nil
}

func (s *Server) remove(p *sim.Proc, peer string, d *xdr.Decoder, e *xdr.Encoder) error {
	args, err := nfsproto.DecodeDiropArgs(d)
	if err != nil {
		return err
	}
	s.charge(p, netsim.BucketNFS, costVOP)
	dir, rerr := s.FS.Resolve(args.Dir)
	if rerr == nil {
		s.scanDirectory(p, dir, nil)
		if n, lerr := s.FS.Lookup(dir, args.Name); lerr == nil {
			// A foreign holder caching the victim must hear about the
			// unlink (and flush nothing into it) before the name goes.
			if s.leaseConflict(p, s.FS.FH(n), true, peer) {
				(&nfsproto.StatusRes{Status: nfsproto.ErrTryLater}).Encode(e)
				return nil
			}
			s.bufc.InvalidateVnode(n.Ino, n.Gen)
			s.namec.PurgeVnode(n.Ino, n.Gen)
		}
		s.namec.Remove(dir.Ino, dir.Gen, args.Name)
		rerr = s.FS.Remove(p, dir, args.Name)
	}
	if rerr != nil {
		s.countErr()
	}
	(&nfsproto.StatusRes{Status: errStatus(rerr)}).Encode(e)
	return nil
}

func (s *Server) rename(p *sim.Proc, d *xdr.Decoder, e *xdr.Encoder) error {
	args, err := nfsproto.DecodeRenameArgs(d)
	if err != nil {
		return err
	}
	s.charge(p, netsim.BucketNFS, costVOP)
	from, ferr := s.FS.Resolve(args.From.Dir)
	to, terr := s.FS.Resolve(args.To.Dir)
	var rerr error
	switch {
	case ferr != nil:
		rerr = ferr
	case terr != nil:
		rerr = terr
	default:
		s.scanDirectory(p, from, nil)
		if to != from {
			s.scanDirectory(p, to, nil)
		}
		s.namec.Remove(from.Ino, from.Gen, args.From.Name)
		s.namec.Remove(to.Ino, to.Gen, args.To.Name)
		rerr = s.FS.Rename(p, from, args.From.Name, to, args.To.Name)
	}
	if rerr != nil {
		s.countErr()
	}
	(&nfsproto.StatusRes{Status: errStatus(rerr)}).Encode(e)
	return nil
}

func (s *Server) link(p *sim.Proc, d *xdr.Decoder, e *xdr.Encoder) error {
	args, err := nfsproto.DecodeLinkArgs(d)
	if err != nil {
		return err
	}
	s.charge(p, netsim.BucketNFS, costVOP)
	n, nerr := s.FS.Resolve(args.From)
	dir, derr := s.FS.Resolve(args.To.Dir)
	var rerr error
	switch {
	case nerr != nil:
		rerr = nerr
	case derr != nil:
		rerr = derr
	default:
		s.scanDirectory(p, dir, nil)
		rerr = s.FS.Link(p, n, dir, args.To.Name)
		if rerr == nil {
			s.namec.Enter(dir.Ino, dir.Gen, args.To.Name, n.Ino, n.Gen, nil)
		}
	}
	if rerr != nil {
		s.countErr()
	}
	(&nfsproto.StatusRes{Status: errStatus(rerr)}).Encode(e)
	return nil
}

func (s *Server) symlink(p *sim.Proc, d *xdr.Decoder, e *xdr.Encoder) error {
	args, err := nfsproto.DecodeSymlinkArgs(d)
	if err != nil {
		return err
	}
	s.charge(p, netsim.BucketNFS, costVOP)
	dir, rerr := s.FS.Resolve(args.From.Dir)
	if rerr == nil {
		s.scanDirectory(p, dir, nil)
		mode := args.Attr.Mode
		if mode == nfsproto.NoValue {
			mode = 0777
		}
		_, rerr = s.FS.Symlink(p, dir, args.From.Name, args.To, mode)
	}
	if rerr != nil {
		s.countErr()
	}
	(&nfsproto.StatusRes{Status: errStatus(rerr)}).Encode(e)
	return nil
}

func (s *Server) mkdir(p *sim.Proc, d *xdr.Decoder, e *xdr.Encoder) error {
	args, err := nfsproto.DecodeCreateArgs(d)
	if err != nil {
		return err
	}
	s.charge(p, netsim.BucketNFS, costVOP)
	dir, rerr := s.FS.Resolve(args.Where.Dir)
	if rerr != nil {
		(&nfsproto.DiropRes{Status: errStatus(rerr)}).Encode(e)
		return nil
	}
	s.scanDirectory(p, dir, nil)
	mode := args.Attr.Mode
	if mode == nfsproto.NoValue {
		mode = 0755
	}
	n, rerr := s.FS.Mkdir(p, dir, args.Where.Name, mode)
	if rerr != nil {
		s.countErr()
		(&nfsproto.DiropRes{Status: errStatus(rerr)}).Encode(e)
		return nil
	}
	s.namec.Enter(dir.Ino, dir.Gen, args.Where.Name, n.Ino, n.Gen, nil)
	attr := s.FS.Attr(n)
	(&nfsproto.DiropRes{Status: nfsproto.OK, File: s.FS.FH(n), Attr: &attr}).Encode(e)
	return nil
}

func (s *Server) rmdir(p *sim.Proc, d *xdr.Decoder, e *xdr.Encoder) error {
	args, err := nfsproto.DecodeDiropArgs(d)
	if err != nil {
		return err
	}
	s.charge(p, netsim.BucketNFS, costVOP)
	dir, rerr := s.FS.Resolve(args.Dir)
	if rerr == nil {
		s.scanDirectory(p, dir, nil)
		if n, lerr := s.FS.Lookup(dir, args.Name); lerr == nil {
			s.namec.PurgeDir(n.Ino, n.Gen)
			s.namec.PurgeVnode(n.Ino, n.Gen)
		}
		s.namec.Remove(dir.Ino, dir.Gen, args.Name)
		rerr = s.FS.Rmdir(p, dir, args.Name)
	}
	if rerr != nil {
		s.countErr()
	}
	(&nfsproto.StatusRes{Status: errStatus(rerr)}).Encode(e)
	return nil
}
