// Package client implements the NFS client with the caching machinery §5
// of the paper studies:
//
//   - a VFS name lookup cache (halves lookup RPCs, Table 3);
//   - file attribute caching with a 5-second timeout;
//   - data caching in an 8 KB buffer cache with dirty-region tracking, so
//     partial-block writes need no preread;
//   - modify-time cache consistency: cached data is purged when the
//     server's mtime differs from the mtime the cache was loaded under.
//     Because a client cannot tell its own writes' mtime changes from
//     other clients', the Reno personality re-reads files it just wrote
//     (the +50% read RPCs of Table 3) while the Ultrix personality assumes
//     its own writes keep the cache valid;
//   - write policies: write-through, asynchronous (biods), and delayed,
//     with push-on-close for close/open consistency — plus the
//     experimental "no consistency" mount flag that disables it all and
//     bounds what a cache consistency protocol could win (Table 5).
package client

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"renonfs/internal/netsim"
	"renonfs/internal/nfsproto"
	"renonfs/internal/sim"
	"renonfs/internal/transport"
	"renonfs/internal/vfs"
	"renonfs/internal/xdr"
)

// Client CPU cost table, µs at 1 MIPS.
const (
	costSyscall      = 250.0 // syscall entry/exit + vnode layer
	costUserCopyByte = 0.5   // user space <-> buffer cache copy
)

// attrTimeout is the attribute cache lifetime (5 s in Reno and Ultrix).
const attrTimeout = 5 * time.Second

// WritePolicy selects what a write system call does (§1 footnote 4).
type WritePolicy int

const (
	// WriteThrough: the write RPC completes before the syscall returns.
	WriteThrough WritePolicy = iota
	// WriteAsync: full blocks are handed to biods as they complete.
	WriteAsync
	// WriteDelayed: blocks stay dirty in the cache until pushed (close,
	// the 30 s update flush, or eviction).
	WriteDelayed
)

func (w WritePolicy) String() string {
	switch w {
	case WriteThrough:
		return "write-through"
	case WriteAsync:
		return "async"
	default:
		return "delayed"
	}
}

// Options configures a mount's personality.
type Options struct {
	Name string
	// NameCache enables the VFS name lookup cache.
	NameCache bool
	// NameCacheCap bounds the name cache (0 = the Reno default); the
	// Ultrix personality models the weaker 4.2BSD-era cache with a small
	// capacity.
	NameCacheCap int
	// Consistency enables mtime-based cache consistency; false is the
	// experimental "noconsist" mount flag.
	Consistency bool
	// PushOnClose flushes delayed writes at close for close/open
	// consistency. Disabling it is the main effect of noconsist.
	PushOnClose bool
	// SelfMtimeValid makes the client treat the mtime movement caused by
	// its own write RPCs as keeping the cache valid (the Ultrix
	// assumption).
	SelfMtimeValid bool
	// DirtyRegionTracking uses the Reno buf fields to write partial blocks
	// without prereading; without it, a partial write to an uncached block
	// inside the file prereads the block first.
	DirtyRegionTracking bool
	// EagerWriteBack queues every dirtied block to the biods immediately
	// (reference-port behaviour; inflates write RPC counts on files
	// written in sub-block chunks).
	EagerWriteBack bool
	// Policy is the write policy.
	Policy WritePolicy
	// Biods is the number of asynchronous I/O daemons (0 degrades async
	// and delayed flushes to synchronous).
	Biods int
	// ReadAhead is how many blocks to prefetch past a sequential read.
	ReadAhead int
	// CacheBufs sizes the data cache.
	CacheBufs int
	// UpdateFlush enables the 30-second dirty-block push.
	UpdateFlush bool
	// UseLeases enables the NQNFS-style lease extension: with a write
	// lease held, delayed writes are safe without push-on-close.
	UseLeases bool
	// LeaseDuration is the requested lease term (default 30s).
	LeaseDuration sim.Time
	// ReaddirLook lists directories with the readdir_and_lookup_files
	// extension when the server offers it.
	ReaddirLook bool
	// AdaptiveRsize shrinks the read transfer size when big RPCs keep
	// timing out (fragment loss) and grows it back on success — the §4
	// "adjust the size dynamically, based on the IP fragment drop rate"
	// further-work item.
	AdaptiveRsize bool
}

// Reno returns the tuned 4.3BSD Reno client personality.
func Reno() Options {
	return Options{
		Name: "reno", NameCache: true,
		Consistency: true, PushOnClose: true,
		DirtyRegionTracking: true, Policy: WriteDelayed, Biods: 4,
		ReadAhead: 1, CacheBufs: 256, UpdateFlush: true,
	}
}

// RenoNoConsist returns Reno with the experimental mount flag that
// disables all cache consistency (the optimistic bound of §5).
func RenoNoConsist() Options {
	o := Reno()
	o.Name = "reno-noconsist"
	o.Consistency = false
	o.PushOnClose = false
	return o
}

// Ultrix returns the Sun-reference-port client personality. Its name
// cache is the weak 4.2BSD-era one: tiny, which is what leaves it with
// roughly two and a half times Reno's lookup RPCs in Table 3.
func Ultrix() Options {
	return Options{
		Name: "ultrix", NameCache: true, NameCacheCap: 12,
		Consistency: true, PushOnClose: true,
		SelfMtimeValid: true, DirtyRegionTracking: false,
		EagerWriteBack: true, Policy: WriteAsync, Biods: 4,
		ReadAhead: 1, CacheBufs: 256, UpdateFlush: true,
	}
}

// Stats counts client activity.
type Stats struct {
	Calls                          [nfsproto.NumProcsExt]int
	ReadBytes                      int
	WriteBytes                     int
	CacheReadHits, CacheReadMisses int
	Prereads                       int
	Invalidates                    int
	// Lease extension counters. LeasePiggyGrants counts the subset of
	// LeasesGranted that arrived piggybacked on ordinary replies rather
	// than through an explicit LEASE call.
	LeasesGranted    int
	LeasePiggyGrants int
	LeaseTryLater    int
	LeaseEvictions   int
}

// TotalCalls sums all RPCs issued.
func (s *Stats) TotalCalls() int {
	n := 0
	for _, c := range s.Calls {
		n += c
	}
	return n
}

// RPCCount returns the count for one procedure.
func (s *Stats) RPCCount(proc uint32) int { return s.Calls[proc] }

var (
	// ErrNotDir is returned when a path component is not a directory.
	ErrNotDir = errors.New("client: not a directory")
	// ErrIsDir is returned for file I/O on a directory.
	ErrIsDir = errors.New("client: is a directory")
	// ErrClosed is returned for I/O on a closed file.
	ErrClosed = errors.New("client: file closed")
)

type vnKey struct {
	fileid uint32
	gen    uint32
}

// vnode is the client's in-core file object.
type vnode struct {
	fh     nfsproto.FH
	fileid uint32
	gen    uint32

	attr      nfsproto.Fattr
	attrValid bool
	attrTime  sim.Time

	// cachedMtime is the server mtime the cached data corresponds to.
	cachedMtime    nfsproto.Time
	hasCachedMtime bool

	// size as the client believes it (local writes extend it before the
	// server hears about them).
	size uint32

	// dirCache caches a full READDIR listing, valid while mtime holds.
	dirCache      []nfsproto.DirEntry
	dirCacheMtime nfsproto.Time

	lastReadBlock uint32
	hasLastRead   bool

	// mayBeDirty is false only while no buffer of the vnode is dirty: the
	// write path sets it before it dirties one and flushVnode clears it
	// when it finds none, so the update sweep can skip the vnode.
	mayBeDirty bool

	pendingFlushes int
	// inFlight counts queued-or-executing async writes per block, so
	// same-block writes stay ordered (the B_BUSY discipline).
	inFlight  map[uint32]int
	flushDone *sim.Cond
}

// Mount is one mounted NFS filesystem.
type Mount struct {
	Opts   Options
	Node   *netsim.Node
	tr     transport.Transport
	env    *sim.Env
	root   *vnode
	vns    map[vnKey]*vnode
	byID   []*vnode // vns's values in (fileid, gen) order; neither shrinks
	sweep  []*vnode // the update daemon's snapshot of byID, reused
	bufc   *vfs.BufCache
	namec  *vfs.NameCache
	biodQs []*sim.Queue[flushJob] // per-biod queues; write jobs hash by block
	Stats  Stats
	closed bool

	// Lease extension state (lease.go).
	leases       map[vnKey]*clientLease
	cbSock       *netsim.UDPSocket
	cbPort       int
	leasesBroken bool
	rdlBroken    bool

	// Adaptive transfer size state (io.go).
	rsize     int
	goodReads int
}

// flushJob is one block write (or, with nil data, a read-ahead) handed to
// a biod.
type flushJob struct {
	vn     *vnode
	block  uint32
	offset uint32
	data   []byte
}

// NewMount creates a mount over the transport with the server's root
// handle, in the transport's environment. With a nil node, as over a real
// socket (transport.DialUDP), nothing charges CPU and leases are off.
func NewMount(node *netsim.Node, tr transport.Transport, rootFH nfsproto.FH, opts Options) *Mount {
	if opts.CacheBufs == 0 {
		opts.CacheBufs = 256
	}
	opts.UseLeases = opts.UseLeases && node != nil // callbacks need a node's socket
	env := tr.Env()
	m := &Mount{
		Opts:  opts,
		Node:  node,
		tr:    tr,
		env:   env,
		vns:   make(map[vnKey]*vnode),
		bufc:  vfs.NewBufCache(opts.CacheBufs, true),
		namec: vfs.NewNameCache(),
	}
	m.namec.Enabled = opts.NameCache
	if opts.NameCacheCap > 0 {
		m.namec.Capacity = opts.NameCacheCap
	}
	_, fileid, gen := rootFH.Parts()
	m.root = &vnode{fh: rootFH, fileid: fileid, gen: gen,
		inFlight: make(map[uint32]int), flushDone: sim.NewCond(env)}
	m.root.attr.Type = nfsproto.TypeDir
	m.addVnode(m.root)
	m.rsize = vfs.BlockSize
	for i := 0; i < opts.Biods; i++ {
		q := sim.NewQueue[flushJob](env, fmt.Sprintf("%s.biodq%d", opts.Name, i))
		m.biodQs = append(m.biodQs, q)
		env.Spawn(fmt.Sprintf("%s.biod%d", opts.Name, i), func(p *sim.Proc) { m.biod(p, q) })
	}
	if opts.UseLeases {
		m.initLeases()
	}
	if opts.UpdateFlush {
		env.Spawn(opts.Name+".update", m.updateDaemon)
	}
	return m
}

// Transport exposes the underlying transport (for its stats).
func (m *Mount) Transport() transport.Transport { return m.tr }

// NameCacheStats exposes client name-cache counters.
func (m *Mount) NameCacheStats() vfs.NameCacheStats { return m.namec.Stats }

// Close flushes everything and shuts the mount down.
func (m *Mount) Close(p *sim.Proc) {
	if m.closed {
		return
	}
	m.SyncAll(p)
	m.vacateAll(p)
	m.closed = true
	for _, q := range m.biodQs {
		q.Close()
	}
	m.tr.Close()
}

// charge bills client CPU to the node, if there is one.
func (m *Mount) charge(p *sim.Proc, bucket netsim.Bucket, us float64) {
	if p == nil || m.Node == nil {
		return
	}
	m.Node.ChargeCPU(p, bucket, m.Node.Model.Cost(us))
}

// call issues one RPC, counting each attempt. The caller hands the reply
// back (m.tr.Release) once it has decoded it. An NFSERR_TRYLATER answer
// means the server is evicting a conflicting lease holder for us, so call
// backs off and asks again, up to eight times. Every NFS result begins with
// its status, which call reads from a copy of the decoder, leaving the
// caller's cursor at the start. LEASE counts its own TRYLATERs and retries
// itself (getLease).
func (m *Mount) call(p *sim.Proc, proc uint32, args func(e *xdr.Encoder)) (*xdr.Decoder, error) {
	for attempt := 0; ; attempt++ {
		m.Stats.Calls[proc]++
		d, err := m.tr.Call(p, proc, args)
		if err != nil || proc == nfsproto.ProcLease || attempt >= 8 {
			return d, err
		}
		peek := *d
		if st, _ := peek.Uint32(); nfsproto.Status(st) != nfsproto.ErrTryLater {
			return d, nil
		}
		m.tr.Release(d)
		tryLaterBackoff(p, attempt)
	}
}

// tryLaterBackoff sleeps before retrying an operation refused with
// NFSERR_TRYLATER (the server is evicting a conflicting lease holder).
func tryLaterBackoff(p *sim.Proc, attempt int) {
	d := time.Duration(attempt+1) * 500 * time.Millisecond
	if d > 3*time.Second {
		d = 3 * time.Second
	}
	p.Sleep(d)
}

// getVnode interns a vnode for a handle.
func (m *Mount) getVnode(fh nfsproto.FH) *vnode {
	_, fileid, gen := fh.Parts()
	k := vnKey{fileid, gen}
	if vn := m.vns[k]; vn != nil {
		return vn
	}
	vn := &vnode{fh: fh, fileid: fileid, gen: gen,
		inFlight: make(map[uint32]int), flushDone: sim.NewCond(m.env)}
	m.addVnode(vn)
	return vn
}

// addVnode enters vn in the table and in its ordered view.
func (m *Mount) addVnode(vn *vnode) {
	m.vns[vnKey{vn.fileid, vn.gen}] = vn
	i, _ := slices.BinarySearchFunc(m.byID, vn, func(a, b *vnode) int {
		return cmp.Or(cmp.Compare(a.fileid, b.fileid), cmp.Compare(a.gen, b.gen))
	})
	m.byID = slices.Insert(m.byID, i, vn)
}

// updateAttrs folds a server-provided fattr into the attribute cache.
// selfWrite marks attrs returned by our own write RPCs: under the Ultrix
// assumption those keep the cache valid.
func (m *Mount) updateAttrs(vn *vnode, a *nfsproto.Fattr, selfWrite bool) {
	vn.attr = *a
	vn.attrValid = true
	vn.attrTime = m.env.Now()
	// The local size only grows from server attributes: unflushed delayed
	// writes may extend the file beyond what the server knows. It shrinks
	// only when the cache is invalidated (server authoritative again).
	if a.Size > vn.size {
		vn.size = a.Size
	}
	if !vn.hasCachedMtime {
		vn.cachedMtime = a.Mtime
		vn.hasCachedMtime = true
	} else if selfWrite && m.Opts.SelfMtimeValid {
		vn.cachedMtime = a.Mtime
	}
}

// freshAttrs ensures the attribute cache is within its timeout, issuing a
// GETATTR when it is not. Attribute caching is independent of the
// experimental no-consistency flag: that flag disables *data* consistency
// (purges and push-on-close), but stat-style attribute traffic continues,
// which is why the paper's Reno-noconsist run still shows ~780 getattr RPCs
// (Table 3).
func (m *Mount) freshAttrs(p *sim.Proc, vn *vnode) error {
	// Under a live lease the attributes are coherent by contract — the
	// server evicts us before letting them change — so even a timed-out
	// attribute cache is served RPC-free.
	if m.Opts.UseLeases && vn.attrValid && m.leaseFor(vn, nfsproto.LeaseRead) != nil {
		return nil
	}
	if vn.attrValid && m.env.Now()-vn.attrTime <= attrTimeout {
		return nil
	}
	d, err := m.call(p, nfsproto.ProcGetattr, func(e *xdr.Encoder) {
		(&nfsproto.GetattrArgs{File: vn.fh}).Encode(e)
		if m.wantHint() {
			m.leaseHint(e, nfsproto.LeaseRead)
		}
	})
	if err != nil {
		return err
	}
	defer m.tr.Release(d)
	res, err := nfsproto.DecodeAttrRes(d)
	if err != nil {
		return err
	}
	if res.Status != nfsproto.OK {
		return res.Status.Error()
	}
	m.updateAttrs(vn, res.Attr, false)
	m.absorbPiggy(p, d, vn)
	return nil
}

// checkConsistency validates cached data against the server mtime and
// purges it when the file changed (§2: "cached data is flushed whenever
// the modify time changes").
func (m *Mount) checkConsistency(p *sim.Proc, vn *vnode) error {
	if err := m.freshAttrs(p, vn); err != nil {
		return err
	}
	if !m.Opts.Consistency {
		return nil // attributes refreshed, but cached data is never purged
	}
	if !vn.hasCachedMtime {
		vn.cachedMtime = vn.attr.Mtime
		vn.hasCachedMtime = true
		return nil
	}
	if vn.attr.Mtime != vn.cachedMtime {
		// Our own unflushed delayed writes are newer than anything the
		// server has; push them before purging, or the purge loses data
		// (vinvalbuf with V_SAVE semantics).
		m.flushVnode(p, vn, true)
		m.invalidate(vn)
		vn.cachedMtime = vn.attr.Mtime
	}
	return nil
}

// invalidate purges the vnode's cached blocks, directory cache and name
// cache entries. Dirty blocks are discarded — callers flush first when the
// data must survive.
func (m *Mount) invalidate(vn *vnode) {
	m.Stats.Invalidates++
	m.bufc.InvalidateVnode(vn.fileid, vn.gen)
	vn.dirCache = nil
	if vn.attrValid {
		vn.size = vn.attr.Size
	}
	if vn.attr.Type == nfsproto.TypeDir {
		m.namec.PurgeDir(vn.fileid, vn.gen)
	}
	vn.hasLastRead = false
}

// lookupComponent resolves one path component.
func (m *Mount) lookupComponent(p *sim.Proc, dir *vnode, name string) (*vnode, error) {
	if dir.attrValid && dir.attr.Type != nfsproto.TypeDir {
		return nil, ErrNotDir
	}
	if name == "." || name == "" {
		return dir, nil
	}
	// Keep the directory's cached translations honest before using them.
	if err := m.checkConsistency(p, dir); err != nil {
		return nil, err
	}
	if vid, vgen, neg, found := m.namec.Lookup(dir.fileid, dir.gen, name); found {
		if neg {
			return nil, (&nfsproto.StatusError{Status: nfsproto.ErrNoEnt})
		}
		if vn := m.vns[vnKey{vid, vgen}]; vn != nil {
			return vn, nil
		}
		m.namec.Remove(dir.fileid, dir.gen, name)
	}
	d, err := m.call(p, nfsproto.ProcLookup, func(e *xdr.Encoder) {
		(&nfsproto.DiropArgs{Dir: dir.fh, Name: name}).Encode(e)
		if m.wantHint() {
			m.leaseHint(e, nfsproto.LeaseRead)
		}
	})
	if err != nil {
		return nil, err
	}
	defer m.tr.Release(d)
	res, err := nfsproto.DecodeDiropRes(d)
	if err != nil {
		return nil, err
	}
	if res.Status != nfsproto.OK {
		if res.Status == nfsproto.ErrNoEnt {
			m.namec.EnterNegative(dir.fileid, dir.gen, name)
		}
		return nil, res.Status.Error()
	}
	vn := m.getVnode(res.File)
	m.updateAttrs(vn, res.Attr, false)
	m.absorbPiggy(p, d, vn)
	m.namec.Enter(dir.fileid, dir.gen, name, vn.fileid, vn.gen)
	return vn, nil
}

// walk resolves a slash-separated path from the root.
func (m *Mount) walk(p *sim.Proc, path string) (*vnode, error) {
	m.charge(p, netsim.BucketSyscall, costSyscall)
	vn := m.root
	for rest := path; rest != ""; {
		var comp string
		if comp, rest, _ = strings.Cut(rest, "/"); comp == "" {
			continue
		}
		next, err := m.lookupComponent(p, vn, comp)
		if err != nil {
			return nil, err
		}
		vn = next
	}
	return vn, nil
}

// walkParent resolves all but the last component, returning the parent
// vnode and the final name.
func (m *Mount) walkParent(p *sim.Proc, path string) (*vnode, string, error) {
	path = strings.Trim(path, "/")
	i := strings.LastIndex(path, "/")
	if i < 0 {
		return m.root, path, nil
	}
	dir, err := m.walk(p, path[:i])
	if err != nil {
		return nil, "", err
	}
	return dir, path[i+1:], nil
}

// IsNoEnt reports whether err is the NFS no-such-entry error.
func IsNoEnt(err error) bool {
	var se *nfsproto.StatusError
	return errors.As(err, &se) && se.Status == nfsproto.ErrNoEnt
}
