// Package memfs implements the server-local filesystem the NFS server
// exports: a UFS-like inode/directory structure held in memory, with an
// attached disk model (an RD53-class drive as a FIFO resource) so that
// operation latencies and the synchronous-write burden of NFS v2 — every
// write RPC costs 1-3 disk writes on the server (§5) — appear in virtual
// time. With a nil disk the filesystem is purely functional, which is how
// the real-socket server (internal/nfsnet) uses it.
//
// Locking: the filesystem is safe for concurrent callers (the nfsd pool of
// internal/nfsnet). A filesystem-level RWMutex orders namespace changes
// (create/remove/rename/link) against everything else; a per-inode RWMutex
// orders file-data writers against readers, so LOOKUP/GETATTR/READ of
// distinct — or even the same — file run in parallel; and a small per-inode
// metadata mutex covers the fields readers mutate (timestamps and the
// loaned-block marks), because ReadLoan updates both while holding only
// read locks. Lock order is fs.mu → Inode.mu → Inode.metaMu. No lock is
// ever held across a disk charge: under the simulator a disk operation
// parks the calling process, and a mutex held across a park would wedge the
// cooperative scheduler — so every method mutates under its locks first and
// pays the disk after (the pre-existing discipline), and the read paths
// split into a sizing phase, the disk charge, and a copy phase.
package memfs

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"renonfs/internal/lockstat"
	"renonfs/internal/mbuf"
	"renonfs/internal/metrics"
	"renonfs/internal/nfsproto"
	"renonfs/internal/sim"
	"renonfs/internal/vfs"
)

// Contention sites for the two memfs lock populations (process-global: every
// memfs instance in the process shares them): the namespace RW lock and the
// per-inode data/meta locks — both named suspects in the multicore scaling
// hunt.
var (
	treeSite  = lockstat.NewSite("memfs.tree")
	inodeSite = lockstat.NewSite("memfs.inode")
)

// BlockSize is the filesystem block size (matches the NFS transfer size).
const BlockSize = vfs.BlockSize

// Errors mapped to NFS status codes by the server.
var (
	ErrNoEnt    = errors.New("memfs: no such file or directory")
	ErrExist    = errors.New("memfs: file exists")
	ErrNotDir   = errors.New("memfs: not a directory")
	ErrIsDir    = errors.New("memfs: is a directory")
	ErrNotEmpty = errors.New("memfs: directory not empty")
	ErrStale    = errors.New("memfs: stale file handle")
	ErrNoSpc    = errors.New("memfs: no space")
	ErrNameLen  = errors.New("memfs: name too long")
)

// Disk models one drive: a FIFO resource with per-operation seek/rotate
// latency plus a transfer rate.
type Disk struct {
	res      *sim.Resource
	seek     sim.Time
	perByte  float64 // ns per byte
	ReadOps  int
	WriteOps int
}

// RD53 parameters: ~27 ms average seek+rotate, ~1.2 MB/s sustained
// transfer.
const (
	rd53Seek    = 27 * 1e6 // ns
	rd53PerByte = 830.0    // ns/byte ≈ 1.2 MB/s
)

// NewRD53 returns an RD53-class disk bound to env.
func NewRD53(env *sim.Env, name string) *Disk {
	return &Disk{
		res:     sim.NewResource(env, name, 1),
		seek:    sim.Time(rd53Seek),
		perByte: rd53PerByte,
	}
}

// opTime returns the service time for one n-byte transfer.
func (d *Disk) opTime(n int) sim.Time {
	return d.seek + sim.Time(float64(n)*d.perByte)
}

// Read charges one read of n bytes.
func (d *Disk) Read(p *sim.Proc, n int) {
	if d == nil || p == nil {
		return
	}
	d.ReadOps++
	d.res.Use(p, d.opTime(n))
}

// Write charges one write of n bytes.
func (d *Disk) Write(p *sim.Proc, n int) {
	if d == nil || p == nil {
		return
	}
	d.WriteOps++
	d.res.Use(p, d.opTime(n))
}

// Utilization reports the disk's busy fraction.
func (d *Disk) Utilization() float64 {
	if d == nil {
		return 0
	}
	return d.res.Utilization()
}

// ResetStats restarts the utilization accounting window.
func (d *Disk) ResetStats() {
	if d != nil {
		d.res.ResetStats()
	}
}

// DirEnt is one directory entry.
type DirEnt struct {
	Name string
	Ino  uint32
}

// Inode is one file, directory or symlink.
type Inode struct {
	Ino   uint32
	Gen   uint32
	Type  nfsproto.FileType
	Mode  uint32
	UID   uint32
	GID   uint32
	Nlink uint32
	Size  uint32
	Atime nfsproto.Time
	Mtime nfsproto.Time
	Ctime nfsproto.Time

	blocks map[uint32][]byte // file data, BlockSize chunks
	// loaned marks blocks whose storage has been lent into a reply chain by
	// ReadLoan. A loaned block is immutable: writers replace it with a fresh
	// copy (writableBlock) rather than scribbling under the network code —
	// the block-replace discipline that makes BSD cluster loaning safe.
	loaned map[uint32]bool
	dir    []DirEnt // directory entries, sorted by name
	target string   // symlink target

	// mu orders file-data access: readers (ReadLoan/Attr) share it, writers
	// (WriteAtChain/Setattr) hold it exclusively.
	mu sync.RWMutex
	// metaMu covers timestamps and the loaned map, which read-side
	// operations mutate while holding only mu.RLock (every READ touches
	// Atime and marks its blocks loaned). Leaf lock: nothing is acquired
	// under it.
	metaMu sync.Mutex
}

// FS is the exported filesystem.
type FS struct {
	// mu is the namespace lock: directory structure, the inode table and
	// link counts change under the write lock; everything else (lookups,
	// handle resolution, attribute reads, data I/O) runs under the read
	// lock and proceeds in parallel.
	mu      sync.RWMutex
	FSID    uint32
	Disk    *Disk
	clock   func() nfsproto.Time
	inodes  map[uint32]*Inode
	nextIno uint32
	root    *Inode
	// Capacity in blocks, for STATFS.
	TotalBlocks uint32
	usedBlocks  atomic.Int64 // blocks in use, updated lock-free by writers
}

// New creates an empty filesystem. clock supplies file timestamps (wire it
// to the simulation clock); nil uses a counter so timestamps still advance.
func New(fsid uint32, disk *Disk, clock func() nfsproto.Time) *FS {
	fs := &FS{
		FSID:        fsid,
		Disk:        disk,
		clock:       clock,
		inodes:      make(map[uint32]*Inode),
		nextIno:     2, // 2 is the traditional root inode
		TotalBlocks: 65536,
	}
	if fs.clock == nil {
		var tick atomic.Uint32 // concurrent nfsds all advance file times
		fs.clock = func() nfsproto.Time {
			t := tick.Add(1)
			return nfsproto.Time{Sec: t / 100, USec: (t % 100) * 10000}
		}
	}
	fs.root = fs.newInode(nfsproto.TypeDir, 0755)
	fs.root.Nlink = 2
	return fs
}

func (fs *FS) newInode(typ nfsproto.FileType, mode uint32) *Inode {
	now := fs.clock()
	ino := &Inode{
		Ino: fs.nextIno, Gen: 1, Type: typ, Mode: mode,
		Nlink: 1, Atime: now, Mtime: now, Ctime: now,
	}
	if typ == nfsproto.TypeReg {
		ino.blocks = make(map[uint32][]byte)
	}
	fs.nextIno++
	fs.inodes[ino.Ino] = ino
	return ino
}

// Root returns the root directory inode.
func (fs *FS) Root() *Inode { return fs.root }

// Get resolves an inode number, checking the generation for staleness.
func (fs *FS) Get(ino, gen uint32) (*Inode, error) {
	treeSite.RLock(&fs.mu, nil)
	n := fs.inodes[ino]
	fs.mu.RUnlock()
	if n == nil || n.Gen != gen {
		return nil, ErrStale
	}
	return n, nil
}

// Attr fills NFS attributes for the inode.
func (fs *FS) Attr(n *Inode) nfsproto.Fattr {
	treeSite.RLock(&fs.mu, nil) // Nlink changes under the namespace lock
	inodeSite.RLock(&n.mu, nil)
	inodeSite.Lock(&n.metaMu, nil)
	a := nfsproto.Fattr{
		Type: n.Type, Mode: n.Mode, Nlink: n.Nlink, UID: n.UID, GID: n.GID,
		Size: n.Size, BlockSize: BlockSize,
		Blocks: (n.Size + BlockSize - 1) / BlockSize,
		FSID:   fs.FSID, FileID: n.Ino,
		Atime: n.Atime, Mtime: n.Mtime, Ctime: n.Ctime,
	}
	n.metaMu.Unlock()
	n.mu.RUnlock()
	fs.mu.RUnlock()
	return a
}

// FH builds the NFS file handle for an inode.
func (fs *FS) FH(n *Inode) nfsproto.FH {
	return nfsproto.MakeFH(fs.FSID, n.Ino, n.Gen)
}

// Resolve maps a file handle to an inode.
func (fs *FS) Resolve(fh nfsproto.FH) (*Inode, error) {
	fsid, ino, gen := fh.Parts()
	if fsid != fs.FSID {
		return nil, ErrStale
	}
	return fs.Get(ino, gen)
}

// findEntry returns the index of name in dir, or -1. The scan itself is
// free; the *server* charges CPU for it based on its cache discipline.
func findEntry(dir *Inode, name string) int {
	for i := range dir.dir {
		if dir.dir[i].Name == name {
			return i
		}
	}
	return -1
}

// Lookup finds name in dir.
func (fs *FS) Lookup(dir *Inode, name string) (*Inode, error) {
	if dir.Type != nfsproto.TypeDir {
		return nil, ErrNotDir
	}
	if name == "." {
		return dir, nil
	}
	if len(name) > nfsproto.MaxNameLen {
		return nil, ErrNameLen
	}
	treeSite.RLock(&fs.mu, nil)
	defer fs.mu.RUnlock()
	i := findEntry(dir, name)
	if i < 0 {
		return nil, ErrNoEnt
	}
	n := fs.inodes[dir.dir[i].Ino]
	if n == nil {
		return nil, ErrStale
	}
	return n, nil
}

// DirWindow copies the directory's entries from index off on into buf, as
// many as fit, and returns them with the directory's entry count: the
// snapshot a READDIR window reads, sized by the caller to what the window
// can hold (".." handling is left to the server; the root's parent is
// itself). The copy keeps the caller's iteration stable while other nfsds
// insert or remove entries.
func (fs *FS) DirWindow(dir *Inode, off int, buf []DirEnt) (ents []DirEnt, total int) {
	treeSite.RLock(&fs.mu, nil)
	total = len(dir.dir)
	if off < total {
		ents = buf[:copy(buf, dir.dir[off:])]
	}
	fs.mu.RUnlock()
	return ents, total
}

// NumDirBlocks returns how many directory blocks the directory occupies
// (~32 entries per block, the scale a real UFS directory block holds).
// Single-threaded callers only; concurrent ones go through FS.DirBlocks.
func NumDirBlocks(dir *Inode) int {
	n := (len(dir.dir) + 31) / 32
	if n == 0 {
		n = 1
	}
	return n
}

// DirBlocks is NumDirBlocks under the namespace lock.
func (fs *FS) DirBlocks(dir *Inode) int {
	treeSite.RLock(&fs.mu, nil)
	n := NumDirBlocks(dir)
	fs.mu.RUnlock()
	return n
}

func (fs *FS) touch(n *Inode, mtime bool) {
	now := fs.clock()
	inodeSite.Lock(&n.metaMu, nil)
	n.Atime = now
	if mtime {
		n.Mtime = now
		n.Ctime = now
	}
	n.metaMu.Unlock()
}

// insertEntry adds an entry keeping the list sorted.
func insertEntry(dir *Inode, e DirEnt) {
	i := sort.Search(len(dir.dir), func(i int) bool { return dir.dir[i].Name >= e.Name })
	dir.dir = append(dir.dir, DirEnt{})
	copy(dir.dir[i+1:], dir.dir[i:])
	dir.dir[i] = e
}

// Create makes a regular file. The disk pays a directory write plus an
// inode write (synchronously, per NFS statelessness).
func (fs *FS) Create(p *sim.Proc, dir *Inode, name string, mode uint32) (*Inode, error) {
	if dir.Type != nfsproto.TypeDir {
		return nil, ErrNotDir
	}
	if len(name) > nfsproto.MaxNameLen {
		return nil, ErrNameLen
	}
	treeSite.WLock(&fs.mu, nil)
	if findEntry(dir, name) >= 0 {
		fs.mu.Unlock()
		return nil, ErrExist
	}
	n := fs.newInode(nfsproto.TypeReg, mode)
	insertEntry(dir, DirEnt{name, n.Ino})
	fs.touch(dir, true)
	fs.mu.Unlock()
	fs.Disk.Write(p, BlockSize) // directory block
	fs.Disk.Write(p, 512)       // inode
	return n, nil
}

// Mkdir makes a directory.
func (fs *FS) Mkdir(p *sim.Proc, dir *Inode, name string, mode uint32) (*Inode, error) {
	if dir.Type != nfsproto.TypeDir {
		return nil, ErrNotDir
	}
	if len(name) > nfsproto.MaxNameLen {
		return nil, ErrNameLen
	}
	treeSite.WLock(&fs.mu, nil)
	if findEntry(dir, name) >= 0 {
		fs.mu.Unlock()
		return nil, ErrExist
	}
	n := fs.newInode(nfsproto.TypeDir, mode)
	n.Nlink = 2
	dir.Nlink++
	insertEntry(dir, DirEnt{name, n.Ino})
	fs.touch(dir, true)
	fs.mu.Unlock()
	fs.Disk.Write(p, BlockSize)
	fs.Disk.Write(p, 512)
	return n, nil
}

// Symlink makes a symbolic link.
func (fs *FS) Symlink(p *sim.Proc, dir *Inode, name, target string, mode uint32) (*Inode, error) {
	if dir.Type != nfsproto.TypeDir {
		return nil, ErrNotDir
	}
	treeSite.WLock(&fs.mu, nil)
	if findEntry(dir, name) >= 0 {
		fs.mu.Unlock()
		return nil, ErrExist
	}
	n := fs.newInode(nfsproto.TypeLnk, mode)
	n.target = target
	n.Size = uint32(len(target))
	insertEntry(dir, DirEnt{name, n.Ino})
	fs.touch(dir, true)
	fs.mu.Unlock()
	fs.Disk.Write(p, BlockSize)
	fs.Disk.Write(p, 512)
	return n, nil
}

// Readlink returns a symlink's target.
func (fs *FS) Readlink(n *Inode) (string, error) {
	if n.Type != nfsproto.TypeLnk {
		return "", ErrNoEnt
	}
	return n.target, nil
}

// Remove unlinks a file or symlink.
func (fs *FS) Remove(p *sim.Proc, dir *Inode, name string) error {
	treeSite.WLock(&fs.mu, nil)
	i := findEntry(dir, name)
	if i < 0 {
		fs.mu.Unlock()
		return ErrNoEnt
	}
	n := fs.inodes[dir.dir[i].Ino]
	if n != nil && n.Type == nfsproto.TypeDir {
		fs.mu.Unlock()
		return ErrIsDir
	}
	dir.dir = append(dir.dir[:i], dir.dir[i+1:]...)
	fs.touch(dir, true)
	if n != nil {
		n.Nlink--
		if n.Nlink == 0 {
			fs.freeInode(n)
		}
	}
	fs.mu.Unlock()
	fs.Disk.Write(p, BlockSize)
	fs.Disk.Write(p, 512)
	return nil
}

// Rmdir removes an empty directory.
func (fs *FS) Rmdir(p *sim.Proc, dir *Inode, name string) error {
	treeSite.WLock(&fs.mu, nil)
	i := findEntry(dir, name)
	if i < 0 {
		fs.mu.Unlock()
		return ErrNoEnt
	}
	n := fs.inodes[dir.dir[i].Ino]
	if n == nil || n.Type != nfsproto.TypeDir {
		fs.mu.Unlock()
		return ErrNotDir
	}
	if len(n.dir) != 0 {
		fs.mu.Unlock()
		return ErrNotEmpty
	}
	dir.dir = append(dir.dir[:i], dir.dir[i+1:]...)
	dir.Nlink--
	fs.touch(dir, true)
	fs.freeInode(n)
	fs.mu.Unlock()
	fs.Disk.Write(p, BlockSize)
	fs.Disk.Write(p, 512)
	return nil
}

// freeInode runs under fs.mu (write). The inode lock orders the Size read
// against a writer still streaming into the now-unlinked file.
func (fs *FS) freeInode(n *Inode) {
	inodeSite.RLock(&n.mu, nil)
	size := n.Size
	n.mu.RUnlock()
	fs.usedBlocks.Add(-int64((size + BlockSize - 1) / BlockSize))
	delete(fs.inodes, n.Ino)
}

// Rename moves an entry. Directories may be renamed only within the same
// parent (sufficient for the benchmarks).
func (fs *FS) Rename(p *sim.Proc, from *Inode, fromName string, to *Inode, toName string) error {
	treeSite.WLock(&fs.mu, nil)
	i := findEntry(from, fromName)
	if i < 0 {
		fs.mu.Unlock()
		return ErrNoEnt
	}
	if from == to && fromName == toName {
		fs.mu.Unlock()
		return nil // renaming onto itself is a no-op, per POSIX
	}
	ent := from.dir[i]
	if j := findEntry(to, toName); j >= 0 {
		// Target exists: replace it (files only).
		tn := fs.inodes[to.dir[j].Ino]
		if tn != nil && tn.Type == nfsproto.TypeDir {
			fs.mu.Unlock()
			return ErrIsDir
		}
		if tn != nil {
			tn.Nlink--
			if tn.Nlink == 0 {
				fs.freeInode(tn)
			}
		}
		to.dir = append(to.dir[:j], to.dir[j+1:]...)
		if to == from && j < i {
			i--
		}
	}
	from.dir = append(from.dir[:i], from.dir[i+1:]...)
	insertEntry(to, DirEnt{toName, ent.Ino})
	fs.touch(from, true)
	if to != from {
		fs.touch(to, true)
	}
	fs.mu.Unlock()
	fs.Disk.Write(p, BlockSize)
	fs.Disk.Write(p, BlockSize)
	return nil
}

// Link makes a hard link.
func (fs *FS) Link(p *sim.Proc, n *Inode, dir *Inode, name string) error {
	if dir.Type != nfsproto.TypeDir {
		return ErrNotDir
	}
	if n.Type == nfsproto.TypeDir {
		return ErrIsDir
	}
	treeSite.WLock(&fs.mu, nil)
	if findEntry(dir, name) >= 0 {
		fs.mu.Unlock()
		return ErrExist
	}
	insertEntry(dir, DirEnt{name, n.Ino})
	n.Nlink++
	fs.touch(dir, true)
	fs.mu.Unlock()
	fs.Disk.Write(p, BlockSize)
	fs.Disk.Write(p, 512)
	return nil
}

// Setattr applies settable attributes; NoValue fields are skipped.
func (fs *FS) Setattr(p *sim.Proc, n *Inode, s nfsproto.Sattr) {
	inodeSite.WLock(&n.mu, nil)
	if s.Mode != nfsproto.NoValue {
		n.Mode = s.Mode
	}
	if s.UID != nfsproto.NoValue {
		n.UID = s.UID
	}
	if s.GID != nfsproto.NoValue {
		n.GID = s.GID
	}
	if s.Size != nfsproto.NoValue {
		fs.truncate(n, s.Size)
	}
	now := fs.clock() // the clock is park-free (atomic counter or sim time)
	inodeSite.Lock(&n.metaMu, nil)
	if s.Atime.Sec != nfsproto.NoValue {
		n.Atime = s.Atime
	}
	if s.Mtime.Sec != nfsproto.NoValue {
		n.Mtime = s.Mtime
	}
	n.Ctime = now
	n.metaMu.Unlock()
	n.mu.Unlock()
	fs.Disk.Write(p, 512)
}

// truncate runs under n.mu (write).
func (fs *FS) truncate(n *Inode, size uint32) {
	if n.Type != nfsproto.TypeReg {
		return
	}
	oldBlocks := (n.Size + BlockSize - 1) / BlockSize
	newBlocks := (size + BlockSize - 1) / BlockSize
	for b := newBlocks; b < oldBlocks; b++ {
		delete(n.blocks, b)
		delete(n.loaned, b)
	}
	if size < n.Size && size%BlockSize != 0 {
		if b := size / BlockSize; n.blocks[b] != nil {
			blk := fs.writableBlock(n, b)
			for i := size % BlockSize; i < BlockSize; i++ {
				blk[i] = 0
			}
		}
	}
	fs.usedBlocks.Add(int64(newBlocks) - int64(oldBlocks))
	n.Size = size
	mtime := fs.clock()
	inodeSite.Lock(&n.metaMu, nil)
	n.Mtime = mtime
	n.metaMu.Unlock()
}

// zeroBlock backs holes in loaned reads: a shared, never-written page of
// zeros every hole can reference without allocating.
var zeroBlock [BlockSize]byte

// ReadLoan reads up to count bytes at off by loaning file-block storage
// directly into chain c (mbuf.Chain.AppendExt) — no copy. The loaned blocks
// are marked so a later write replaces rather than mutates them
// (writableBlock); holes reference the shared zero page. Returns the number
// of bytes appended; short reads happen at EOF. cached=false charges a disk
// read. The size is fixed before the disk charge (which may park) and the
// blocks are loaned after it, both under the read lock — so readers of one
// file proceed in parallel with each other.
func (fs *FS) ReadLoan(p *sim.Proc, n *Inode, off, count uint32, cached bool, c *mbuf.Chain, sp *metrics.Span) (int, error) {
	if n.Type == nfsproto.TypeDir {
		return 0, ErrIsDir
	}
	inodeSite.RLock(&n.mu, sp)
	size := n.Size
	n.mu.RUnlock()
	if off >= size {
		return 0, nil
	}
	want := count
	if off+want > size {
		want = size - off
	}
	if !cached {
		fs.Disk.Read(p, int(want)) // parks under the simulator; no lock held
	}
	inodeSite.RLock(&n.mu, sp)
	got := uint32(0)
	for got < want {
		b := (off + got) / BlockSize
		bo := (off + got) % BlockSize
		nn := uint32(BlockSize) - bo
		if nn > want-got {
			nn = want - got
		}
		blk := n.blocks[b]
		if blk == nil {
			// Hole: loan the shared zero page (no loan mark needed — a
			// write allocates a fresh block, never touches zeroBlock).
			c.AppendExt(zeroBlock[bo : bo+nn])
		} else {
			c.AppendExt(blk[bo : bo+nn])
			// Loan marks are written under the read lock (parallel READs of
			// one file), so they need the leaf mutex; writableBlock reads
			// them under the write lock, which the RWMutex orders after us.
			inodeSite.Lock(&n.metaMu, sp)
			if n.loaned == nil {
				n.loaned = make(map[uint32]bool)
			}
			n.loaned[b] = true
			n.metaMu.Unlock()
		}
		got += nn
	}
	n.mu.RUnlock()
	fs.touch(n, false)
	return int(got), nil
}

// writableBlock returns block b of n, safe to mutate: allocating it if the
// file has a hole there, and replacing it with a private copy first if its
// storage is out on loan to a reply chain (copy-on-write). The old storage
// stays behind with the chains referencing it. Runs under n.mu (write),
// which orders it after every ReadLoan that set a loan mark.
func (fs *FS) writableBlock(n *Inode, b uint32) []byte {
	blk := n.blocks[b]
	if blk == nil {
		blk = make([]byte, BlockSize)
		n.blocks[b] = blk
		fs.usedBlocks.Add(1)
		return blk
	}
	if n.loaned[b] {
		fresh := make([]byte, BlockSize)
		copy(fresh, blk)
		mbuf.CountCopy(BlockSize)
		n.blocks[b] = fresh
		delete(n.loaned, b)
		return fresh
	}
	return blk
}

// WriteAt is WriteAtChain for a caller holding a plain slice (the
// preloaders): src is wrapped, not copied, and the wrapper freed after.
func (fs *FS) WriteAt(p *sim.Proc, n *Inode, off uint32, src []byte, diskWrites int) error {
	var c mbuf.Chain
	c.Wrap(src)
	err := fs.WriteAtChain(p, n, off, &c, diskWrites, nil)
	c.Free()
	return err
}

// WriteAtChain writes the contents of src at off without linearizing it,
// growing the file as needed: the payload flows segment by segment from the
// request chain (a zero-copy view of the wire data) straight into file
// blocks — the buffer-cache side of the paper's copy-avoidance path.
// diskWrites charges that many synchronous disk operations (NFS v2 demands
// the data and metadata be stable before the reply; §5 counts 1-3 per write
// RPC).
func (fs *FS) WriteAtChain(p *sim.Proc, n *Inode, off uint32, src *mbuf.Chain, diskWrites int, sp *metrics.Span) error {
	if n.Type == nfsproto.TypeDir {
		return ErrIsDir
	}
	total := src.Len()
	if int(off)+total > int(fs.TotalBlocks)*BlockSize {
		return ErrNoSpc
	}
	inodeSite.WLock(&n.mu, sp)
	pos := off
	src.ForEach(func(seg []byte) {
		for len(seg) > 0 {
			b := pos / BlockSize
			bo := pos % BlockSize
			nn := int(uint32(BlockSize) - bo)
			if nn > len(seg) {
				nn = len(seg)
			}
			blk := fs.writableBlock(n, b)
			copy(blk[bo:], seg[:nn])
			seg = seg[nn:]
			pos += uint32(nn)
		}
	})
	if pos > n.Size {
		n.Size = pos
	}
	n.mu.Unlock()
	fs.touch(n, true)
	fs.chargeWrite(p, total, diskWrites)
	return nil
}

// chargeWrite charges diskWrites synchronous disk ops for an n-byte write:
// the data itself first, then 512-byte inode/indirect updates.
func (fs *FS) chargeWrite(p *sim.Proc, n, diskWrites int) {
	for i := 0; i < diskWrites; i++ {
		sz := n
		if i > 0 {
			sz = 512
		}
		fs.Disk.Write(p, sz)
	}
}

// Statfs reports filesystem capacity.
func (fs *FS) Statfs() nfsproto.StatfsRes {
	free := fs.TotalBlocks - uint32(fs.usedBlocks.Load())
	return nfsproto.StatfsRes{
		Status: nfsproto.OK,
		TSize:  nfsproto.MaxData,
		BSize:  BlockSize,
		Blocks: fs.TotalBlocks,
		BFree:  free,
		BAvail: free,
	}
}

// NumInodes returns the live inode count.
func (fs *FS) NumInodes() int {
	treeSite.RLock(&fs.mu, nil)
	n := len(fs.inodes)
	fs.mu.RUnlock()
	return n
}

// String summarizes the filesystem for debugging.
func (fs *FS) String() string {
	return fmt.Sprintf("memfs{fsid=%d inodes=%d used=%d blocks}", fs.FSID, fs.NumInodes(), fs.usedBlocks.Load())
}
