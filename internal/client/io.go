package client

import (
	"fmt"
	"slices"
	"time"

	"renonfs/internal/mbuf"
	"renonfs/internal/netsim"
	"renonfs/internal/nfsproto"
	"renonfs/internal/sim"
	"renonfs/internal/transport"
	"renonfs/internal/vfs"
	"renonfs/internal/xdr"
)

// File is an open file: a vnode plus a cursor.
type File struct {
	m      *Mount
	vn     *vnode
	Offset uint32
	closed bool
}

// Path-level operations ----------------------------------------------------

// Getattr stats a path.
func (m *Mount) Getattr(p *sim.Proc, path string) (nfsproto.Fattr, error) {
	vn, err := m.walk(p, path)
	if err != nil {
		return nfsproto.Fattr{}, err
	}
	if err := m.freshAttrs(p, vn); err != nil {
		return nfsproto.Fattr{}, err
	}
	a := vn.attr
	a.Size = vn.size
	return a, nil
}

// Setattr applies attributes to a path.
func (m *Mount) Setattr(p *sim.Proc, path string, attr nfsproto.Sattr) error {
	vn, err := m.walk(p, path)
	if err != nil {
		return err
	}
	d, err := m.call(p, nfsproto.ProcSetattr, func(e *xdr.Encoder) {
		(&nfsproto.SetattrArgs{File: vn.fh, Attr: attr}).Encode(e)
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
	m.updateAttrs(vn, res.Attr, true)
	if attr.Size != nfsproto.NoValue {
		vn.size = attr.Size
		m.invalidate(vn)
		vn.cachedMtime = res.Attr.Mtime
	}
	return nil
}

// Open opens an existing file, performing the close/open consistency check.
func (m *Mount) Open(p *sim.Proc, path string) (*File, error) {
	vn, err := m.walk(p, path)
	if err != nil {
		return nil, err
	}
	if vn.attrValid && vn.attr.Type == nfsproto.TypeDir {
		return nil, ErrIsDir
	}
	// Under a lease the cache is valid by contract — no getattr, no purge.
	if !m.getLease(p, vn, nfsproto.LeaseRead) {
		if err := m.checkConsistency(p, vn); err != nil {
			return nil, err
		}
	}
	return &File{m: m, vn: vn}, nil
}

// Create creates (or truncates) a file and opens it.
func (m *Mount) Create(p *sim.Proc, path string, mode uint32) (*File, error) {
	dir, name, err := m.walkParent(p, path)
	if err != nil {
		return nil, err
	}
	attr := nfsproto.NewSattr()
	attr.Mode = mode
	attr.Size = 0
	// A truncating create must not race the target's own write-behind:
	// discard the doomed dirty blocks and wait out any flush already in
	// flight, or a stale WRITE landing after the truncate resurrects the
	// old bytes. (Without leases push-on-close drains this at close; with
	// a write lease the dirty data legitimately outlives the close.)
	if vid, vgen, neg, found := m.namec.Lookup(dir.fileid, dir.gen, name); found && !neg {
		if old := m.vns[vnKey{vid, vgen}]; old != nil {
			m.bufc.InvalidateVnode(old.fileid, old.gen)
			m.dropLease(old)
			m.awaitVnode(p, old)
		}
	}
	d, err := m.call(p, nfsproto.ProcCreate, func(e *xdr.Encoder) {
		(&nfsproto.CreateArgs{Where: nfsproto.DiropArgs{Dir: dir.fh, Name: name}, Attr: attr}).Encode(e)
		// A create is almost always followed by writes: ask for the write
		// lease up front so the data path never needs an explicit LEASE RPC.
		if m.wantHint() {
			m.leaseHint(e, nfsproto.LeaseWrite)
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
		return nil, res.Status.Error()
	}
	vn := m.getVnode(res.File)
	m.updateAttrs(vn, res.Attr, true)
	m.absorbPiggy(p, d, vn)
	vn.cachedMtime = res.Attr.Mtime // our own create: cache (empty) is valid
	vn.size = 0
	m.bufc.InvalidateVnode(vn.fileid, vn.gen)
	m.namec.Enter(dir.fileid, dir.gen, name, vn.fileid, vn.gen)
	// The create changed the directory; keep its cached mtime honest so the
	// next consistency check does not purge the whole directory cache.
	dir.attrValid = false
	return &File{m: m, vn: vn}, nil
}

// Mkdir creates a directory.
func (m *Mount) Mkdir(p *sim.Proc, path string, mode uint32) error {
	dir, name, err := m.walkParent(p, path)
	if err != nil {
		return err
	}
	attr := nfsproto.NewSattr()
	attr.Mode = mode
	d, err := m.call(p, nfsproto.ProcMkdir, func(e *xdr.Encoder) {
		(&nfsproto.CreateArgs{Where: nfsproto.DiropArgs{Dir: dir.fh, Name: name}, Attr: attr}).Encode(e)
	})
	if err != nil {
		return err
	}
	defer m.tr.Release(d)
	res, err := nfsproto.DecodeDiropRes(d)
	if err != nil {
		return err
	}
	if res.Status != nfsproto.OK {
		return res.Status.Error()
	}
	vn := m.getVnode(res.File)
	m.updateAttrs(vn, res.Attr, false)
	m.namec.Enter(dir.fileid, dir.gen, name, vn.fileid, vn.gen)
	dir.attrValid = false
	return nil
}

// Remove unlinks a file.
func (m *Mount) Remove(p *sim.Proc, path string) error {
	dir, name, err := m.walkParent(p, path)
	if err != nil {
		return err
	}
	// Discard any dirty blocks for the victim: they will never be needed.
	// The lease goes too — renewing a lease on an unlinked file is wasted
	// work at best. Wait out in-flight flushes so no stale WRITE chases
	// the REMOVE onto the server.
	if vid, vgen, neg, found := m.namec.Lookup(dir.fileid, dir.gen, name); found && !neg {
		if vn := m.vns[vnKey{vid, vgen}]; vn != nil {
			m.bufc.InvalidateVnode(vn.fileid, vn.gen)
			m.dropLease(vn)
			m.awaitVnode(p, vn)
		}
	}
	d, err := m.call(p, nfsproto.ProcRemove, func(e *xdr.Encoder) {
		(&nfsproto.DiropArgs{Dir: dir.fh, Name: name}).Encode(e)
	})
	if err != nil {
		return err
	}
	defer m.tr.Release(d)
	res, err := nfsproto.DecodeStatusRes(d)
	if err != nil {
		return err
	}
	m.namec.Remove(dir.fileid, dir.gen, name)
	dir.attrValid = false
	return res.Status.Error()
}

// Rmdir removes a directory.
func (m *Mount) Rmdir(p *sim.Proc, path string) error {
	dir, name, err := m.walkParent(p, path)
	if err != nil {
		return err
	}
	d, err := m.call(p, nfsproto.ProcRmdir, func(e *xdr.Encoder) {
		(&nfsproto.DiropArgs{Dir: dir.fh, Name: name}).Encode(e)
	})
	if err != nil {
		return err
	}
	defer m.tr.Release(d)
	res, err := nfsproto.DecodeStatusRes(d)
	if err != nil {
		return err
	}
	m.namec.Remove(dir.fileid, dir.gen, name)
	dir.attrValid = false
	return res.Status.Error()
}

// Rename moves a file or directory.
func (m *Mount) Rename(p *sim.Proc, fromPath, toPath string) error {
	fromDir, fromName, err := m.walkParent(p, fromPath)
	if err != nil {
		return err
	}
	toDir, toName, err := m.walkParent(p, toPath)
	if err != nil {
		return err
	}
	d, err := m.call(p, nfsproto.ProcRename, func(e *xdr.Encoder) {
		(&nfsproto.RenameArgs{
			From: nfsproto.DiropArgs{Dir: fromDir.fh, Name: fromName},
			To:   nfsproto.DiropArgs{Dir: toDir.fh, Name: toName},
		}).Encode(e)
	})
	if err != nil {
		return err
	}
	defer m.tr.Release(d)
	res, err := nfsproto.DecodeStatusRes(d)
	if err != nil {
		return err
	}
	m.namec.Remove(fromDir.fileid, fromDir.gen, fromName)
	m.namec.Remove(toDir.fileid, toDir.gen, toName)
	fromDir.attrValid = false
	toDir.attrValid = false
	return res.Status.Error()
}

// Symlink creates a symbolic link.
func (m *Mount) Symlink(p *sim.Proc, path, target string) error {
	dir, name, err := m.walkParent(p, path)
	if err != nil {
		return err
	}
	d, err := m.call(p, nfsproto.ProcSymlink, func(e *xdr.Encoder) {
		(&nfsproto.SymlinkArgs{From: nfsproto.DiropArgs{Dir: dir.fh, Name: name}, To: target, Attr: nfsproto.NewSattr()}).Encode(e)
	})
	if err != nil {
		return err
	}
	defer m.tr.Release(d)
	res, err := nfsproto.DecodeStatusRes(d)
	if err != nil {
		return err
	}
	dir.attrValid = false
	return res.Status.Error()
}

// Readlink reads a symlink target.
func (m *Mount) Readlink(p *sim.Proc, path string) (string, error) {
	vn, err := m.walk(p, path)
	if err != nil {
		return "", err
	}
	d, err := m.call(p, nfsproto.ProcReadlink, func(e *xdr.Encoder) {
		(&nfsproto.GetattrArgs{File: vn.fh}).Encode(e)
	})
	if err != nil {
		return "", err
	}
	defer m.tr.Release(d)
	res, err := nfsproto.DecodeReadlinkRes(d)
	if err != nil {
		return "", err
	}
	if res.Status != nfsproto.OK {
		return "", res.Status.Error()
	}
	return res.Path, nil
}

// ReadDir lists a directory, serving repeats from the cached listing while
// the directory's mtime holds.
func (m *Mount) ReadDir(p *sim.Proc, path string) ([]nfsproto.DirEntry, error) {
	return m.readDir(p, path, false)
}

// readDir is ReadDir's loop; with look it lists through the
// readdir_and_lookup_files extension (ReadDirLook) and primes the caches
// from the entries, falling back to READDIR the first time the server
// refuses the extension.
func (m *Mount) readDir(p *sim.Proc, path string, look bool) ([]nfsproto.DirEntry, error) {
	vn, err := m.walk(p, path)
	if err != nil {
		return nil, err
	}
	if err := m.checkConsistency(p, vn); err != nil {
		return nil, err
	}
	if vn.dirCache != nil && vn.dirCacheMtime == vn.attr.Mtime {
		return vn.dirCache, nil
	}
	proc := uint32(nfsproto.ProcReaddir)
	if look {
		proc = nfsproto.ProcReaddirLook
	}
	var all []nfsproto.DirEntry
	cookie := uint32(0)
	for {
		d, err := m.call(p, proc, func(e *xdr.Encoder) {
			(&nfsproto.ReaddirArgs{Dir: vn.fh, Cookie: cookie, Count: nfsproto.MaxData}).Encode(e)
		})
		var ents []nfsproto.DirEntry
		var eof bool
		if look {
			var res *nfsproto.ReaddirLookRes
			if err == nil {
				res, err = nfsproto.DecodeReaddirLookRes(d)
				m.tr.Release(d)
			}
			if err != nil {
				m.rdlBroken = true
				return m.readDir(p, path, false)
			}
			if res.Status != nfsproto.OK {
				return nil, res.Status.Error()
			}
			for i := range res.Entries {
				ent := &res.Entries[i]
				child := m.getVnode(ent.File)
				m.updateAttrs(child, &ent.Attr, false)
				m.namec.Enter(vn.fileid, vn.gen, ent.Entry.Name, child.fileid, child.gen)
				ents = append(ents, ent.Entry)
			}
			eof = res.EOF
		} else {
			if err != nil {
				return nil, err
			}
			res, err := nfsproto.DecodeReaddirRes(d)
			m.tr.Release(d)
			if err != nil {
				return nil, err
			}
			if res.Status != nfsproto.OK {
				return nil, res.Status.Error()
			}
			ents, eof = res.Entries, res.EOF
		}
		all = append(all, ents...)
		if eof || len(ents) == 0 {
			break
		}
		cookie = ents[len(ents)-1].Cookie
	}
	vn.dirCache = all
	vn.dirCacheMtime = vn.attr.Mtime
	return all, nil
}

// Statfs queries filesystem capacity.
func (m *Mount) Statfs(p *sim.Proc) (*nfsproto.StatfsRes, error) {
	d, err := m.call(p, nfsproto.ProcStatfs, func(e *xdr.Encoder) {
		(&nfsproto.GetattrArgs{File: m.root.fh}).Encode(e)
	})
	if err != nil {
		return nil, err
	}
	defer m.tr.Release(d)
	res, err := nfsproto.DecodeStatfsRes(d)
	if err != nil {
		return nil, err
	}
	if res.Status != nfsproto.OK {
		return nil, res.Status.Error()
	}
	return res, nil
}

// File I/O ------------------------------------------------------------------

// Rsize returns the current adaptive read transfer size.
func (m *Mount) Rsize() int { return m.curRsize() }

// curRsize returns the current read transfer size (a power of two within
// [1K, BlockSize]); without AdaptiveRsize it is always a full block.
func (m *Mount) curRsize() int {
	if !m.Opts.AdaptiveRsize {
		return vfs.BlockSize
	}
	if m.rsize < 1024 {
		m.rsize = 1024
	}
	if m.rsize > vfs.BlockSize {
		m.rsize = vfs.BlockSize
	}
	return m.rsize
}

// adaptRead updates the transfer-size controller after one read RPC: any
// retransmission (fragment loss) halves the size; a clean streak doubles
// it back toward the full block (§4's "adjust the size dynamically, based
// on the IP fragment drop rate").
func (m *Mount) adaptRead(retried bool) {
	if !m.Opts.AdaptiveRsize {
		return
	}
	if retried {
		m.rsize = m.curRsize() / 2
		if m.rsize < 1024 {
			m.rsize = 1024
		}
		m.goodReads = 0
		return
	}
	m.goodReads++
	if m.goodReads >= 25 && m.rsize < vfs.BlockSize {
		m.rsize *= 2
		m.goodReads = 0
	}
}

// readRPC fetches one block-aligned extent from the server into the
// cache, in curRsize-sized transfers. It never waits for the block's queued
// writes (a biod's read-ahead runs it, and a biod waiting on its own queue
// deadlocks): a caller that may meet them calls awaitBlock first.
func (m *Mount) readRPC(p *sim.Proc, vn *vnode, block uint32) error {
	var page [vfs.BlockSize]byte
	base := block * vfs.BlockSize
	got := 0
	for off := 0; off < vfs.BlockSize; {
		size := m.curRsize()
		if off+size > vfs.BlockSize {
			size = vfs.BlockSize - off
		}
		before := m.tr.Stats().RetryClass[transport.ClassRead]
		off32 := base + uint32(off)
		d, err := m.call(p, nfsproto.ProcRead, func(e *xdr.Encoder) {
			(&nfsproto.ReadArgs{File: vn.fh, Offset: off32, Count: uint32(size)}).Encode(e)
		})
		if err != nil {
			m.adaptRead(true)
			return err
		}
		m.adaptRead(m.tr.Stats().RetryClass[transport.ClassRead] > before)
		res, n, err := nfsproto.DecodeReadResTo(d, page[off:])
		m.tr.Release(d)
		if err != nil {
			return err
		}
		if res.Status != nfsproto.OK {
			return res.Status.Error()
		}
		m.updateAttrs(vn, res.Attr, false)
		m.Stats.ReadBytes += n
		got = off + n
		off += size
		if n < size {
			break // EOF inside the block
		}
	}
	key := vfs.BufKey{Vnode: vn.fileid, Gen: vn.gen, Block: block}
	b := m.bufc.Peek(key)
	if b == nil {
		var victim *vfs.Buf
		b, victim = m.bufc.Insert(key)
		if victim != nil && victim.Dirty {
			// No wait: this path can run inside a biod (read-ahead).
			m.push(p, victim, false)
		}
	}
	// Merge around the buffer's valid region: those bytes are at least as
	// new as the server's (local writes, possibly extracted for an async
	// flush that is still in flight), so the fetch only fills the gaps.
	// Overwriting them with the server's copy would lose data.
	data := b.EnsureData()
	if b.ValidEnd > b.ValidOff {
		copy(data[:b.ValidOff], page[:b.ValidOff])
		copy(data[b.ValidEnd:], page[b.ValidEnd:])
	} else {
		copy(data, page[:])
	}
	m.charge(p, netsim.BucketUserCopy, costUserCopyByte*float64(got))
	b.SetValid(0, vfs.BlockSize) // short reads mean EOF; the tail is zeros
	return nil
}

// Read reads from the file at its cursor.
func (f *File) Read(p *sim.Proc, dst []byte) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	m := f.m
	vn := f.vn
	m.charge(p, netsim.BucketSyscall, costSyscall)
	// Under a read lease the cache is coherent by contract: no mtime check.
	if !m.Opts.UseLeases || m.leaseFor(vn, nfsproto.LeaseRead) == nil {
		if err := m.checkConsistency(p, vn); err != nil {
			return 0, err
		}
	}
	if f.Offset >= vn.size {
		return 0, nil // EOF
	}
	want := uint32(len(dst))
	if f.Offset+want > vn.size {
		want = vn.size - f.Offset
	}
	got := uint32(0)
	for got < want {
		off := f.Offset + got
		block := off / vfs.BlockSize
		bo := off % vfs.BlockSize
		n := uint32(vfs.BlockSize) - bo
		if n > want-got {
			n = want - got
		}
		key := vfs.BufKey{Vnode: vn.fileid, Gen: vn.gen, Block: block}
		b, _ := m.bufc.Lookup(key)
		if b == nil || !b.Covers(int(bo), int(bo+n)) {
			m.Stats.CacheReadMisses++
			// A dirty victim's write may still be queued: the server's
			// copy is stale until it lands (getblk sleeps on B_BUSY).
			m.awaitBlock(p, vn, block)
			if err := m.readRPC(p, vn, block); err != nil {
				return int(got), err
			}
			b = m.bufc.Peek(key)
			if b == nil {
				return int(got), fmt.Errorf("client: block %d vanished", block)
			}
		} else {
			m.Stats.CacheReadHits++
		}
		copy(dst[got:got+n], b.Data[bo:bo+n])
		m.charge(p, netsim.BucketUserCopy, costUserCopyByte*float64(n))
		got += n
		// Read-ahead: prefetch the next blocks on sequential access.
		if m.Opts.ReadAhead > 0 && (!vn.hasLastRead || vn.lastReadBlock+1 == block || vn.lastReadBlock == block) {
			for ra := uint32(1); ra <= uint32(m.Opts.ReadAhead); ra++ {
				next := block + ra
				if next*vfs.BlockSize >= vn.size {
					break
				}
				nkey := vfs.BufKey{Vnode: vn.fileid, Gen: vn.gen, Block: next}
				if m.bufc.Peek(nkey) == nil {
					m.scheduleReadAhead(vn, next)
				}
			}
		}
		vn.lastReadBlock = block
		vn.hasLastRead = true
	}
	f.Offset += got
	return int(got), nil
}

// scheduleReadAhead queues an asynchronous block fetch on the biods.
func (m *Mount) scheduleReadAhead(vn *vnode, block uint32) {
	if len(m.biodQs) == 0 || m.closed {
		return
	}
	m.biodQs[int(block)%len(m.biodQs)].Send(flushJob{vn: vn, block: block, offset: block * vfs.BlockSize})
}

// Write writes at the file cursor through the cache under the mount's
// write policy.
func (f *File) Write(p *sim.Proc, src []byte) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	m := f.m
	vn := f.vn
	m.charge(p, netsim.BucketSyscall, costSyscall)
	m.charge(p, netsim.BucketUserCopy, costUserCopyByte*float64(len(src)))
	if m.Opts.UseLeases {
		m.getLease(p, vn, nfsproto.LeaseWrite)
	}
	done := uint32(0)
	for done < uint32(len(src)) {
		off := f.Offset + done
		block := off / vfs.BlockSize
		bo := off % vfs.BlockSize
		n := uint32(vfs.BlockSize) - bo
		if n > uint32(len(src))-done {
			n = uint32(len(src)) - done
		}
		key := vfs.BufKey{Vnode: vn.fileid, Gen: vn.gen, Block: block}
		b, _ := m.bufc.Lookup(key)
		if b == nil {
			// Without dirty-region tracking a partial write into the
			// middle of existing data must preread the block.
			partial := bo != 0 || n != vfs.BlockSize
			inFile := block*vfs.BlockSize < vn.size
			if !m.Opts.DirtyRegionTracking && partial && inFile && off < vn.size {
				m.Stats.Prereads++
				m.awaitBlock(p, vn, block)
				if err := m.readRPC(p, vn, block); err != nil {
					return int(done), err
				}
				b = m.bufc.Peek(key)
			}
			if b == nil {
				var victim *vfs.Buf
				b, victim = m.bufc.Insert(key)
				if victim != nil && victim.Dirty {
					m.push(p, victim, false)
				}
			}
		}
		vn.mayBeDirty = true
		if b.Write(int(bo), src[done:done+n]) {
			// Discontiguous dirty region: push the old one first, the way
			// the Reno client does, then retry.
			m.push(p, b, true)
			vn.mayBeDirty = true // a sweep may have cleared it while we waited
			b.Write(int(bo), src[done:done+n])
		}
		done += n
		if off+n > vn.size {
			vn.size = off + n
		}
		m.Stats.WriteBytes += int(n)
		// Policy decides when the block goes to the server.
		full := b.ValidEnd-b.ValidOff >= vfs.BlockSize
		switch {
		case m.Opts.Policy == WriteThrough:
			m.push(p, b, true)
		case m.Opts.EagerWriteBack, m.Opts.Policy == WriteAsync && full:
			m.push(p, b, false)
		}
	}
	f.Offset += done
	return int(done), nil
}

// Close pushes delayed writes (close/open consistency) unless the mount
// disabled it, and waits for the file's outstanding asynchronous writes.
func (f *File) Close(p *sim.Proc) error {
	if f.closed {
		return ErrClosed
	}
	f.closed = true
	m := f.m
	vn := f.vn
	m.charge(p, netsim.BucketSyscall, costSyscall)
	if m.Opts.PushOnClose {
		// The whole point of the lease extension: delayed writes survive
		// close safely, because the server will evict us before letting
		// anyone else see the file.
		if !(m.Opts.UseLeases && m.leaseFor(vn, nfsproto.LeaseWrite) != nil) {
			m.flushVnode(p, vn, true)
		}
	}
	return nil
}

// Size returns the client's view of the file size.
func (f *File) Size() uint32 { return f.vn.size }

// Seek sets the cursor.
func (f *File) Seek(off uint32) { f.Offset = off }

// Flushing ------------------------------------------------------------------

// writeRPC sends one write RPC and updates attributes.
func (m *Mount) writeRPC(p *sim.Proc, vn *vnode, offset uint32, data []byte) error {
	d, err := m.call(p, nfsproto.ProcWrite, func(e *xdr.Encoder) {
		// Re-encodable for retransmission: the chain is rebuilt from
		// the stable byte slice on every invocation.
		(&nfsproto.WriteArgs{File: vn.fh, Offset: offset, Data: mbuf.FromBytes(data)}).Encode(e)
		// Keeps the write lease fresh while a long flush streams.
		if m.wantHint() {
			m.leaseHint(e, nfsproto.LeaseWrite)
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
	m.updateAttrs(vn, res.Attr, true)
	m.absorbPiggy(p, d, vn)
	return nil
}

// extractDirty snapshots and cleans a buffer's dirty region.
func extractDirty(b *vfs.Buf) (offset int, data []byte) {
	if !b.Dirty {
		return 0, nil
	}
	off, end := b.DirtyOff, b.DirtyEnd
	data = make([]byte, end-off)
	copy(data, b.Data[off:end])
	b.MarkClean()
	return off, data
}

// push sends a buffer's dirty region to the server: through the block's
// affinity biod, whose FIFO keeps overlapping writes to one block in order
// on the wire (the B_BUSY discipline), or from the calling process when the
// mount has no biods. With wait it returns only once every write queued for
// the block has reached the server.
func (m *Mount) push(p *sim.Proc, b *vfs.Buf, wait bool) {
	vn := m.vns[vnKey{b.Key.Vnode, b.Key.Gen}]
	block := b.Key.Block
	if off, data := extractDirty(b); data != nil {
		offset := block*vfs.BlockSize + uint32(off)
		if len(m.biodQs) == 0 {
			m.writeRPC(p, vn, offset, data)
			return
		}
		vn.pendingFlushes++
		vn.inFlight[block]++
		m.biodQs[int(block)%len(m.biodQs)].Send(flushJob{vn: vn, block: block, offset: offset, data: data})
	}
	if wait {
		m.awaitBlock(p, vn, block)
	}
}

// awaitBlock sleeps until no write queued for the block is still on its way
// to the server, the way getblk sleeps on a B_BUSY buffer.
func (m *Mount) awaitBlock(p *sim.Proc, vn *vnode, block uint32) {
	for vn.inFlight[block] > 0 {
		vn.flushDone.Wait(p)
	}
}

// awaitVnode sleeps until every write queued for the file has reached the
// server.
func (m *Mount) awaitVnode(p *sim.Proc, vn *vnode) {
	for vn.pendingFlushes > 0 {
		vn.flushDone.Wait(p)
	}
}

// flushVnode pushes all dirty blocks of a vnode sequentially (nfs_flush
// walks the buffer list and bwrites each — which is why the paper's Table
// 5 shows "delayed write" costing about the same as write-through for a
// large file); wait also blocks until previously queued asynchronous
// writes complete.
func (m *Mount) flushVnode(p *sim.Proc, vn *vnode, wait bool) {
	dirty := m.bufc.DirtyBufs(vn.fileid, vn.gen)
	if len(dirty) == 0 {
		// Only now: a write may dirty a buffer again while a flush waits.
		vn.mayBeDirty = false
	}
	for _, b := range dirty {
		m.push(p, b, true)
	}
	if wait {
		m.awaitVnode(p, vn)
	}
}

// SyncAll pushes every dirty block in the cache (the update daemon's job
// and unmount's), in deterministic vnode order. Both walk a snapshot of
// byID, so a vnode created mid-sweep waits for the next one. SyncAll takes
// its own copy: it can run while the daemon is parked mid-sweep in m.sweep.
func (m *Mount) SyncAll(p *sim.Proc) {
	for _, vn := range slices.Clone(m.byID) {
		m.flushVnode(p, vn, true)
	}
}

// biod is one asynchronous I/O daemon draining its own queue: it serves
// both write-behind and read-ahead. Same-block jobs always land on the
// same biod, so writes to one block never reorder.
func (m *Mount) biod(p *sim.Proc, q *sim.Queue[flushJob]) {
	for {
		j, ok := q.Recv(p)
		if !ok {
			return
		}
		if j.data == nil {
			// Read-ahead.
			if m.bufc.Peek(vfs.BufKey{Vnode: j.vn.fileid, Gen: j.vn.gen, Block: j.block}) == nil {
				m.readRPC(p, j.vn, j.block)
			}
			continue
		}
		m.writeRPC(p, j.vn, j.offset, j.data)
		j.vn.inFlight[j.block]--
		if j.vn.inFlight[j.block] == 0 {
			delete(j.vn.inFlight, j.block)
		}
		j.vn.pendingFlushes--
		j.vn.flushDone.Broadcast()
	}
}

// updateDaemon is the 30-second delayed-write push (§1: delayed writes
// "are also pushed every 30sec for most Unix implementations").
func (m *Mount) updateDaemon(p *sim.Proc) {
	for !m.closed {
		p.Sleep(30 * time.Second)
		if m.closed {
			return
		}
		m.sweep = append(m.sweep[:0], m.byID...)
		for _, vn := range m.sweep {
			if vn.mayBeDirty {
				m.flushVnode(p, vn, false)
			}
		}
	}
}
