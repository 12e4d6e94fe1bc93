// Package vfs provides the VFS-layer caching machinery the 4.3BSD Reno NFS
// implementation is built on: a block buffer cache whose buffers hang off
// vnodes and carry dirty-region bookkeeping (the extra buf fields that let
// Reno write partial blocks without prereading them), and the VFS name
// lookup cache whose effect §5 measures.
//
// The cache is policy-free: it tracks residency, LRU order and dirty state,
// and reports how many buffers a lookup had to examine, so callers can
// charge CPU for the two search disciplines the paper contrasts —
// vnode-chained buffer lists (Reno) versus a linear scan of the whole cache
// (the Sun-reference-port style the paper conjectures explains Ultrix's
// slower lookups).
package vfs

import "fmt"

// BlockSize is the NFS transfer and buffer size used throughout.
const BlockSize = 8192

// BufKey identifies a cached block: a vnode (file id + generation) and a
// block number within it.
type BufKey struct {
	Vnode uint32
	Gen   uint32
	Block uint32
}

// Buf is one cache buffer. Valid and dirty bytes are tracked as ranges
// within the block, after the buf-structure fields Reno added so partial
// writes need no preread.
type Buf struct {
	Key BufKey
	// Data is allocated lazily, or handed out by Insert from the pages
	// of clean buffers that left the cache; nil for presence-only (server)
	// use, and nil again once a clean buffer leaves.
	Data []byte

	// Valid range [ValidOff, ValidEnd) holds bytes that mirror the file.
	ValidOff, ValidEnd int
	// Dirty range [DirtyOff, DirtyEnd) holds locally modified bytes not
	// yet written to the server/disk. Always within the valid range.
	Dirty              bool
	DirtyOff, DirtyEnd int

	prev, next *Buf // LRU neighbours, toward the most and the least recent
}

// EnsureData allocates the data block if absent.
func (b *Buf) EnsureData() []byte {
	if b.Data == nil {
		b.Data = make([]byte, BlockSize)
	}
	return b.Data
}

// Covers reports whether [off, end) lies within the valid range.
func (b *Buf) Covers(off, end int) bool {
	return off >= b.ValidOff && end <= b.ValidEnd
}

// Write copies p into the buffer at off, maintaining the valid and dirty
// ranges. It reports needFlush=true (and writes nothing) when the new dirty
// region would be discontiguous with the existing one — the caller must
// push the old dirty region first, exactly as the Reno client does.
func (b *Buf) Write(off int, p []byte) (needFlush bool) {
	end := off + len(p)
	if off < 0 || end > BlockSize {
		panic(fmt.Sprintf("vfs: Buf.Write [%d,%d) outside block", off, end))
	}
	if len(p) == 0 {
		return false
	}
	if b.Dirty && (end < b.DirtyOff || off > b.DirtyEnd) {
		return true
	}
	copy(b.EnsureData()[off:], p)
	if b.Dirty {
		if off < b.DirtyOff {
			b.DirtyOff = off
		}
		if end > b.DirtyEnd {
			b.DirtyEnd = end
		}
	} else {
		b.Dirty = true
		b.DirtyOff, b.DirtyEnd = off, end
	}
	// Extend the valid range. A write contiguous with (or overlapping) the
	// valid range merges; a disjoint write replaces it — the dirty check
	// above already forced a flush for the dangerous case.
	if b.ValidEnd == b.ValidOff { // previously empty
		b.ValidOff, b.ValidEnd = off, end
	} else if end < b.ValidOff || off > b.ValidEnd {
		b.ValidOff, b.ValidEnd = off, end
	} else {
		if off < b.ValidOff {
			b.ValidOff = off
		}
		if end > b.ValidEnd {
			b.ValidEnd = end
		}
	}
	return false
}

// MarkClean clears the dirty state after a successful flush.
func (b *Buf) MarkClean() {
	b.Dirty = false
	b.DirtyOff, b.DirtyEnd = 0, 0
}

// SetValid records that [off, end) now mirrors the file (after a read).
func (b *Buf) SetValid(off, end int) {
	if b.ValidEnd == b.ValidOff {
		b.ValidOff, b.ValidEnd = off, end
		return
	}
	if end >= b.ValidOff && off <= b.ValidEnd {
		if off < b.ValidOff {
			b.ValidOff = off
		}
		if end > b.ValidEnd {
			b.ValidEnd = end
		}
	} else if end-off > b.ValidEnd-b.ValidOff {
		b.ValidOff, b.ValidEnd = off, end
	}
}

// CacheStats counts cache activity.
type CacheStats struct {
	Hits, Misses int
	Evictions    int
	Scanned      int // buffers examined during lookups
}

// BufCache is an LRU block cache. With ChainedLookup (the Reno layout)
// lookups examine only the target vnode's buffers; without it (the
// reference-port layout) every lookup scans the cache LRU list until it
// finds the block, and the caller is told how many buffers were touched so
// it can charge CPU accordingly.
type BufCache struct {
	// Capacity is the maximum number of resident buffers.
	Capacity int
	// ChainedLookup selects the vnode-chained search discipline.
	ChainedLookup bool

	lru    Buf // sentinel: lru.next is the most recent buffer, lru.prev the least
	index  map[BufKey]*Buf
	chains map[uint64][]*Buf // per-vnode buffer chains
	free   [][]byte          // pages of clean buffers that left, for Insert
	Stats  CacheStats
}

// NewBufCache returns a cache holding at most capacity buffers.
func NewBufCache(capacity int, chained bool) *BufCache {
	c := &BufCache{
		Capacity:      capacity,
		ChainedLookup: chained,
		index:         make(map[BufKey]*Buf),
		chains:        make(map[uint64][]*Buf),
	}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// pushFront links b in as the most recent buffer.
func (c *BufCache) pushFront(b *Buf) {
	b.prev, b.next = &c.lru, c.lru.next
	b.next.prev = b
	c.lru.next = b
}

// unlink takes b out of the LRU list.
func (c *BufCache) unlink(b *Buf) {
	b.prev.next, b.next.prev = b.next, b.prev
	b.prev, b.next = nil, nil
}

func vnKey(k BufKey) uint64 { return uint64(k.Vnode)<<32 | uint64(k.Gen) }

// Len returns the number of resident buffers.
func (c *BufCache) Len() int { return len(c.index) }

// Lookup finds a resident buffer, reporting how many buffers the search
// examined under the configured discipline. It refreshes LRU position on a
// hit.
func (c *BufCache) Lookup(k BufKey) (b *Buf, scanned int) {
	if c.ChainedLookup {
		chain := c.chains[vnKey(k)]
		for i, cb := range chain {
			if cb.Key == k {
				scanned = i + 1
				b = cb
				break
			}
		}
		if b == nil {
			scanned = len(chain)
		}
	} else {
		// Linear scan of the global LRU list, the way a cache without
		// per-vnode chains must search.
		for e := c.lru.next; e != &c.lru; e = e.next {
			scanned++
			if e.Key == k {
				b = e
				break
			}
		}
	}
	c.Stats.Scanned += scanned
	if b != nil {
		c.Stats.Hits++
		c.unlink(b)
		c.pushFront(b)
	} else {
		c.Stats.Misses++
	}
	return b, scanned
}

// Peek finds a resident buffer without LRU refresh or scan accounting.
func (c *BufCache) Peek(k BufKey) *Buf { return c.index[k] }

// Insert adds a buffer for k (which must not be resident) and returns it
// along with the evicted victim, if the capacity forced one out. The caller
// must flush a dirty victim. The buffer comes with a zeroed page if a clean
// buffer that left the cache freed one.
func (c *BufCache) Insert(k BufKey) (b *Buf, victim *Buf) {
	if c.index[k] != nil {
		panic("vfs: Insert of resident block " + fmt.Sprint(k))
	}
	if len(c.index) >= c.Capacity {
		victim = c.evictLRU()
	}
	b = &Buf{Key: k}
	if n := len(c.free); n > 0 {
		b.Data, c.free = c.free[n-1], c.free[:n-1]
		clear(b.Data)
	}
	c.pushFront(b)
	c.index[k] = b
	vk := vnKey(k)
	c.chains[vk] = append(c.chains[vk], b)
	return b, victim
}

// evictLRU removes the least recently used buffer and returns it.
func (c *BufCache) evictLRU() *Buf {
	b := c.lru.prev
	if b == &c.lru {
		return nil
	}
	c.remove(b)
	c.Stats.Evictions++
	return b
}

// remove takes b out of the cache. A clean buffer's page goes to the free
// list and its Data to nil, so a holder that still reads it fails loudly;
// a dirty one keeps its page, which its caller still flushes.
func (c *BufCache) remove(b *Buf) {
	if !b.Dirty && b.Data != nil {
		c.free = append(c.free, b.Data)
		b.Data = nil
	}
	c.unlink(b)
	delete(c.index, b.Key)
	vk := vnKey(b.Key)
	chain := c.chains[vk]
	for i, cb := range chain {
		if cb == b {
			c.chains[vk] = append(chain[:i], chain[i+1:]...)
			break
		}
	}
	if len(c.chains[vk]) == 0 {
		delete(c.chains, vk)
	}
}

// InvalidateVnode drops every buffer of the vnode, returning any dirty ones
// so the caller can decide whether to flush or discard them (cache purge on
// a server mtime change discards; unmount flushes).
func (c *BufCache) InvalidateVnode(vn, gen uint32) (dirty []*Buf) {
	vk := uint64(vn)<<32 | uint64(gen)
	chain := append([]*Buf(nil), c.chains[vk]...)
	for _, b := range chain {
		if b.Dirty {
			dirty = append(dirty, b)
		}
		c.remove(b)
	}
	return dirty
}

// DirtyBufs returns the vnode's dirty buffers in block order (for
// push-on-close and the 30-second update flush).
func (c *BufCache) DirtyBufs(vn, gen uint32) []*Buf {
	var out []*Buf
	for _, b := range c.chains[uint64(vn)<<32|uint64(gen)] {
		if b.Dirty {
			out = append(out, b)
		}
	}
	// Chains append in insertion order; sort by block number for
	// sequential writes.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Key.Block < out[j-1].Key.Block; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// VnodeBufs returns all resident buffers of a vnode.
func (c *BufCache) VnodeBufs(vn, gen uint32) []*Buf {
	return append([]*Buf(nil), c.chains[uint64(vn)<<32|uint64(gen)]...)
}
