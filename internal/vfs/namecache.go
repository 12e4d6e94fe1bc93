package vfs

// DefaultNameCacheCap matches the scale of the 4.3BSD Reno kernel's
// name-cache (a few hundred entries on a small machine).
const DefaultNameCacheCap = 512

// RenoMaxNameLen is the longest component 4.3BSD Reno will cache (the
// appendix notes this is longer than the names Nhfsstone generates, which
// is why long benchmark names can defeat lesser caches).
const RenoMaxNameLen = 31

// NameCacheStats counts cache behaviour.
type NameCacheStats struct {
	Hits, Misses int
	TooLong      int // names rejected by the length limit
	NegHits      int // hits on cached non-existence
}

type ncKey struct {
	dir  uint32
	gen  uint32
	name string
}

type ncEntry struct {
	key  ncKey
	vn   uint32
	vgen uint32
	neg  bool // negative entry: name known absent

	prev, next *ncEntry // LRU neighbours, toward the most and the least recent
}

// NameCache is the VFS name lookup cache: (directory, component) → vnode.
// §5 credits it with halving the Reno client's lookup RPC count (Table 3)
// and with part of the Reno server's lookup advantage (Graphs 8-9).
type NameCache struct {
	// Enabled gates the whole cache; a disabled cache misses always, which
	// is how the server-side experiment in the appendix is run.
	Enabled bool
	// Capacity bounds the entry count (LRU beyond it).
	Capacity int

	entries map[ncKey]*ncEntry
	lru     ncEntry // sentinel: lru.next is the most recent entry, lru.prev the least
	Stats   NameCacheStats
}

// NewNameCache returns an enabled cache with Reno's defaults.
func NewNameCache() *NameCache {
	nc := &NameCache{
		Enabled:  true,
		Capacity: DefaultNameCacheCap,
		entries:  make(map[ncKey]*ncEntry),
	}
	nc.lru.prev, nc.lru.next = &nc.lru, &nc.lru
	return nc
}

// pushFront links e in as the most recent entry.
func (nc *NameCache) pushFront(e *ncEntry) {
	e.prev, e.next = &nc.lru, nc.lru.next
	e.next.prev = e
	nc.lru.next = e
}

// unlink takes e out of the LRU list.
func (nc *NameCache) unlink(e *ncEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// drop forgets e.
func (nc *NameCache) drop(e *ncEntry) {
	nc.unlink(e)
	delete(nc.entries, e.key)
}

// Len returns the number of cached entries.
func (nc *NameCache) Len() int { return len(nc.entries) }

// Lookup consults the cache. found=false means a miss; found=true with
// neg=true means the name is cached as non-existent.
func (nc *NameCache) Lookup(dir, dgen uint32, name string) (vn, vgen uint32, neg, found bool) {
	if !nc.Enabled {
		nc.Stats.Misses++
		return 0, 0, false, false
	}
	if len(name) > RenoMaxNameLen {
		nc.Stats.TooLong++
		nc.Stats.Misses++
		return 0, 0, false, false
	}
	e := nc.entries[ncKey{dir, dgen, name}]
	if e == nil {
		nc.Stats.Misses++
		return 0, 0, false, false
	}
	nc.unlink(e)
	nc.pushFront(e)
	nc.Stats.Hits++
	if e.neg {
		nc.Stats.NegHits++
		return 0, 0, true, true
	}
	return e.vn, e.vgen, false, true
}

// Enter caches a positive translation.
func (nc *NameCache) Enter(dir, dgen uint32, name string, vn, vgen uint32) {
	nc.enter(dir, dgen, name, vn, vgen, false)
}

// EnterNegative caches known non-existence (4.3BSD Reno caches negative
// lookups too).
func (nc *NameCache) EnterNegative(dir, dgen uint32, name string) {
	nc.enter(dir, dgen, name, 0, 0, true)
}

func (nc *NameCache) enter(dir, dgen uint32, name string, vn, vgen uint32, neg bool) {
	if !nc.Enabled || len(name) > RenoMaxNameLen {
		return
	}
	k := ncKey{dir, dgen, name}
	if e := nc.entries[k]; e != nil {
		e.vn, e.vgen, e.neg = vn, vgen, neg
		nc.unlink(e)
		nc.pushFront(e)
		return
	}
	var e *ncEntry
	if len(nc.entries) >= nc.Capacity && nc.lru.prev != &nc.lru {
		e = nc.lru.prev // the evicted entry is the new one's record
		nc.drop(e)
	} else {
		e = &ncEntry{}
	}
	*e = ncEntry{key: k, vn: vn, vgen: vgen, neg: neg}
	nc.pushFront(e)
	nc.entries[k] = e
}

// Remove drops one translation (after REMOVE/RENAME of the name).
func (nc *NameCache) Remove(dir, dgen uint32, name string) {
	k := ncKey{dir, dgen, name}
	if e := nc.entries[k]; e != nil {
		nc.drop(e)
	}
}

// PurgeDir drops every translation under a directory (after its mtime
// changes unexpectedly).
func (nc *NameCache) PurgeDir(dir, dgen uint32) {
	for k, e := range nc.entries {
		if k.dir == dir && k.gen == dgen {
			nc.drop(e)
		}
	}
}

// PurgeVnode drops translations resolving to the vnode (after it is
// recycled).
func (nc *NameCache) PurgeVnode(vn, vgen uint32) {
	for _, e := range nc.entries {
		if !e.neg && e.vn == vn && e.vgen == vgen {
			nc.drop(e)
		}
	}
}

// Flush empties the cache.
func (nc *NameCache) Flush() {
	nc.entries = make(map[ncKey]*ncEntry)
	nc.lru.prev, nc.lru.next = &nc.lru, &nc.lru
}
