package vfs

import (
	"sync"

	"renonfs/internal/lockstat"
	"renonfs/internal/metrics"
)

// Per-kind contention sites, shared by every cache instance in the process:
// the scaling hunt wants "how much time do nfsds spend waiting on buf-cache
// stripes", not a per-server split.
var (
	bufSite  = lockstat.NewSite("vfs.bufcache")
	nameSite = lockstat.NewSite("vfs.namecache")
)

// Lock-striped fronts for the two VFS caches, used by the server core when
// it is dispatched from concurrent frontends (internal/nfsnet). Each stripe
// is an ordinary BufCache/NameCache behind its own mutex, and keys are
// routed by vnode (buffer cache) or by (dir, name) hash (name cache), so
// every per-vnode operation — chained lookups, invalidation, dirty scans —
// touches exactly one stripe. With a single stripe the behaviour (LRU order,
// eviction victims, stats) is bit-for-bit one BufCache's, which is what the
// simulator runs to stay deterministic; the socket frontends ask for more
// stripes so the nfsd pool stops serializing on one lock. Both call the
// same methods.
//
// The stripe count is rounded down to a power of two for cheap masking, and
// the configured capacity is divided evenly among stripes. The linear-scan
// discipline (ChainedLookup=false, the Ultrix personality) inherently scans
// one global LRU list, so it is pinned to a single stripe — sharding it
// would change the very search cost the personality exists to model.

// StripedBufCache is a BufCache split into independently locked stripes.
type StripedBufCache struct {
	stripes []bufStripe
	mask    uint32
}

type bufStripe struct {
	mu sync.Mutex
	c  *BufCache
}

// roundStripes clamps n to [1, 64] and rounds down to a power of two.
func roundStripes(n int) int {
	if n < 1 {
		n = 1
	}
	if n > 64 {
		n = 64
	}
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

// NewStripedBufCache returns a striped cache with the given total capacity.
// Linear-scan caches (chained=false) are forced to one stripe.
func NewStripedBufCache(capacity int, chained bool, stripes int) *StripedBufCache {
	if !chained {
		stripes = 1
	}
	n := roundStripes(stripes)
	per := capacity / n
	if per < 1 {
		per = 1
	}
	c := &StripedBufCache{stripes: make([]bufStripe, n), mask: uint32(n - 1)}
	for i := range c.stripes {
		c.stripes[i].c = NewBufCache(per, chained)
	}
	return c
}

// stripe routes a key by vnode so a vnode's buffers share one stripe.
func (c *StripedBufCache) stripe(vn, gen uint32) *bufStripe {
	h := vn*0x9e3779b1 ^ gen*0x85ebca77
	return &c.stripes[(h>>16^h)&c.mask]
}

// NumStripes reports the stripe count.
func (c *StripedBufCache) NumStripes() int { return len(c.stripes) }

// LookupOrReserve finds block k, or reserves a presence-only buffer for it,
// in one critical section — two nfsds missing on the same block must not
// both insert it (BufCache.Insert panics on the second). Stats accounting is
// BufCache.Lookup's, plus an Insert on a miss; scanned is what the caller
// charges the search.
func (c *StripedBufCache) LookupOrReserve(k BufKey, sp *metrics.Span) (hit bool, scanned int) {
	st := c.stripe(k.Vnode, k.Gen)
	bufSite.Lock(&st.mu, sp)
	b, scanned := st.c.Lookup(k)
	if b == nil {
		st.c.Insert(k)
	}
	st.mu.Unlock()
	return b != nil, scanned
}

// EnsureResident makes k resident without LRU refresh or scan accounting
// (the write path: the just-written block is now cached): BufCache.Peek,
// then Insert if absent, in one critical section.
func (c *StripedBufCache) EnsureResident(k BufKey, sp *metrics.Span) {
	st := c.stripe(k.Vnode, k.Gen)
	bufSite.Lock(&st.mu, sp)
	if st.c.Peek(k) == nil {
		st.c.Insert(k)
	}
	st.mu.Unlock()
}

// InvalidateVnode drops every buffer of the vnode.
func (c *StripedBufCache) InvalidateVnode(vn, gen uint32) {
	st := c.stripe(vn, gen)
	bufSite.Lock(&st.mu, nil)
	st.c.InvalidateVnode(vn, gen)
	st.mu.Unlock()
}

// Len returns the number of resident buffers across all stripes.
func (c *StripedBufCache) Len() int {
	n := 0
	for i := range c.stripes {
		st := &c.stripes[i]
		st.mu.Lock()
		n += st.c.Len()
		st.mu.Unlock()
	}
	return n
}

// Stats aggregates the per-stripe counters.
func (c *StripedBufCache) Stats() CacheStats {
	var out CacheStats
	for i := range c.stripes {
		st := &c.stripes[i]
		st.mu.Lock()
		s := st.c.Stats
		st.mu.Unlock()
		out.Hits += s.Hits
		out.Misses += s.Misses
		out.Evictions += s.Evictions
		out.Scanned += s.Scanned
	}
	return out
}

// StripedNameCache is a NameCache split into independently locked stripes.
type StripedNameCache struct {
	stripes []ncStripe
	mask    uint64
}

type ncStripe struct {
	mu sync.Mutex
	c  *NameCache
}

// NewStripedNameCache returns a striped cache with Reno's defaults spread
// over the stripes.
func NewStripedNameCache(stripes int) *StripedNameCache {
	n := roundStripes(stripes)
	c := &StripedNameCache{stripes: make([]ncStripe, n), mask: uint64(n - 1)}
	per := DefaultNameCacheCap / n
	if per < 1 {
		per = 1
	}
	for i := range c.stripes {
		c.stripes[i].c = NewNameCache()
		c.stripes[i].c.Capacity = per
	}
	return c
}

// stripe routes by (dir, gen, name) hash — allocation-free FNV over the
// component, mixed with the directory identity.
func (c *StripedNameCache) stripe(dir, gen uint32, name string) *ncStripe {
	h := uint64(dir)*0x9e3779b1 ^ uint64(gen)*0x85ebca77
	for i := 0; i < len(name); i++ {
		h = h*1099511628211 ^ uint64(name[i])
	}
	return &c.stripes[(h>>32^h)&c.mask]
}

// NumStripes reports the stripe count.
func (c *StripedNameCache) NumStripes() int { return len(c.stripes) }

// SetEnabled toggles the cache (the appendix experiment flips it at run
// time).
func (c *StripedNameCache) SetEnabled(on bool) {
	for i := range c.stripes {
		st := &c.stripes[i]
		st.mu.Lock()
		st.c.Enabled = on
		st.mu.Unlock()
	}
}

// Enabled reports whether the cache is on. The flag only changes between
// runs (SetEnabled), so reading stripe 0 suffices.
func (c *StripedNameCache) Enabled() bool {
	st := &c.stripes[0]
	st.mu.Lock()
	on := st.c.Enabled
	st.mu.Unlock()
	return on
}

// Lookup consults the cache; semantics match NameCache.Lookup.
func (c *StripedNameCache) Lookup(dir, dgen uint32, name string, sp *metrics.Span) (vn, vgen uint32, neg, found bool) {
	st := c.stripe(dir, dgen, name)
	nameSite.Lock(&st.mu, sp)
	vn, vgen, neg, found = st.c.Lookup(dir, dgen, name)
	st.mu.Unlock()
	return vn, vgen, neg, found
}

// Enter caches a positive translation.
func (c *StripedNameCache) Enter(dir, dgen uint32, name string, vn, vgen uint32, sp *metrics.Span) {
	st := c.stripe(dir, dgen, name)
	nameSite.Lock(&st.mu, sp)
	st.c.Enter(dir, dgen, name, vn, vgen)
	st.mu.Unlock()
}

// EnterNegative caches known non-existence.
func (c *StripedNameCache) EnterNegative(dir, dgen uint32, name string, sp *metrics.Span) {
	st := c.stripe(dir, dgen, name)
	nameSite.Lock(&st.mu, sp)
	st.c.EnterNegative(dir, dgen, name)
	st.mu.Unlock()
}

// Remove drops one translation.
func (c *StripedNameCache) Remove(dir, dgen uint32, name string) {
	st := c.stripe(dir, dgen, name)
	nameSite.Lock(&st.mu, nil)
	st.c.Remove(dir, dgen, name)
	st.mu.Unlock()
}

// PurgeDir drops every translation under a directory. Entries of one
// directory spread across stripes (the name is part of the route), so every
// stripe is visited.
func (c *StripedNameCache) PurgeDir(dir, dgen uint32) {
	for i := range c.stripes {
		st := &c.stripes[i]
		st.mu.Lock()
		st.c.PurgeDir(dir, dgen)
		st.mu.Unlock()
	}
}

// PurgeVnode drops translations resolving to the vnode.
func (c *StripedNameCache) PurgeVnode(vn, vgen uint32) {
	for i := range c.stripes {
		st := &c.stripes[i]
		st.mu.Lock()
		st.c.PurgeVnode(vn, vgen)
		st.mu.Unlock()
	}
}

// Len returns the number of cached entries across all stripes.
func (c *StripedNameCache) Len() int {
	n := 0
	for i := range c.stripes {
		st := &c.stripes[i]
		st.mu.Lock()
		n += st.c.Len()
		st.mu.Unlock()
	}
	return n
}

// Stats aggregates the per-stripe counters.
func (c *StripedNameCache) Stats() NameCacheStats {
	var out NameCacheStats
	for i := range c.stripes {
		st := &c.stripes[i]
		st.mu.Lock()
		s := st.c.Stats
		st.mu.Unlock()
		out.Hits += s.Hits
		out.Misses += s.Misses
		out.TooLong += s.TooLong
		out.NegHits += s.NegHits
	}
	return out
}
