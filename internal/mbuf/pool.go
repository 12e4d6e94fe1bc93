package mbuf

import "sync"

// Mbuf storage is pooled the way the BSD kernel keeps mbufs on free lists
// (MGET / MCLGET): Chain.Free returns an mbuf's storage to a per-kind pool
// once the last reference drops, and the allocators below satisfy requests
// from the pool before asking the Go allocator. Under the RPC hot path this
// turns the per-message mbuf churn into pointer recycling, which is the Go
// analogue of the paper's "never allocate in the common case" discipline.
//
// Storage ownership is reference counted: Range and Dissector.NextChain
// create views that share an owner's storage, and the owner is recycled only
// when the owning chain and every view have been freed. Chains that are
// never freed are simply collected by the GC (the pool misses next time);
// freeing is an optimization, never a requirement.

var smallPool = sync.Pool{}
var clusterPool = sync.Pool{}

// hdrPool recycles bare mbuf header structs — views and external-storage
// (loaned) mbufs carry no storage of their own, only the ~100-byte header,
// and the RPC hot path mints one per READ reply and per WRITE payload view.
// The BSD analogue is MGET of a header with M_EXT set.
var hdrPool = sync.Pool{}

// newHdr allocates a bare header for a view or loan, preferring the free
// list. Callers fill in buf/off/dlen/cluster/ext/owner and refs.
func newHdr() *Mbuf {
	if v := hdrPool.Get(); v != nil {
		return v.(*Mbuf)
	}
	return &Mbuf{hdr: true}
}

// putHdr scrubs a dead header and returns it to the free list.
func putHdr(m *Mbuf) {
	m.buf, m.off, m.dlen, m.next, m.owner = nil, 0, 0, nil, nil
	m.cluster, m.ext = false, false
	m.refs.Store(0)
	hdrPool.Put(m)
}

// newSmall allocates a small mbuf, preferring the free list. A miss
// allocates the header and its storage as one object, as newCluster does.
func newSmall() *Mbuf {
	Stats.SmallAllocs.Add(1)
	if v := smallPool.Get(); v != nil {
		Stats.PoolHits.Add(1)
		m := v.(*Mbuf)
		m.refs.Store(1)
		return m
	}
	Stats.PoolMisses.Add(1)
	s := &struct {
		m    Mbuf
		data [MLen]byte
	}{}
	m := &s.m
	m.buf, m.pooled = s.data[:], true
	m.refs.Store(1)
	return m
}

// newCluster allocates a cluster mbuf, preferring the free list.
func newCluster() *Mbuf {
	Stats.ClusterAllocs.Add(1)
	if v := clusterPool.Get(); v != nil {
		Stats.PoolHits.Add(1)
		m := v.(*Mbuf)
		m.refs.Store(1)
		return m
	}
	Stats.PoolMisses.Add(1)
	s := &struct {
		m    Mbuf
		data [ClBytes]byte
	}{}
	m := &s.m
	m.buf, m.cluster, m.pooled = s.data[:], true, true
	m.refs.Store(1)
	return m
}

// CacheBatch is how many mbufs a Cache pulls from the shared pools per
// refill (and the most it keeps per kind when idle).
const CacheBatch = 16

// Cache is a private, single-goroutine allocation cache in front of the
// shared pools: the analogue of the per-CPU mbuf caches BSD descendants put
// in front of the global free list. A hot ingest loop (one socket reader
// staging every datagram of a batch into chains) refills it CacheBatch
// mbufs at a time, so the shared sync.Pool — and its per-P bookkeeping — is
// touched once per batch instead of once per mbuf. Freeing is unchanged:
// chains built from a Cache release their storage to the shared pools via
// Chain.Free like any other, from any goroutine.
//
// The zero value is ready to use. A Cache must not be shared between
// goroutines.
type Cache struct {
	small, cluster []*Mbuf
}

// getSmall pops a small mbuf, refilling the cache from the shared pool in
// one batch when empty.
func (c *Cache) getSmall() *Mbuf {
	if n := len(c.small); n > 0 {
		m := c.small[n-1]
		c.small[n-1] = nil
		c.small = c.small[:n-1]
		return m
	}
	if c.small == nil {
		c.small = make([]*Mbuf, 0, CacheBatch)
	}
	for i := 0; i < CacheBatch-1; i++ {
		c.small = append(c.small, newSmall())
	}
	return newSmall()
}

// getCluster pops a cluster mbuf, batch-refilling when empty.
func (c *Cache) getCluster() *Mbuf {
	if n := len(c.cluster); n > 0 {
		m := c.cluster[n-1]
		c.cluster[n-1] = nil
		c.cluster = c.cluster[:n-1]
		return m
	}
	if c.cluster == nil {
		c.cluster = make([]*Mbuf, 0, CacheBatch)
	}
	for i := 0; i < CacheBatch-1; i++ {
		c.cluster = append(c.cluster, newCluster())
	}
	return newCluster()
}

// AppendTo copies b onto the end of ch like Chain.Append, drawing storage
// from the cache.
func (c *Cache) AppendTo(ch *Chain, b []byte) {
	Stats.CopiedBytes.Add(int64(len(b)))
	for len(b) > 0 {
		var m *Mbuf
		if len(b) > MLen {
			m = c.getCluster()
		} else {
			m = c.getSmall()
		}
		n := copy(m.buf, b)
		m.dlen = n
		b = b[n:]
		ch.appendMbuf(m)
	}
}

// FromBytes builds a chain holding a copy of b from cached storage; the
// batch-allocating equivalent of the package-level FromBytes.
func (c *Cache) FromBytes(b []byte) *Chain {
	ch := &Chain{}
	c.AppendTo(ch, b)
	return ch
}

// Drain returns every cached mbuf to the shared pools (a reader calls it on
// shutdown so parked storage isn't stranded with a dead goroutine).
func (c *Cache) Drain() {
	for _, m := range c.small {
		m.release()
	}
	for _, m := range c.cluster {
		m.release()
	}
	c.small, c.cluster = nil, nil
}

// release drops one reference to the mbuf's storage owner, recycling the
// owner onto its free list when the last reference is gone. A view's own
// header recycles immediately (no other mbuf ever points at it: views
// reference the root storage owner, never an intermediate view); an
// external-storage owner recycles its header once the refs drain, leaving
// the loaned bytes with the lender.
func (m *Mbuf) release() {
	o := m
	if m.owner != nil {
		o = m.owner
	}
	n := o.refs.Add(-1)
	if n < 0 {
		panic("mbuf: release of already-freed mbuf (double Free?)")
	}
	if m != o && m.hdr {
		putHdr(m)
	}
	if n != 0 {
		return
	}
	if o.pooled {
		o.off, o.dlen, o.next, o.owner = 0, 0, nil, nil
		if o.cluster {
			clusterPool.Put(o)
		} else {
			smallPool.Put(o)
		}
	} else if o.hdr {
		putHdr(o)
	}
}

// Free releases every mbuf in the chain back to the free lists (subject to
// outstanding view references) and empties the chain. The caller must not
// touch data previously obtained from the chain afterwards. Freeing an
// already-emptied chain is a no-op; freeing the same mbufs through two
// chains is a bug (and panics under test).
func (c *Chain) Free() {
	for m := c.head; m != nil; {
		next := m.next
		m.release()
		m = next
	}
	c.head, c.tail, c.length = nil, nil, 0
}
