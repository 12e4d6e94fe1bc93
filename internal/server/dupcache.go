package server

import (
	"container/list"
	"sync"

	"renonfs/internal/lockstat"
	"renonfs/internal/mbuf"
	"renonfs/internal/metrics"
)

// dupcSite attributes shard-lock waits to the "server.dupc" lockstat site
// (lock.server.dupc.*) and to the caller's span.
var dupcSite = lockstat.NewSite("server.dupc")

// dupKey identifies one RPC for duplicate detection: who sent it, its
// transaction id, and the procedure (a retransmission reuses all three). A
// struct key avoids the per-call string formatting a concatenated key costs
// on the hot path.
type dupKey struct {
	peer string
	xid  uint32
	proc uint32
}

// dupCache is the duplicate request cache of [Juszczak89]: recent replies
// to non-idempotent calls, keyed by caller and transaction id, so that a
// retransmitted REMOVE or CREATE is answered from cache instead of being
// re-executed (the "at least once" hazard the conclusions call out).
//
// The cache is split into dupKey-hashed shards, each with its own mutex and
// LRU list, so the nfsd pool of concurrent frontends does not serialize on
// one cache lock. Entries carry an in-progress state: begin claims a key
// before execution, and a retransmission that arrives while the original is
// still executing is dropped rather than executed a second time — the only
// answer that preserves exactly-once for non-idempotent procedures when two
// workers can hold the same call concurrently (the client retransmits again
// and finds the committed reply). Small caches collapse to one shard so the
// eviction order stays the exact global LRU the churn tests pin down.
type dupCache struct {
	shards []dupShard
	mask   uint32

	// cDrops counts retransmissions dropped because the original call was
	// still in flight (server.dupc.inflight_drops; nil in bare tests).
	cDrops *metrics.Counter
}

type dupShard struct {
	mu      sync.Mutex
	cap     int
	entries map[dupKey]*list.Element
	order   *list.List // front = newest; values are *dupEntry
}

type dupEntry struct {
	key   dupKey
	reply *mbuf.Chain
	done  bool // false while the original call is still executing
}

func newDupCache(capacity int) *dupCache {
	if capacity < 1 {
		capacity = 1
	}
	// Shard only when every shard keeps a meaningful LRU depth (≥16); up to
	// 16 shards. A 64-entry default gets 4 shards; test-sized caches (8, 16)
	// keep the exact single-LRU behaviour.
	n := 1
	for n*2 <= 16 && capacity/(n*2) >= 16 {
		n *= 2
	}
	c := &dupCache{shards: make([]dupShard, n), mask: uint32(n - 1)}
	for i := range c.shards {
		c.shards[i] = dupShard{
			cap:     capacity / n,
			entries: make(map[dupKey]*list.Element),
			order:   list.New(),
		}
	}
	return c
}

func (c *dupCache) shard(key dupKey) *dupShard {
	h := key.xid*0x9e3779b1 ^ key.proc*0x85ebca77
	for i := 0; i < len(key.peer); i++ {
		h = h*16777619 ^ uint32(key.peer[i])
	}
	return &c.shards[(h>>16^h)&c.mask]
}

// begin claims key before executing its call. Exactly one case holds:
//
//   - cached != nil: a completed reply is on file — a duplicate hit; the
//     caller clones it and answers without executing.
//   - inflight: another worker is executing this very call right now — the
//     caller drops the request (the client's next retransmission finds the
//     committed reply).
//   - neither: the key is now marked in progress and the caller must
//     execute the call and commit the reply.
func (c *dupCache) begin(key dupKey, sp *metrics.Span) (cached *mbuf.Chain, inflight bool) {
	sh := c.shard(key)
	dupcSite.Lock(&sh.mu, sp)
	if e := sh.entries[key]; e != nil {
		ent := e.Value.(*dupEntry)
		if !ent.done {
			sh.mu.Unlock()
			if c.cDrops != nil {
				c.cDrops.Add(1)
			}
			return nil, true
		}
		sh.order.MoveToFront(e)
		sh.mu.Unlock()
		return ent.reply, false
	}
	sh.insertLocked(&dupEntry{key: key})
	sh.mu.Unlock()
	return nil, false
}

// commit stores the reply for a key claimed by begin.
func (c *dupCache) commit(key dupKey, reply *mbuf.Chain, sp *metrics.Span) {
	sh := c.shard(key)
	dupcSite.Lock(&sh.mu, sp)
	if e := sh.entries[key]; e != nil {
		ent := e.Value.(*dupEntry)
		ent.reply = reply
		ent.done = true
	} else {
		// The in-progress marker was evicted (overfull shard): file the
		// reply as a fresh completed entry.
		sh.insertLocked(&dupEntry{key: key, reply: reply, done: true})
	}
	sh.mu.Unlock()
}

// insertLocked files a new entry, evicting the oldest completed entry when
// the shard is full. In-progress markers are never evicted unless nothing
// else remains — losing one mid-execution would forfeit the exactly-once
// guarantee the marker exists to provide.
func (sh *dupShard) insertLocked(ent *dupEntry) {
	if sh.order.Len() >= sh.cap {
		for e := sh.order.Back(); e != nil; e = e.Prev() {
			old := e.Value.(*dupEntry)
			if old.done || sh.order.Len() > 2*sh.cap {
				sh.order.Remove(e)
				delete(sh.entries, old.key)
				break
			}
		}
	}
	sh.entries[ent.key] = sh.order.PushFront(ent)
}

// len returns the number of cached replies (including in-progress markers).
func (c *dupCache) len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.order.Len()
		sh.mu.Unlock()
	}
	return n
}
