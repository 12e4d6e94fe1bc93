package server

import (
	"fmt"
	"testing"

	"renonfs/internal/mbuf"
	"renonfs/internal/memfs"
	"renonfs/internal/nfsproto"
	"renonfs/internal/xdr"
)

// execute files reply under key the way the serving path does for a fresh
// non-idempotent call: begin claims the key, commit stores the reply.
func execute(t *testing.T, c *dupCache, key dupKey, reply *mbuf.Chain) {
	t.Helper()
	if cached, inflight := c.begin(key, nil); cached != nil || inflight {
		t.Fatalf("begin(%v) on a fresh key: cached=%v inflight=%v", key, cached != nil, inflight)
	}
	c.commit(key, reply, nil)
}

// TestDupCacheChurnStaysBounded hammers the cache with far more distinct
// (peer, xid) keys than it can hold and checks the size invariant after
// every insertion: the cache must never exceed its capacity no matter how
// fast clients burn through xids.
func TestDupCacheChurnStaysBounded(t *testing.T) {
	const cap = 128
	c := newDupCache(cap)
	reply := &mbuf.Chain{}
	for peer := 0; peer < 16; peer++ {
		for xid := 0; xid < 2000; xid++ {
			execute(t, c, dupKey{peer: fmt.Sprintf("p%d", peer), xid: uint32(xid), proc: 10}, reply)
			if c.len() > cap {
				t.Fatalf("cache grew to %d entries (cap %d) at peer %d xid %d",
					c.len(), cap, peer, xid)
			}
		}
	}
	if c.len() != cap {
		t.Fatalf("cache len = %d after churn, want %d", c.len(), cap)
	}
}

// TestDupCacheLRUKeepsHotEntries: an entry that keeps getting hit (a
// client stuck retransmitting one call) must survive churn that evicts
// colder entries.
func TestDupCacheLRUKeepsHotEntries(t *testing.T) {
	c := newDupCache(8)
	hot := &mbuf.Chain{}
	hotKey := dupKey{peer: "hot", xid: 1, proc: 10}
	execute(t, c, hotKey, hot)
	for i := 0; i < 100; i++ {
		execute(t, c, dupKey{peer: "cold", xid: uint32(i), proc: 10}, &mbuf.Chain{})
		if cached, _ := c.begin(hotKey, nil); cached != hot {
			t.Fatalf("hot entry evicted after %d cold insertions", i+1)
		}
	}
	// Committing over an existing key must not grow the cache.
	n := c.len()
	c.commit(hotKey, &mbuf.Chain{}, nil)
	if c.len() != n {
		t.Fatalf("overwrite grew cache from %d to %d", n, c.len())
	}
	if cached, _ := c.begin(dupKey{peer: "cold", xid: 0, proc: 10}, nil); cached != nil {
		t.Fatal("cold0 should have been evicted long ago")
	}
}

// TestDupCacheReplayAcrossChurn drives churn through the server's own
// frontend: a replayed REMOVE is answered from cache while its entry is
// warm, and re-executed (returning ErrNoEnt — the §1 wart) once enough
// intervening non-idempotent calls from other xids have evicted it.
func TestDupCacheReplayAcrossChurn(t *testing.T) {
	opts := Reno()
	opts.DupCacheSize = 16
	s := New(memfs.New(1, nil, nil), opts)
	mustCreate(t, s, s.RootFH(), "victim")
	rmArgs := func(e *xdr.Encoder) {
		(&nfsproto.DiropArgs{Dir: s.RootFH(), Name: "victim"}).Encode(e)
	}
	_, d := callPeer(t, s, "churner", 5000, nfsproto.ProcRemove, rmArgs)
	if res, _ := nfsproto.DecodeStatusRes(d); res.Status != nfsproto.OK {
		t.Fatalf("remove: %v", res.Status)
	}
	// Warm replay: answered from cache with the original OK.
	_, d = callPeer(t, s, "churner", 5000, nfsproto.ProcRemove, rmArgs)
	if res, _ := nfsproto.DecodeStatusRes(d); res.Status != nfsproto.OK {
		t.Fatalf("warm replay not served from cache: %v", res.Status)
	}
	if s.cDupHits.Value() != 1 {
		t.Fatalf("DupHits = %d, want 1", s.cDupHits.Value())
	}
	// Churn the cache full of other xids.
	for i := 0; i < opts.DupCacheSize; i++ {
		_, d = callPeer(t, s, "churner", uint32(6000+i), nfsproto.ProcCreate, func(e *xdr.Encoder) {
			(&nfsproto.CreateArgs{
				Where: nfsproto.DiropArgs{Dir: s.RootFH(), Name: fmt.Sprintf("churn%d", i)},
				Attr:  nfsproto.NewSattr(),
			}).Encode(e)
		})
		if res, _ := nfsproto.DecodeDiropRes(d); res.Status != nfsproto.OK {
			t.Fatalf("churn create %d: %v", i, res.Status)
		}
	}
	// Cold replay: the entry is gone, the call re-executes, and the
	// second execution sees the file already removed.
	_, d = callPeer(t, s, "churner", 5000, nfsproto.ProcRemove, rmArgs)
	if res, _ := nfsproto.DecodeStatusRes(d); res.Status != nfsproto.ErrNoEnt {
		t.Fatalf("cold replay status = %v, want ErrNoEnt (re-executed)", res.Status)
	}
	if s.cDupHits.Value() != 1 {
		t.Fatalf("DupHits = %d after cold replay, want still 1", s.cDupHits.Value())
	}
	if s.dupc.len() > opts.DupCacheSize {
		t.Fatalf("dup cache len %d exceeds cap %d", s.dupc.len(), opts.DupCacheSize)
	}
}
