package vfs

import (
	"bytes"
	"testing"
	"testing/quick"
)

func key(vn, blk uint32) BufKey { return BufKey{Vnode: vn, Gen: 1, Block: blk} }

func TestBufWriteTracksDirtyRegion(t *testing.T) {
	b := &Buf{Key: key(1, 0)}
	if b.Write(100, []byte("hello")) {
		t.Fatal("first write demanded a flush")
	}
	if !b.Dirty || b.DirtyOff != 100 || b.DirtyEnd != 105 {
		t.Fatalf("dirty region = [%d,%d)", b.DirtyOff, b.DirtyEnd)
	}
	// Contiguous extension.
	if b.Write(105, []byte(" world")) {
		t.Fatal("contiguous write demanded a flush")
	}
	if b.DirtyOff != 100 || b.DirtyEnd != 111 {
		t.Fatalf("dirty region = [%d,%d)", b.DirtyOff, b.DirtyEnd)
	}
	// Overlapping write extends left.
	if b.Write(90, bytes.Repeat([]byte{'x'}, 15)) {
		t.Fatal("overlapping write demanded a flush")
	}
	if b.DirtyOff != 90 || b.DirtyEnd != 111 {
		t.Fatalf("dirty region = [%d,%d)", b.DirtyOff, b.DirtyEnd)
	}
	if got := string(b.Data[90:111]); got != "xxxxxxxxxxxxxxx world" {
		t.Fatalf("data = %q", got)
	}
}

func TestBufDisjointWriteNeedsFlush(t *testing.T) {
	b := &Buf{Key: key(1, 0)}
	b.Write(0, []byte("start"))
	if !b.Write(4000, []byte("far away")) {
		t.Fatal("disjoint dirty write did not demand a flush")
	}
	// The buffer must be unchanged by the refused write.
	if b.DirtyEnd != 5 {
		t.Fatalf("dirty end = %d", b.DirtyEnd)
	}
	b.MarkClean()
	if b.Write(4000, []byte("far away")) {
		t.Fatal("write after flush still demanded a flush")
	}
	if b.DirtyOff != 4000 || b.DirtyEnd != 4008 {
		t.Fatalf("dirty region = [%d,%d)", b.DirtyOff, b.DirtyEnd)
	}
}

func TestBufNoPrereadForPartialWrite(t *testing.T) {
	// A fresh buffer accepts a mid-block write without any read: the valid
	// range tracks exactly what was written.
	b := &Buf{Key: key(1, 0)}
	if b.Write(1000, []byte("partial")) {
		t.Fatal("needed flush")
	}
	if b.ValidOff != 1000 || b.ValidEnd != 1007 {
		t.Fatalf("valid = [%d,%d)", b.ValidOff, b.ValidEnd)
	}
	if !b.Covers(1000, 1007) || b.Covers(0, 8) {
		t.Fatal("Covers wrong")
	}
}

func TestBufWriteBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b := &Buf{Key: key(1, 0)}
	b.Write(BlockSize-2, []byte("overflow"))
}

func TestBufCacheHitMissLRU(t *testing.T) {
	c := NewBufCache(2, true)
	b1, v := c.Insert(key(1, 0))
	if v != nil {
		t.Fatal("victim on first insert")
	}
	b2, _ := c.Insert(key(1, 1))
	if got, _ := c.Lookup(key(1, 0)); got != b1 {
		t.Fatal("lookup missed resident block")
	}
	// Inserting a third evicts the LRU (1,1 — since (1,0) was refreshed).
	_, victim := c.Insert(key(2, 0))
	if victim != b2 {
		t.Fatalf("victim = %+v, want block (1,1)", victim)
	}
	if got, _ := c.Lookup(key(1, 1)); got != nil {
		t.Fatal("evicted block still resident")
	}
	if c.Stats.Evictions != 1 {
		t.Fatalf("evictions = %d", c.Stats.Evictions)
	}
}

func TestChainedLookupScansOnlyVnode(t *testing.T) {
	c := NewBufCache(100, true)
	for vn := uint32(1); vn <= 10; vn++ {
		for blk := uint32(0); blk < 8; blk++ {
			c.Insert(key(vn, blk))
		}
	}
	_, scanned := c.Lookup(key(5, 7))
	if scanned > 8 {
		t.Fatalf("chained lookup scanned %d buffers, want <= 8", scanned)
	}
}

func TestLinearLookupScansCache(t *testing.T) {
	c := NewBufCache(100, false)
	for vn := uint32(1); vn <= 10; vn++ {
		for blk := uint32(0); blk < 8; blk++ {
			c.Insert(key(vn, blk))
		}
	}
	// The last-inserted block is at the LRU front; look up the first one.
	_, scanned := c.Lookup(key(1, 0))
	if scanned < 50 {
		t.Fatalf("linear lookup scanned only %d buffers", scanned)
	}
}

func TestInvalidateVnodeReturnsDirty(t *testing.T) {
	c := NewBufCache(10, true)
	b0, _ := c.Insert(key(1, 0))
	b0.Write(0, []byte("dirty"))
	c.Insert(key(1, 1)) // clean
	b2, _ := c.Insert(key(1, 2))
	b2.Write(0, []byte("dirty too"))
	c.Insert(key(2, 0)) // other vnode

	dirty := c.InvalidateVnode(1, 1)
	if len(dirty) != 2 {
		t.Fatalf("dirty = %d bufs, want 2", len(dirty))
	}
	if c.Len() != 1 {
		t.Fatalf("cache len = %d, want 1 (other vnode only)", c.Len())
	}
	if b, _ := c.Lookup(key(2, 0)); b == nil {
		t.Fatal("other vnode's buffer lost")
	}
}

func TestDirtyBufsSorted(t *testing.T) {
	c := NewBufCache(10, true)
	for _, blk := range []uint32{3, 0, 7, 1} {
		b, _ := c.Insert(key(1, blk))
		b.Write(0, []byte{1})
	}
	cl, _ := c.Insert(key(1, 5)) // clean
	_ = cl
	dirty := c.DirtyBufs(1, 1)
	if len(dirty) != 4 {
		t.Fatalf("dirty = %d", len(dirty))
	}
	for i := 1; i < len(dirty); i++ {
		if dirty[i].Key.Block < dirty[i-1].Key.Block {
			t.Fatalf("not sorted: %v", dirty)
		}
	}
}

func TestBufCacheInsertDuplicatePanics(t *testing.T) {
	c := NewBufCache(4, true)
	c.Insert(key(1, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Insert(key(1, 0))
}

func TestBufCachePropertyResidencyConsistent(t *testing.T) {
	// Under arbitrary insert/lookup sequences, the index, LRU list and
	// per-vnode chains agree, and residency never exceeds capacity.
	f := func(ops []uint16) bool {
		c := NewBufCache(8, true)
		for _, op := range ops {
			vn := uint32(op % 5)
			blk := uint32((op >> 4) % 6)
			k := BufKey{Vnode: vn, Gen: 1, Block: blk}
			if b, _ := c.Lookup(k); b == nil {
				c.Insert(k)
			}
			if c.Len() > 8 {
				return false
			}
		}
		// Every chain member must be in the index and vice versa.
		n := 0
		for vn := uint32(0); vn < 5; vn++ {
			for _, b := range c.VnodeBufs(vn, 1) {
				if c.Peek(b.Key) != b {
					return false
				}
				n++
			}
		}
		return n == c.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNameCacheBasics(t *testing.T) {
	nc := NewNameCache()
	if _, _, _, found := nc.Lookup(1, 1, "foo.c"); found {
		t.Fatal("hit on empty cache")
	}
	nc.Enter(1, 1, "foo.c", 42, 7)
	vn, vgen, neg, found := nc.Lookup(1, 1, "foo.c")
	if !found || neg || vn != 42 || vgen != 7 {
		t.Fatalf("lookup = %d,%d,%v,%v", vn, vgen, neg, found)
	}
	if nc.Stats.Hits != 1 || nc.Stats.Misses != 1 {
		t.Fatalf("stats = %+v", nc.Stats)
	}
}

func TestNameCacheLongNamesRejected(t *testing.T) {
	nc := NewNameCache()
	long := "this-name-is-well-over-thirty-one-characters-long.c"
	nc.Enter(1, 1, long, 9, 1)
	if _, _, _, found := nc.Lookup(1, 1, long); found {
		t.Fatal("cached a name beyond the 31-char Reno limit")
	}
	if nc.Stats.TooLong == 0 {
		t.Fatal("TooLong not counted")
	}
}

func TestNameCacheNegativeEntries(t *testing.T) {
	nc := NewNameCache()
	nc.EnterNegative(1, 1, "no-such-file")
	_, _, neg, found := nc.Lookup(1, 1, "no-such-file")
	if !found || !neg {
		t.Fatalf("negative lookup = neg=%v found=%v", neg, found)
	}
	if nc.Stats.NegHits != 1 {
		t.Fatalf("NegHits = %d", nc.Stats.NegHits)
	}
}

func TestNameCacheDisabled(t *testing.T) {
	nc := NewNameCache()
	nc.Enter(1, 1, "a", 2, 1)
	nc.Enabled = false
	if _, _, _, found := nc.Lookup(1, 1, "a"); found {
		t.Fatal("disabled cache returned a hit")
	}
	nc.Enter(1, 1, "b", 3, 1)
	nc.Enabled = true
	if _, _, _, found := nc.Lookup(1, 1, "b"); found {
		t.Fatal("entry added while disabled")
	}
}

func TestNameCacheRemoveAndPurge(t *testing.T) {
	nc := NewNameCache()
	nc.Enter(1, 1, "a", 10, 1)
	nc.Enter(1, 1, "b", 11, 1)
	nc.Enter(2, 1, "c", 12, 1)
	nc.Remove(1, 1, "a")
	if _, _, _, found := nc.Lookup(1, 1, "a"); found {
		t.Fatal("removed entry found")
	}
	nc.PurgeDir(1, 1)
	if _, _, _, found := nc.Lookup(1, 1, "b"); found {
		t.Fatal("purged dir entry found")
	}
	if _, _, _, found := nc.Lookup(2, 1, "c"); !found {
		t.Fatal("unrelated entry lost")
	}
	nc.PurgeVnode(12, 1)
	if _, _, _, found := nc.Lookup(2, 1, "c"); found {
		t.Fatal("purged vnode entry found")
	}
}

func TestNameCacheLRUEviction(t *testing.T) {
	nc := NewNameCache()
	nc.Capacity = 3
	nc.Enter(1, 1, "a", 1, 1)
	nc.Enter(1, 1, "b", 2, 1)
	nc.Enter(1, 1, "c", 3, 1)
	nc.Lookup(1, 1, "a") // refresh a
	nc.Enter(1, 1, "d", 4, 1)
	if _, _, _, found := nc.Lookup(1, 1, "b"); found {
		t.Fatal("LRU entry not evicted")
	}
	if _, _, _, found := nc.Lookup(1, 1, "a"); !found {
		t.Fatal("refreshed entry evicted")
	}
	if nc.Len() != 3 {
		t.Fatalf("len = %d", nc.Len())
	}
}

// A clean buffer that leaves the cache, as an LRU victim or dropped by
// InvalidateVnode, gives its page to the next Insert, zeroed, and its own
// Data turns nil; a dirty victim keeps its page for its caller's flush, and
// a cache that never fills a buffer (the server's) recycles nothing.
func TestCleanPagesRecycle(t *testing.T) {
	c := NewBufCache(2, true)
	fill := func(k BufKey) *Buf {
		b, _ := c.Insert(k)
		b.Write(0, bytes.Repeat([]byte{0xA5}, BlockSize))
		b.MarkClean()
		return b
	}
	a := fill(key(1, 0))
	page := &a.Data[0]
	fill(key(1, 1))
	b, victim := c.Insert(key(1, 2))
	if victim != a || a.Data != nil {
		t.Fatalf("victim %v, its Data %d bytes: want the clean LRU buffer, its Data nil", victim, len(a.Data))
	}
	if len(b.Data) != BlockSize || &b.Data[0] != page {
		t.Fatal("the new buffer did not get the victim's page")
	}
	if !bytes.Equal(b.Data, make([]byte, BlockSize)) {
		t.Fatal("a recycled page was handed out unzeroed")
	}

	b.Write(0, []byte("dirty"))
	c.Insert(key(1, 3))             // evicts key(1, 1), clean
	_, victim = c.Insert(key(1, 4)) // evicts b, dirty
	if victim != b || string(b.Data[:5]) != "dirty" {
		t.Fatal("a dirty victim lost its page before its flush")
	}

	dropped := c.VnodeBufs(1, 1)
	c.InvalidateVnode(1, 1)
	for _, d := range dropped {
		if d.Data != nil {
			t.Fatalf("block %d dropped by InvalidateVnode still holds its page", d.Key.Block)
		}
	}
	if n, _ := c.Insert(key(2, 0)); len(n.Data) != BlockSize {
		t.Fatal("a page InvalidateVnode freed was not reused")
	}

	server := NewBufCache(1, true) // presence only: no buffer ever gets a page
	server.Insert(key(1, 0))
	server.Insert(key(1, 1))
	if len(server.free) != 0 {
		t.Fatalf("a presence-only cache holds %d free pages", len(server.free))
	}
}
