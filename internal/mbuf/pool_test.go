package mbuf

import (
	"bytes"
	"sync"
	"testing"

	"renonfs/internal/metrics"
)

// TestPoolRecyclesStorage: a build/free cycle returns mbufs to the free
// lists, so a warm second pass hits the pool instead of the allocator.
func TestPoolRecyclesStorage(t *testing.T) {
	payload := bytes.Repeat([]byte{0xab}, 3*ClBytes+17)
	c := FromBytes(payload)
	if got := c.Bytes(); !bytes.Equal(got, payload) {
		t.Fatal("round trip mismatch before free")
	}
	c.Free()
	if c.Len() != 0 || c.Segments() != 0 {
		t.Fatalf("freed chain not empty: len=%d segs=%d", c.Len(), c.Segments())
	}

	n := counting(t)
	c2 := FromBytes(payload)
	defer c2.Free()
	if n[poolHits].Value() == 0 {
		t.Fatalf("second pass had no pool hits (misses=%d)", n[poolMisses].Value())
	}
	if got := c2.Bytes(); !bytes.Equal(got, payload) {
		t.Fatal("round trip mismatch on recycled storage")
	}
}

// TestDoubleFreePanics: freeing the same storage twice is a bug and must be
// loud about it.
func TestDoubleFreePanics(t *testing.T) {
	c := FromBytes([]byte("once"))
	m := c.head
	c.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	m.release()
}

// TestViewKeepsOwnerAlive: freeing the owning chain while a view exists must
// not recycle the storage out from under the view; the storage is recycled
// only after the view is freed too.
func TestViewKeepsOwnerAlive(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5a}, 2*ClBytes)
	c := FromBytes(payload)
	view := c.Range(100, ClBytes)
	want := payload[100 : 100+ClBytes]
	c.Free() // view still holds references

	// Churn the pool: if the view's storage had been recycled, these
	// builds would scribble over it.
	for i := 0; i < 8; i++ {
		scratch := FromBytes(bytes.Repeat([]byte{byte(i)}, 2*ClBytes))
		scratch.Free()
	}
	if got := view.Bytes(); !bytes.Equal(got, want) {
		t.Fatal("view data corrupted after owner free + pool churn")
	}
	view.Free()
}

// TestViewOfViewChasesRootOwner: a range of a range must reference the root
// storage owner, not the intermediate view.
func TestViewOfViewChasesRootOwner(t *testing.T) {
	payload := bytes.Repeat([]byte{0xc3}, ClBytes)
	c := FromBytes(payload)
	v1 := c.Range(8, ClBytes-8)
	v2 := v1.Range(8, ClBytes-16)
	c.Free()
	v1.Free()
	// v2 alone keeps the cluster alive.
	for i := 0; i < 4; i++ {
		scratch := FromBytes(bytes.Repeat([]byte{byte(0x10 + i)}, ClBytes))
		scratch.Free()
	}
	if got := v2.Bytes(); !bytes.Equal(got, payload[16:ClBytes]) {
		t.Fatal("second-level view corrupted after owner and first view freed")
	}
	v2.Free()
}

// TestAppendExtLoansWithoutCopy: loaned storage is referenced, not copied
// and not allocated, counts as cluster storage, and never returns to the
// pools.
func TestAppendExtLoansWithoutCopy(t *testing.T) {
	n := counting(t)
	page := bytes.Repeat([]byte{0x77}, 8192)
	c := &Chain{}
	c.AppendExt(page[:4096])
	c.AppendExt(page[4096:])
	if got := n[copiedBytes].Value(); got != 0 {
		t.Fatalf("AppendExt copied %d bytes, want 0", got)
	}
	if got := n[loanedBytes].Value(); got != 8192 {
		t.Fatalf("LoanedBytes = %d, want 8192", got)
	}
	if got := n[clusterAllocs].Value() + n[smallAllocs].Value(); got != 0 {
		t.Fatalf("AppendExt allocated %d mbufs, want 0", got)
	}
	// The chain aliases the page.
	page[0] = 0x11
	if c.head.Data()[0] != 0x11 {
		t.Fatal("chain does not alias loaned page")
	}
	if n, b := c.Clusters(); n != 2 || b != 8192 {
		t.Fatalf("Clusters() = %d, %d; want 2, 8192 (loans count as clusters)", n, b)
	}
	c.Free() // must not panic or pool the caller's page
}

// TestWrapIsUncounted: a wrapped receive buffer is one aliasing segment that
// moves no counter — not a copy, not a loan, not a cluster allocation — the
// whole message dissects without a straddle copy, and a Chain value can be
// wrapped, freed and wrapped again.
func TestWrapIsUncounted(t *testing.T) {
	buf := bytes.Repeat([]byte{0x42}, 8400)
	var c Chain
	c.Wrap(buf[:0]) // an empty datagram wraps to an empty chain
	if !c.Empty() {
		t.Fatal("wrapping no bytes grew the chain")
	}
	for round := byte(0); round < 2; round++ {
		n := counting(t)
		buf[200] = round
		c.Wrap(buf)
		if c.Len() != len(buf) || c.Segments() != 1 {
			t.Fatalf("wrap: len %d in %d segments, want %d in 1", c.Len(), c.Segments(), len(buf))
		}
		d := NewDissector(&c)
		hdr, err := d.Next(200)
		if err != nil || &hdr[0] != &buf[0] {
			t.Fatalf("header read does not alias the wrapped buffer (err %v)", err)
		}
		view, err := d.NextChain(8192)
		if err != nil || view.head.Data()[0] != round {
			t.Fatalf("payload view does not alias the wrapped buffer (err %v)", err)
		}
		view.Free()
		c.Free()
		if !c.Empty() {
			t.Fatal("Free left the wrapped chain non-empty")
		}
		for i, c := range n {
			if c.Value() != 0 {
				t.Fatalf("wrap moved %s by %d", countNames[i], c.Value())
			}
		}
	}
}

// TestDissectorNextChainZeroCopy: carving a payload out of a message as a
// chain view moves no bytes even when the range spans mbufs.
func TestDissectorNextChainZeroCopy(t *testing.T) {
	payload := bytes.Repeat([]byte{0x42}, 3*ClBytes)
	c := FromBytes(payload)
	n := counting(t)
	d := NewDissector(c)
	if err := d.Skip(10); err != nil {
		t.Fatal(err)
	}
	view, err := d.NextChain(2 * ClBytes)
	if err != nil {
		t.Fatal(err)
	}
	if got := n[copiedBytes].Value(); got != 0 {
		t.Fatalf("NextChain copied %d bytes, want 0", got)
	}
	if view.Len() != 2*ClBytes {
		t.Fatalf("view len = %d, want %d", view.Len(), 2*ClBytes)
	}
	if !bytes.Equal(view.Bytes(), payload[10:10+2*ClBytes]) {
		t.Fatal("view content mismatch")
	}
	view.Free()
	c.Free()
}

// TestBuilderNeverExtendsLoanedTail: after grafting loaned storage onto a
// chain, a Builder must start a fresh mbuf rather than write into the
// lender's page (XDR padding after PutOpaqueChain would corrupt it).
func TestBuilderNeverExtendsLoanedTail(t *testing.T) {
	page := bytes.Repeat([]byte{0xee}, 100)
	c := &Chain{}
	c.AppendExt(page[:60]) // spare capacity beyond dlen belongs to the lender
	b := NewBuilder(c)
	pad := b.Next(4)
	copy(pad, []byte{0, 0, 0, 0})
	for i, v := range page {
		if v != 0xee {
			t.Fatalf("builder scribbled on loaned page at %d (now %#x)", i, v)
		}
	}
}

// TestPoolConcurrentChurn hammers allocate/range/free from many goroutines
// (run under -race): refcounts, pool recycling and data integrity must hold.
func TestPoolConcurrentChurn(t *testing.T) {
	const workers = 8
	const rounds = 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			fill := byte(id + 1)
			payload := bytes.Repeat([]byte{fill}, ClBytes+MLen+7)
			for i := 0; i < rounds; i++ {
				c := FromBytes(payload)
				v := c.Range(3, ClBytes)
				c.Free()
				for _, got := range v.Bytes() {
					if got != fill {
						t.Errorf("worker %d: view corrupted (got %#x)", id, got)
						return
					}
				}
				v.Free()
			}
		}(w)
	}
	wg.Wait()
}

// TestCacheFromBytesRoundTrip checks that chains built from a Cache carry
// the same bytes as ones built by the package-level FromBytes, across the
// small/cluster boundary and multi-segment sizes, and that freed storage
// is safely reused on the next build.
func TestCacheFromBytesRoundTrip(t *testing.T) {
	var cache Cache
	defer cache.Drain()
	sizes := []int{1, MLen - 1, MLen, MLen + 1, ClBytes, ClBytes + MLen + 7}
	for round := 0; round < 3; round++ {
		fill := byte(0x30 + round)
		for _, n := range sizes {
			payload := bytes.Repeat([]byte{fill}, n)
			c := cache.FromBytes(payload)
			if c.Len() != n {
				t.Fatalf("size %d round %d: chain length %d", n, round, c.Len())
			}
			if !bytes.Equal(c.Bytes(), payload) {
				t.Fatalf("size %d round %d: chain bytes differ from payload", n, round)
			}
			c.Free() // next round must see intact data from recycled storage
		}
	}
}

// TestCacheBatchRefill verifies the point of the Cache: the shared pools
// are touched once per CacheBatch allocations, not once per mbuf.
func TestCacheBatchRefill(t *testing.T) {
	n := counting(t)
	var cache Cache
	defer cache.Drain()
	one := []byte{0xaa}
	chains := []*Chain{cache.FromBytes(one)}
	if got := n[smallAllocs].Value(); got != CacheBatch {
		t.Fatalf("first allocation pulled %d smalls from the pools, want one batch of %d",
			got, CacheBatch)
	}
	// The rest of the batch must come from the cache without pool traffic.
	for i := 1; i < CacheBatch; i++ {
		chains = append(chains, cache.FromBytes(one))
	}
	if got := n[smallAllocs].Value(); got != CacheBatch {
		t.Fatalf("draining the cached batch still hit the pools: %d allocs, want %d",
			got, CacheBatch)
	}
	// Allocation CacheBatch+1 triggers the next refill.
	chains = append(chains, cache.FromBytes(one))
	if got := n[smallAllocs].Value(); got != 2*CacheBatch {
		t.Fatalf("refill pulled %d smalls total, want %d", got, 2*CacheBatch)
	}
	// Clusters batch independently.
	big := make([]byte, MLen+1)
	chains = append(chains, cache.FromBytes(big))
	if got := n[clusterAllocs].Value(); got != CacheBatch {
		t.Fatalf("first cluster allocation pulled %d from the pools, want %d",
			got, CacheBatch)
	}
	for _, c := range chains {
		c.Free()
	}
}

// TestCacheDrainRecyclesParkedStorage checks Drain hands cached-but-unused
// mbufs back to the shared pools instead of stranding them: a post-Drain
// allocation must be a pool hit, and a drained Cache must still work.
func TestCacheDrainRecyclesParkedStorage(t *testing.T) {
	var cache Cache
	c := cache.FromBytes([]byte{1}) // parks CacheBatch-1 smalls in the cache
	c.Free()
	cache.Drain()
	n := counting(t)
	c2 := FromBytes([]byte{2}) // package-level: straight from the shared pool
	if hits := n[poolHits].Value(); hits != 1 {
		t.Fatalf("allocation after Drain missed the pool (hits=%d): drained storage was stranded", hits)
	}
	c2.Free()
	// The drained cache is still usable (zero-value semantics all over again).
	c3 := cache.FromBytes([]byte{3, 4, 5})
	if !bytes.Equal(c3.Bytes(), []byte{3, 4, 5}) {
		t.Fatalf("cache unusable after Drain: got % x", c3.Bytes())
	}
	c3.Free()
	cache.Drain()
}

// BenchmarkAppendFreeParallel runs a 200-byte Append + Free on every
// goroutine RunParallel starts, counting nothing (the simulator's case)
// and counting into a registry (nfsd's). make bench runs it at -cpu 1,2:
// the counted case's counters are shared by every goroutine.
func BenchmarkAppendFreeParallel(b *testing.B) {
	payload := make([]byte, 200)
	for _, name := range []string{"uncounted", "counted"} {
		b.Run(name, func(b *testing.B) {
			if name == "counted" {
				CountInto(metrics.NewRegistry())
				defer CountInto(nil)
			}
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					var c Chain
					c.Append(payload)
					c.Free()
				}
			})
		})
	}
}
