package mbuf

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"renonfs/internal/metrics"
)

// counting points the package's counts at a registry of the test's own
// until the test ends, and returns its counters.
func counting(t *testing.T) *counts {
	CountInto(metrics.NewRegistry())
	t.Cleanup(func() { CountInto(nil) })
	return into.Load()
}

func TestFromBytesRoundTrip(t *testing.T) {
	sizes := []int{0, 1, MLen, MLen + 1, ClBytes, ClBytes + 1, 3*ClBytes + 17, 8192}
	for _, n := range sizes {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i * 7)
		}
		c := FromBytes(b)
		if c.Len() != n {
			t.Fatalf("size %d: Len = %d", n, c.Len())
		}
		if !bytes.Equal(c.Bytes(), b) {
			t.Fatalf("size %d: roundtrip mismatch", n)
		}
	}
}

func TestAppendChainMovesAll(t *testing.T) {
	a := FromBytes([]byte("hello "))
	b := FromBytes([]byte("world"))
	a.AppendChain(b)
	if got := string(a.Bytes()); got != "hello world" {
		t.Fatalf("got %q", got)
	}
	if b.Len() != 0 || !b.Empty() {
		t.Fatal("source chain not emptied")
	}
	// Appending an empty chain is a no-op.
	a.AppendChain(&Chain{})
	if got := string(a.Bytes()); got != "hello world" {
		t.Fatalf("after empty append: %q", got)
	}
}

func TestPrepend(t *testing.T) {
	c := FromBytes([]byte("payload"))
	c.Prepend([]byte("hdr:"))
	if got := string(c.Bytes()); got != "hdr:payload" {
		t.Fatalf("got %q", got)
	}
	c.Prepend([]byte("h2:"))
	if got := string(c.Bytes()); got != "h2:hdr:payload" {
		t.Fatalf("got %q", got)
	}
	// Prepend onto an empty chain.
	e := &Chain{}
	e.Prepend([]byte("x"))
	if got := string(e.Bytes()); got != "x" {
		t.Fatalf("got %q", got)
	}
}

// TestAppendClusterZeroCopy: a whole cluster-sized page appended by
// AppendExt is lent, not copied, and counts as one cluster.
func TestAppendClusterZeroCopy(t *testing.T) {
	n := counting(t)
	page := make([]byte, ClBytes)
	for i := range page {
		page[i] = byte(i)
	}
	c := &Chain{}
	c.AppendExt(page)
	if got := n[copiedBytes].Value(); got != 0 {
		t.Fatalf("appending a cluster copied %d bytes", got)
	}
	if clusters, bts := c.Clusters(); clusters != 1 || bts != ClBytes {
		t.Fatalf("Clusters = %d,%d", clusters, bts)
	}
}

func TestRangeMatchesSlice(t *testing.T) {
	f := func(data []byte, a, b uint16) bool {
		if len(data) == 0 {
			return true
		}
		off := int(a) % len(data)
		n := int(b) % (len(data) - off + 1)
		c := FromBytes(data)
		v := c.Range(off, n)
		return bytes.Equal(v.Bytes(), data[off:off+n]) && v.Len() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromBytes([]byte("abc")).Range(1, 5)
}

func TestBuilderContiguity(t *testing.T) {
	c := &Chain{}
	b := NewBuilder(c)
	// Fill most of a small mbuf, then request a field that cannot fit
	// contiguously: it must land in a fresh mbuf.
	first := b.Next(100)
	for i := range first {
		first[i] = 1
	}
	second := b.Next(20)
	for i := range second {
		second[i] = 2
	}
	if c.Segments() != 2 {
		t.Fatalf("segments = %d, want 2", c.Segments())
	}
	out := c.Bytes()
	if len(out) != 120 {
		t.Fatalf("len = %d", len(out))
	}
	for i := 0; i < 100; i++ {
		if out[i] != 1 {
			t.Fatal("first field corrupted")
		}
	}
	for i := 100; i < 120; i++ {
		if out[i] != 2 {
			t.Fatal("second field corrupted")
		}
	}
}

func TestBuilderDissectorRoundTrip(t *testing.T) {
	f := func(fields [][]byte) bool {
		c := &Chain{}
		b := NewBuilder(c)
		var want []byte
		for _, fld := range fields {
			if len(fld) > ClBytes {
				fld = fld[:ClBytes]
			}
			b.WriteBytes(fld)
			want = append(want, fld...)
		}
		d := NewDissector(c)
		var got []byte
		for _, fld := range fields {
			n := len(fld)
			if n > ClBytes {
				n = ClBytes
			}
			p, err := d.Next(n)
			if err != nil {
				return false
			}
			got = append(got, p...)
		}
		return bytes.Equal(got, want) && d.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDissectorStraddle(t *testing.T) {
	// Build a chain of two mbufs and read a field across the boundary.
	c := &Chain{}
	b := NewBuilder(c)
	copy(b.Next(100), bytes.Repeat([]byte{0xaa}, 100))
	copy(b.Next(50), bytes.Repeat([]byte{0xbb}, 50))
	if c.Segments() != 2 {
		t.Fatalf("segments = %d", c.Segments())
	}
	d := NewDissector(c)
	if _, err := d.Next(90); err != nil {
		t.Fatal(err)
	}
	p, err := d.Next(30) // 10 from first mbuf, 20 from second
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if p[i] != 0xaa {
			t.Fatalf("byte %d = %x", i, p[i])
		}
	}
	for i := 10; i < 30; i++ {
		if p[i] != 0xbb {
			t.Fatalf("byte %d = %x", i, p[i])
		}
	}
	if d.Remaining() != 30 {
		t.Fatalf("remaining = %d", d.Remaining())
	}
}

func TestDissectorShort(t *testing.T) {
	c := FromBytes([]byte("abcd"))
	d := NewDissector(c)
	if _, err := d.Next(5); err != ErrShort {
		t.Fatalf("err = %v, want ErrShort", err)
	}
	if _, err := d.Next(4); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Next(1); err != ErrShort {
		t.Fatalf("err = %v, want ErrShort", err)
	}
}

func TestSkip(t *testing.T) {
	data := make([]byte, 5000)
	for i := range data {
		data[i] = byte(i)
	}
	c := FromBytes(data)
	d := NewDissector(c)
	if err := d.Skip(3000); err != nil {
		t.Fatal(err)
	}
	p, err := d.Next(4)
	if err != nil {
		t.Fatal(err)
	}
	if p[0] != byte(3000%256) || p[3] != byte(3003%256) {
		t.Fatalf("skip landed wrong: %v", p[:4])
	}
	if err := d.Skip(5000); err != ErrShort {
		t.Fatalf("err = %v, want ErrShort", err)
	}
}

func TestCopyTo(t *testing.T) {
	data := []byte("some test data that spans things")
	c := FromBytes(data)
	dst := make([]byte, len(data))
	if n := c.CopyTo(dst); n != len(data) {
		t.Fatalf("n = %d", n)
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("CopyTo mismatch")
	}
}

// TestAppendSegments pins the gather iterator: one slice per non-empty
// mbuf, in order, aliasing chain storage (a loaned block comes back as the
// very bytes that were lent), appended after what dst already held, with no
// bytes counted as copied and no allocation once dst has the capacity.
func TestAppendSegments(t *testing.T) {
	hdr := bytes.Repeat([]byte{0xAB}, 96)
	block := bytes.Repeat([]byte{0xCD}, 8192)
	c := &Chain{}
	c.Append(hdr)
	c.AppendExt(block)
	c.Append([]byte{1, 2, 3, 4})
	defer c.Free()

	mark := []byte{0x80, 0, 0, 0}
	segs := make([][]byte, 0, 8)
	n := counting(t)
	segs = c.AppendSegments(append(segs, mark))
	if got := n[copiedBytes].Value(); got != 0 {
		t.Errorf("AppendSegments counted %d copied bytes, want 0", got)
	}
	if len(segs) != 1+c.Segments() || &segs[0][0] != &mark[0] {
		t.Fatalf("%d segments after the mark, want %d behind it", len(segs)-1, c.Segments())
	}
	if &segs[2][0] != &block[0] || len(segs[2]) != len(block) {
		t.Error("loaned segment does not alias the lent block")
	}
	if got := bytes.Join(segs[1:], nil); !bytes.Equal(got, c.Bytes()) {
		t.Error("segments do not concatenate to the chain's bytes")
	}
	if n := testing.AllocsPerRun(100, func() { segs = c.AppendSegments(segs[:0]) }); n != 0 {
		t.Errorf("AppendSegments allocates %.1f per call with capacity in hand, want 0", n)
	}
}

func TestCloneIndependence(t *testing.T) {
	c := FromBytes([]byte("original"))
	cl := c.Clone()
	// Mutate the original through a builder; clone must not change.
	NewBuilder(c).WriteBytes([]byte("-more"))
	if got := string(cl.Bytes()); got != "original" {
		t.Fatalf("clone changed: %q", got)
	}
}

func TestRandomizedBulkOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var want []byte
		c := &Chain{}
		for op := 0; op < 20; op++ {
			chunk := make([]byte, rng.Intn(4000))
			rng.Read(chunk)
			switch rng.Intn(3) {
			case 0:
				c.Append(chunk)
				want = append(want, chunk...)
			case 1:
				c.Prepend(chunk[:min(len(chunk), 64)])
				want = append(chunk[:min(len(chunk), 64)], want...)
			case 2:
				other := FromBytes(chunk)
				c.AppendChain(other)
				want = append(want, chunk...)
			}
		}
		if !bytes.Equal(c.Bytes(), want) {
			t.Fatalf("trial %d: bulk ops mismatch (len %d vs %d)", trial, c.Len(), len(want))
		}
	}
}

// Property: TrimFront and MoveFront cut a chain the way slicing cuts its
// bytes, whatever mbufs the cuts fall in — owned small mbufs and clusters,
// views, loans — and neither copies a byte. Every chain and view is freed
// at the end, so a reference miscounted by a cut panics as a double free.
func TestTrimAndMoveFrontMatchSlices(t *testing.T) {
	cnt := counting(t)
	f := func(parts []uint16, cuts []uint16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src, whole := &Chain{}, []byte{}
		var views []*Chain
		for i, n := range parts {
			b := make([]byte, int(n)%3000)
			rng.Read(b)
			switch i % 3 {
			case 0:
				src.Append(b)
			case 1:
				src.AppendExt(b)
			default:
				owner := FromBytes(b)
				views = append(views, owner)
				src.AppendChain(owner.Range(0, owner.Len()))
			}
			whole = append(whole, b...)
		}
		copied := cnt[copiedBytes].Value()
		dst, moved := &Chain{}, []byte{}
		for i, c := range cuts {
			n := int(c) % (src.Len() + 1)
			if i%2 == 0 {
				src.TrimFront(n)
			} else {
				src.MoveFront(dst, n)
				moved = append(moved, whole[:n]...)
			}
			whole = whole[n:]
			if src.Len() != len(whole) || dst.Len() != len(moved) {
				return false
			}
		}
		if cnt[copiedBytes].Value() != copied {
			t.Errorf("cutting copied %d bytes", cnt[copiedBytes].Value()-copied)
		}
		ok := bytes.Equal(src.Bytes(), whole) && bytes.Equal(dst.Bytes(), moved)
		src.Free()
		dst.Free()
		for _, v := range views {
			v.Free()
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
