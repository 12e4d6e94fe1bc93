package mbuf

import (
	"errors"
	"fmt"
)

// ErrShort is returned by Dissector operations that run past the end of the
// chain — the analogue of a truncated RPC message.
var ErrShort = errors.New("mbuf: chain too short")

// Builder appends data to a chain field by field, keeping fields contiguous
// within an mbuf the way the nfsm_build macro does: if the current mbuf
// cannot hold the next field contiguously, a new mbuf is started.
//
// Builders embed no state beyond the chain pointer, so they can live inside
// a larger struct (xdr.Encoder does this) and be re-pointed with Reset
// without allocating.
type Builder struct {
	c *Chain
}

// NewBuilder returns a Builder appending to c.
func NewBuilder(c *Chain) *Builder { return &Builder{c: c} }

// Reset re-points the builder at c, allowing a value-embedded Builder to be
// reused without allocation.
func (b *Builder) Reset(c *Chain) { b.c = c }

// Chain returns the chain under construction.
func (b *Builder) Chain() *Chain { return b.c }

// Next reserves n contiguous bytes at the end of the chain and returns the
// slice to fill in — the nfsm_build contract. Fields larger than a cluster
// are rejected; callers append bulk data with Chain.Append/AppendExt.
func (b *Builder) Next(n int) []byte {
	if n > ClBytes {
		panic(fmt.Sprintf("mbuf: Builder.Next(%d) exceeds cluster size", n))
	}
	t := b.c.tail
	// A view or loaned-storage tail shares the bytes past dlen with its
	// storage owner (a memfs block, another chain): never extend into them —
	// start a fresh mbuf instead.
	if t == nil || t.extern() || t.off+t.dlen+n > len(t.buf) {
		var m *Mbuf
		if n > MLen {
			m = newCluster()
		} else {
			m = newSmall()
		}
		b.c.appendMbuf(m)
		t = m
	}
	start := t.off + t.dlen
	t.dlen += n
	b.c.length += n
	return t.buf[start : start+n]
}

// WriteBytes appends b, using contiguous reservation for short fields and
// bulk append for long ones.
func (b *Builder) WriteBytes(p []byte) {
	if len(p) <= MLen {
		copy(b.Next(len(p)), p)
		count(copiedBytes, len(p))
		return
	}
	b.c.Append(p)
}

// Dissector reads a chain sequentially field by field, the nfsm_disect
// analogue. Reads within one mbuf return aliasing slices with no copy; reads
// straddling a boundary copy into a scratch buffer (and are counted). Small
// straddles land in an inline array so steady-state dissection allocates
// nothing.
type Dissector struct {
	m       *Mbuf // current mbuf
	off     int   // offset into current mbuf's data
	remain  int   // bytes left in the chain from the cursor
	inline  [64]byte
	scratch []byte
}

// NewDissector returns a Dissector positioned at the start of c.
func NewDissector(c *Chain) *Dissector {
	return &Dissector{m: c.head, remain: c.length}
}

// Reset re-points the dissector at the start of c, allowing a value-embedded
// Dissector to be reused without allocation.
func (d *Dissector) Reset(c *Chain) {
	d.m = c.head
	d.off = 0
	d.remain = c.length
}

// Remaining returns the number of unread bytes.
func (d *Dissector) Remaining() int { return d.remain }

// Next returns the next n bytes. The returned slice is valid until the next
// call and must not be modified.
func (d *Dissector) Next(n int) ([]byte, error) {
	if n > d.remain {
		return nil, ErrShort
	}
	if n == 0 {
		return nil, nil
	}
	// Skip exhausted mbufs.
	for d.m != nil && d.off >= d.m.dlen {
		d.m = d.m.next
		d.off = 0
	}
	if d.m == nil {
		return nil, ErrShort
	}
	if d.off+n <= d.m.dlen {
		out := d.m.buf[d.m.off+d.off : d.m.off+d.off+n]
		d.off += n
		d.remain -= n
		return out, nil
	}
	// Field straddles mbufs: gather into scratch (counted copy). XDR fields
	// are almost always small, so the inline buffer covers the steady state.
	var out []byte
	if n <= len(d.inline) {
		out = d.inline[:n]
	} else {
		if cap(d.scratch) < n {
			d.scratch = make([]byte, n)
		}
		out = d.scratch[:n]
	}
	got := 0
	for got < n {
		if d.m == nil {
			return nil, ErrShort
		}
		avail := d.m.dlen - d.off
		if avail == 0 {
			d.m = d.m.next
			d.off = 0
			continue
		}
		take := n - got
		if take > avail {
			take = avail
		}
		copy(out[got:], d.m.buf[d.m.off+d.off:d.m.off+d.off+take])
		got += take
		d.off += take
	}
	count(copiedBytes, n)
	d.remain -= n
	return out, nil
}

// NextChain carves the next n bytes out of the chain as a zero-copy view —
// the bulk-data counterpart of Next. The returned chain references the
// underlying storage (keeping pooled mbufs alive until it is freed), so no
// bytes move regardless of how many mbufs the range spans. Used for opaque
// payloads (WRITE data, READ replies) where the caller wants the bytes as a
// chain, not a contiguous slice.
func (d *Dissector) NextChain(n int) (*Chain, error) {
	if n > d.remain {
		return nil, ErrShort
	}
	out := &Chain{}
	for n > 0 {
		for d.m != nil && d.off >= d.m.dlen {
			d.m = d.m.next
			d.off = 0
		}
		if d.m == nil {
			return nil, ErrShort
		}
		take := d.m.dlen - d.off
		if take > n {
			take = n
		}
		out.appendMbuf(viewOf(d.m, d.off, take))
		d.off += take
		d.remain -= take
		n -= take
	}
	return out, nil
}

// CopyOut copies the next len(dst) bytes into dst (a counted copy), for a
// caller that keeps them: no view and no scratch.
func (d *Dissector) CopyOut(dst []byte) error {
	n := len(dst)
	if n > d.remain {
		return ErrShort
	}
	for got := 0; got < n; {
		for d.m != nil && d.off >= d.m.dlen {
			d.m = d.m.next
			d.off = 0
		}
		if d.m == nil {
			return ErrShort
		}
		take := copy(dst[got:], d.m.buf[d.m.off+d.off:d.m.off+d.m.dlen])
		got += take
		d.off += take
		d.remain -= take
	}
	count(copiedBytes, n)
	return nil
}

// Skip advances the cursor n bytes without returning data.
func (d *Dissector) Skip(n int) error {
	if n > d.remain {
		return ErrShort
	}
	for n > 0 {
		for d.m != nil && d.off >= d.m.dlen {
			d.m = d.m.next
			d.off = 0
		}
		if d.m == nil {
			return ErrShort
		}
		take := d.m.dlen - d.off
		if take > n {
			take = n
		}
		d.off += take
		d.remain -= take
		n -= take
	}
	return nil
}
