// Package mbuf implements BSD-style network buffer chains.
//
// The 4.3BSD Reno NFS implementation builds and decomposes RPC requests and
// replies directly in mbuf data areas (via the nfsm_build and nfsm_disect
// macros) to avoid intermediate XDR buffers and the copies they imply. This
// package reproduces that discipline: a Chain is a singly linked list of
// small mbufs and page clusters, a Builder appends fields contiguously the
// way nfsm_build does, and a Dissector walks a chain the way nfsm_disect
// does, copying only when a field straddles an mbuf boundary.
//
// Beyond the seed implementation the package now also reproduces the two
// allocation disciplines §3 of the paper leans on: mbuf storage is pooled on
// per-kind free lists with explicit Chain.Free and reference-counted views
// (pool.go), and external storage — a buffer-cache page, in our case a memfs
// file block — can be loaned into a chain without copying via AppendExt, the
// analogue of BSD cluster loaning.
//
// The package counts memory-to-memory copy traffic, pool behaviour and
// loaned bytes into the registry CountInto names, so the experiments in §3
// of the paper (copy avoidance) can be observed directly. A process that
// names none counts nothing.
package mbuf

import (
	"sync/atomic"

	"renonfs/internal/metrics"
)

const (
	// MLen is the data capacity of a small mbuf (BSD: MSIZE minus header).
	MLen = 108
	// ClBytes is the data capacity of an mbuf page cluster.
	ClBytes = 2048
)

// Indexes into counts. Copied bytes are memory-to-memory
// copies (linearization, boundary-straddling reads, FromBytes, memfs's
// copy-on-write); small and cluster allocations include pool hits, and
// pool misses count the ones that reached the Go allocator; loaned bytes
// are external storage grafted into chains by AppendExt without copying.
const (
	copiedBytes = iota
	smallAllocs
	clusterAllocs
	poolHits
	poolMisses
	loanedBytes
	numCounts
)

var countNames = [numCounts]string{
	"mbuf.copied_bytes", "mbuf.small_allocs", "mbuf.cluster_allocs",
	"mbuf.pool_hits", "mbuf.pool_misses", "mbuf.loaned_bytes",
}

type counts [numCounts]*metrics.Counter

// into holds the counters of the registry the package adds to; nil counts
// nothing.
var into atomic.Pointer[counts]

// CountInto makes the package add its counts to reg's mbuf.* counters from
// now on, and a nil reg (the default) stops counting. Counts are
// process-wide, so one registry — nfsd's, or a test's own — holds them.
func CountInto(reg *metrics.Registry) {
	if reg == nil {
		into.Store(nil)
		return
	}
	var c counts
	for i, name := range countNames {
		c[i] = reg.Counter(name)
	}
	into.Store(&c)
}

// CountCopy counts n bytes copied outside the package, the way its own
// copies are counted (memfs's copy-on-write block replace).
func CountCopy(n int) { count(copiedBytes, n) }

func count(i, n int) {
	if c := into.Load(); c != nil {
		c[i].Add(int64(n))
	}
}

// Mbuf is one buffer in a chain. Data occupies buf[off : off+len].
type Mbuf struct {
	buf     []byte
	off     int
	dlen    int
	cluster bool
	next    *Mbuf

	// Storage ownership (see pool.go). refs counts the chains and views
	// referencing this mbuf's storage when it is the owner; owner points at
	// the storage-owning mbuf for views; pooled marks storage that returns
	// to a free list on the last release; ext marks loaned, caller-owned
	// storage that a Builder must never extend into; hdr marks a bare
	// header struct (view or loan, no storage of its own) that recycles
	// through the header free list.
	refs   atomic.Int32
	owner  *Mbuf
	pooled bool
	ext    bool
	hdr    bool
}

// Len returns the number of valid data bytes in the mbuf.
func (m *Mbuf) Len() int { return m.dlen }

// Data returns the valid data bytes. The slice aliases the mbuf storage.
func (m *Mbuf) Data() []byte { return m.buf[m.off : m.off+m.dlen] }

// extern reports whether the mbuf's data area must not be extended by a
// Builder: views and loaned storage both share bytes beyond dlen with
// someone else.
func (m *Mbuf) extern() bool { return m.ext || m.owner != nil }

// viewOf returns a view mbuf referencing n bytes of m's data starting at
// data offset off, taking a storage reference on m's owner.
func viewOf(m *Mbuf, off, n int) *Mbuf {
	o := m
	if m.owner != nil {
		o = m.owner
	}
	o.refs.Add(1)
	v := newHdr()
	v.buf, v.off, v.dlen, v.cluster, v.owner = m.buf, m.off+off, n, m.cluster, o
	return v
}

// Chain is a list of mbufs holding a logical byte sequence.
type Chain struct {
	head, tail *Mbuf
	length     int
}

// Len returns the total data length of the chain.
func (c *Chain) Len() int { return c.length }

// Empty reports whether the chain holds no data.
func (c *Chain) Empty() bool { return c.length == 0 }

// Segments returns the number of mbufs in the chain.
func (c *Chain) Segments() int {
	n := 0
	for m := c.head; m != nil; m = m.next {
		n++
	}
	return n
}

// ForEach calls fn once per mbuf with its data slice, in order. The slices
// alias chain storage and are valid only while the chain is.
func (c *Chain) ForEach(fn func(b []byte)) {
	for m := c.head; m != nil; m = m.next {
		if m.dlen > 0 {
			fn(m.Data())
		}
	}
}

// AppendSegments appends each non-empty mbuf's data slice to dst, in order,
// and returns the extended slice — the allocation-free iterator a gather
// send (iovecs, net.Buffers) is built from. The slices alias chain storage:
// the chain must stay un-freed until the caller is done with them.
func (c *Chain) AppendSegments(dst [][]byte) [][]byte {
	for m := c.head; m != nil; m = m.next {
		if m.dlen > 0 {
			dst = append(dst, m.Data())
		}
	}
	return dst
}

// Clusters returns the number of cluster mbufs in the chain; the NIC model
// uses this to decide how much data page-remapping can avoid copying.
func (c *Chain) Clusters() (count, bytes int) {
	return c.ClusterRange(0, c.length)
}

// ClusterRange reports how many cluster mbufs (and how many of their bytes)
// fall inside chain range [off, off+n) without materializing a view — the
// allocation-free form of Range(off, n).Clusters() the NIC transmit path
// uses per fragment.
func (c *Chain) ClusterRange(off, n int) (count, bytes int) {
	if off < 0 || n < 0 || off+n > c.length {
		panic("mbuf: ClusterRange out of bounds")
	}
	m := c.head
	for m != nil && off >= m.dlen {
		off -= m.dlen
		m = m.next
	}
	for n > 0 && m != nil {
		take := m.dlen - off
		if take > n {
			take = n
		}
		if m.cluster {
			count++
			bytes += take
		}
		n -= take
		off = 0
		m = m.next
	}
	return count, bytes
}

func (c *Chain) appendMbuf(m *Mbuf) {
	if c.head == nil {
		c.head, c.tail = m, m
	} else {
		c.tail.next = m
		c.tail = m
	}
	c.length += m.dlen
}

// Append copies b onto the end of the chain, allocating clusters for bulk
// data and small mbufs for short tails, the way sosend does.
func (c *Chain) Append(b []byte) {
	count(copiedBytes, len(b))
	for len(b) > 0 {
		var m *Mbuf
		if len(b) > MLen {
			m = newCluster()
		} else {
			m = newSmall()
		}
		n := copy(m.buf, b)
		m.dlen = n
		b = b[n:]
		c.appendMbuf(m)
	}
}

// AppendExt loans caller-owned storage into the chain without copying: the
// Go analogue of BSD external-storage mbufs (cluster loaning). The chain
// references b directly, so the lender must keep b stable until every chain
// and view referencing it is dead — the memfs block-replace (copy-on-write)
// discipline is what guarantees that for loaned file blocks. Loaned pages
// count as clusters for the NIC page-remap model.
func (c *Chain) AppendExt(b []byte) {
	if len(b) == 0 {
		return
	}
	count(loanedBytes, len(b))
	c.appendExt(b)
}

// Wrap appends b to the chain as one external-storage segment, uncounted:
// neither a copy nor a loan, because nothing is lent out — the chain is a
// borrowed view of a receive buffer that its own reader goes on to reuse.
// A frontend that serves a request to completion before its next read wraps
// the read buffer instead of copying it into clusters. The wrapper must
// free the chain, and every view carved from it, before b changes.
func (c *Chain) Wrap(b []byte) {
	if len(b) > 0 {
		c.appendExt(b)
	}
}

func (c *Chain) appendExt(b []byte) {
	m := newHdr()
	m.buf, m.dlen, m.cluster, m.ext = b, len(b), true, true
	m.refs.Store(1)
	c.appendMbuf(m)
}

// AppendChain moves all mbufs of other onto the end of c (other is emptied).
func (c *Chain) AppendChain(other *Chain) {
	if other.head == nil {
		return
	}
	if c.head == nil {
		c.head, c.tail = other.head, other.tail
	} else {
		c.tail.next = other.head
		c.tail = other.tail
	}
	c.length += other.length
	other.head, other.tail, other.length = nil, nil, 0
}

// TrimFront drops the first n bytes of the chain (m_adj): the mbufs it
// empties are released, and the one it cuts into keeps the rest of its data.
func (c *Chain) TrimFront(n int) {
	if n < 0 || n > c.length {
		panic("mbuf: TrimFront out of bounds")
	}
	c.length -= n
	for n > 0 {
		m := c.head
		if n < m.dlen {
			m.off += n
			m.dlen -= n
			return
		}
		n -= m.dlen
		c.head = m.next
		m.release()
	}
	if c.head == nil {
		c.tail = nil
	}
}

// MoveFront moves the first n bytes of c onto the end of dst (m_split):
// whole mbufs move, and the one the cut falls in sends a view of its head
// and keeps the rest. Nothing is copied.
func (c *Chain) MoveFront(dst *Chain, n int) {
	if n < 0 || n > c.length {
		panic("mbuf: MoveFront out of bounds")
	}
	c.length -= n
	for n > 0 {
		m := c.head
		if n < m.dlen {
			dst.appendMbuf(viewOf(m, 0, n))
			m.off += n
			m.dlen -= n
			return
		}
		n -= m.dlen
		c.head, m.next = m.next, nil
		dst.appendMbuf(m)
	}
	if c.head == nil {
		c.tail = nil
	}
}

// Prepend inserts b before the existing data (m_prepend): used for RPC
// record marks and lower-layer headers.
func (c *Chain) Prepend(b []byte) {
	count(copiedBytes, len(b))
	var m *Mbuf
	if len(b) <= MLen {
		m = newSmall()
		// Leave leading space the way MH_ALIGN does, in case of another
		// prepend; put data at the end of the buffer.
		m.off = MLen - len(b)
	} else {
		m = newCluster()
	}
	copy(m.buf[m.off:], b)
	m.dlen = len(b)
	m.next = c.head
	c.head = m
	if c.tail == nil {
		c.tail = m
	}
	c.length += len(b)
}

// FromBytes builds a chain holding a copy of b.
func FromBytes(b []byte) *Chain {
	c := &Chain{}
	c.Append(b)
	return c
}

// Bytes linearizes the chain into a fresh slice (a full copy).
func (c *Chain) Bytes() []byte {
	out := make([]byte, 0, c.length)
	for m := c.head; m != nil; m = m.next {
		out = append(out, m.Data()...)
	}
	count(copiedBytes, c.length)
	return out
}

// CopyTo copies the chain's bytes into dst, as many as fit, and returns
// the number of bytes copied.
func (c *Chain) CopyTo(dst []byte) int {
	n := 0
	for m := c.head; m != nil; m = m.next {
		n += copy(dst[n:], m.Data())
	}
	count(copiedBytes, n)
	return n
}

// Range returns a zero-copy view chain referencing bytes [off, off+n) of c.
// The returned chain shares storage with c (holding references that keep
// pooled storage alive); neither side's data may be modified afterwards. It
// is how IP fragmentation and TCP segmentation reference payload without
// copying.
func (c *Chain) Range(off, n int) *Chain {
	out := &Chain{}
	c.AppendRange(out, off, n)
	return out
}

// AppendRange is Range onto the end of dst, for a caller that holds its
// chain by value.
func (c *Chain) AppendRange(dst *Chain, off, n int) {
	if off < 0 || n < 0 || off+n > c.length {
		panic("mbuf: Range out of bounds")
	}
	m := c.head
	// Skip to the mbuf containing off.
	for m != nil && off >= m.dlen {
		off -= m.dlen
		m = m.next
	}
	for n > 0 && m != nil {
		take := m.dlen - off
		if take > n {
			take = n
		}
		dst.appendMbuf(viewOf(m, off, take))
		n -= take
		off = 0
		m = m.next
	}
	if n > 0 {
		panic("mbuf: Range ran off chain")
	}
}

// Clone returns a deep copy of the chain (one copy pass, unlike the
// Bytes+FromBytes detour, so the duplicate-request cache pays N rather than
// 2N copied bytes per entry).
func (c *Chain) Clone() *Chain {
	out := &Chain{}
	b := NewBuilder(out)
	for m := c.head; m != nil; m = m.next {
		b.WriteBytes(m.Data())
	}
	return out
}
