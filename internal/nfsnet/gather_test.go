package nfsnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/netip"
	"testing"
	"time"

	"renonfs/internal/mbuf"
	"renonfs/internal/memfs"
	"renonfs/internal/metrics"
	"renonfs/internal/nfsproto"
	"renonfs/internal/rpc"
	"renonfs/internal/server"
	"renonfs/internal/xdr"
)

// Gather-send tests: reply chains leave the socket as iovecs (DESIGN.md
// §3.4). They read the package-wide mbuf.Stats, so none of them may run in
// parallel with another test that moves mbufs.

// callChain builds one NFS call as an mbuf chain.
func callChain(xid, proc uint32, args func(e *xdr.Encoder)) *mbuf.Chain {
	msg := &mbuf.Chain{}
	rpc.EncodeCall(msg, &rpc.Call{XID: xid, Prog: nfsproto.Program, Vers: nfsproto.Version, Proc: proc})
	args(xdr.NewEncoder(msg))
	return msg
}

// encodeRead builds the wire bytes of one READ call.
func encodeRead(xid uint32, fh nfsproto.FH, off, count uint32) []byte {
	msg := callChain(xid, nfsproto.ProcRead, func(e *xdr.Encoder) {
		(&nfsproto.ReadArgs{File: fh, Offset: off, Count: count}).Encode(e)
	})
	out := msg.Bytes()
	msg.Free()
	return out
}

// bigDir makes a directory of 600 five-character names under fs's root: a
// listing past MaxData, so a READDIR of the largest window over it draws
// a reply of about 9.4 KB.
func bigDir(t *testing.T, fs *memfs.FS) nfsproto.FH {
	t.Helper()
	big, err := fs.Mkdir(nil, fs.Root(), "big", 0755)
	for i := 0; err == nil && i < 600; i++ {
		_, err = fs.Create(nil, big, fmt.Sprintf("n%04d", i), 0644)
	}
	if err != nil {
		t.Fatal(err)
	}
	return fs.FH(big)
}

// encodeReaddir flattens one READDIR call from the first cookie.
func encodeReaddir(xid uint32, dir nfsproto.FH, count uint32) []byte {
	msg := callChain(xid, nfsproto.ProcReaddir, func(e *xdr.Encoder) {
		(&nfsproto.ReaddirArgs{Dir: dir, Count: count}).Encode(e)
	})
	out := msg.Bytes()
	msg.Free()
	return out
}

// blockPattern fills one file block with bytes that differ per block and
// per position, so a misplaced or stale payload cannot compare equal.
func blockPattern(seed byte) []byte {
	b := make([]byte, memfs.BlockSize)
	for i := range b {
		b[i] = seed + byte(i) + byte(i>>8)
	}
	return b
}

// TestRealSocketReadZeroCopy is the ROADMAP gate on real sockets: once
// warm, an 8 KB READ over loopback UDP and over loopback TCP moves no
// payload byte in user space on the server. mbuf.Stats.CopiedBytes may
// advance by no more than the request (the ~84-byte call, which a reader
// that has to spill copies into mbufs; served in place it is wrapped, and
// the wrap is not a loan either), LoanedBytes by exactly the block memfs
// lent, and the payload must arrive intact. The client below is a bare socket
// speaking pre-encoded bytes — nfsnet.Client moves its messages through
// mbufs in this same process and would pollute the counters.
func TestRealSocketReadZeroCopy(t *testing.T) {
	const (
		blocks  = 4
		warm    = 16
		ops     = 64
		reqMax  = 128 // ingest copy budget per op: the request bytes
		timeout = 5 * time.Second
	)
	fs := memfs.New(1, nil, nil)
	srv := server.New(fs, server.Reno())
	f, err := fs.Create(nil, fs.Root(), "data", 0644)
	if err != nil {
		t.Fatal(err)
	}
	var want [blocks][]byte
	for i := range want {
		want[i] = blockPattern(byte(17 * (i + 1)))
		if err := fs.WriteAt(nil, f, uint32(i)*memfs.BlockSize, want[i], 0); err != nil {
			t.Fatal(err)
		}
	}
	fh := fs.FH(f)
	s, err := Serve(srv, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var reqs [blocks][]byte
	for i := range reqs {
		reqs[i] = encodeRead(0, fh, uint32(i)*memfs.BlockSize, memfs.BlockSize)
		if len(reqs[i]) > reqMax {
			t.Fatalf("READ call is %d bytes, over the %d-byte ingest budget", len(reqs[i]), reqMax)
		}
	}
	buf := make([]byte, 65536)
	// verify checks one reply: the XID, and the payload — the last 8 KB of
	// a full-block READ reply, behind its XDR length word — byte for byte.
	verify := func(rep []byte, xid uint32, blk int) {
		t.Helper()
		if len(rep) < memfs.BlockSize+8 || binary.BigEndian.Uint32(rep) != xid {
			t.Fatalf("reply %d bytes, xid %#x, want xid %#x", len(rep), binary.BigEndian.Uint32(rep), xid)
		}
		body := len(rep) - memfs.BlockSize
		if n := binary.BigEndian.Uint32(rep[body-4:]); n != memfs.BlockSize {
			t.Fatalf("READ payload length %d, want %d", n, memfs.BlockSize)
		}
		if !bytes.Equal(rep[body:], want[blk]) {
			t.Fatalf("READ payload of block %d corrupted on the way out", blk)
		}
	}
	// measure runs warm-up then ops round trips and checks the counters
	// moved by the request bytes and the loaned blocks only.
	measure := func(name string, roundTrip func(xid uint32, blk int)) {
		t.Helper()
		for i := 0; i < warm; i++ {
			roundTrip(uint32(1000+i), i%blocks)
		}
		before := mbuf.Stats.Snapshot()
		for i := 0; i < ops; i++ {
			roundTrip(uint32(2000+i), i%blocks)
		}
		after := mbuf.Stats.Snapshot()
		copied := after.CopiedBytes - before.CopiedBytes
		loaned := after.LoanedBytes - before.LoanedBytes
		t.Logf("%s: %d READs copied %d B/op, loaned %d B/op", name, ops, copied/ops, loaned/ops)
		if copied > ops*reqMax {
			t.Errorf("%s: server copied %d bytes over %d READs (%d B/op), want <= %d B/op (the request only)",
				name, copied, ops, copied/ops, reqMax)
		}
		if loaned != ops*memfs.BlockSize {
			t.Errorf("%s: loaned %d bytes over %d READs, want exactly %d", name, loaned, ops, ops*memfs.BlockSize)
		}
	}

	uc, err := net.Dial("udp", s.UDPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer uc.Close()
	measure("udp", func(xid uint32, blk int) {
		t.Helper()
		verify(udpRoundTrip(t, uc, reqs[blk], buf, xid), xid, blk)
	})

	tc, err := net.Dial("tcp", s.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	rec := make([]byte, 4+reqMax)
	measure("tcp", func(xid uint32, blk int) {
		t.Helper()
		req := reqs[blk]
		binary.BigEndian.PutUint32(req, xid)
		binary.BigEndian.PutUint32(rec, 0x80000000|uint32(len(req)))
		copy(rec[4:], req)
		tc.SetDeadline(time.Now().Add(timeout))
		if _, err := tc.Write(rec[:4+len(req)]); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(tc, buf[:4]); err != nil {
			t.Fatal(err)
		}
		mark := binary.BigEndian.Uint32(buf)
		n := int(mark &^ 0x80000000)
		if mark&0x80000000 == 0 || n > len(buf) {
			t.Fatalf("record mark %#x: want one last-fragment record", mark)
		}
		if _, err := io.ReadFull(tc, buf[:n]); err != nil {
			t.Fatal(err)
		}
		verify(buf[:n], xid, blk)
	})
}

// encodeWrite builds the wire bytes of one WRITE call.
func encodeWrite(xid uint32, fh nfsproto.FH, off uint32, data []byte) []byte {
	msg := callChain(xid, nfsproto.ProcWrite, func(e *xdr.Encoder) {
		(&nfsproto.WriteArgs{File: fh, Offset: off, Data: mbuf.FromBytes(data)}).Encode(e)
	})
	out := msg.Bytes()
	msg.Free()
	return out
}

// udpRoundTrip sends one pre-encoded call from a bare socket, patching in
// the XID, and returns the reply (valid until the next round trip). It
// allocates nothing, so whatever the process allocates meanwhile is the
// server's.
func udpRoundTrip(t *testing.T, conn net.Conn, req, buf []byte, xid uint32) []byte {
	t.Helper()
	binary.BigEndian.PutUint32(req, xid)
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n < 28 || binary.BigEndian.Uint32(buf) != xid || binary.BigEndian.Uint32(buf[24:]) != uint32(nfsproto.OK) {
		t.Fatalf("xid %#x: %d-byte reply %x", xid, n, buf[:min(n, 28)])
	}
	return buf[:n]
}

// TestRealSocketWriteZeroCopy is the receive half of the same gate: once
// warm, an 8 KB WRITE over loopback UDP is served out of the reader's own
// buffer — the request chain wraps it, the payload view goes straight into
// memfs's block copy — so the server copies no payload byte through mbufs
// and draws no cluster to hold one. CopiedBytes may advance only by the
// small fields of the reply; the blocks must read back as last written.
func TestRealSocketWriteZeroCopy(t *testing.T) {
	const (
		blocks = 4
		warm   = 16
		ops    = 64
		repMax = 128 // copy budget per op: the attrstat reply's fields
	)
	fs := memfs.New(1, nil, nil)
	srv := server.New(fs, server.Reno())
	f, err := fs.Create(nil, fs.Root(), "data", 0644)
	if err != nil {
		t.Fatal(err)
	}
	fh := fs.FH(f)
	s, err := Serve(srv, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	uc, err := net.Dial("udp", s.UDPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer uc.Close()

	// Two generations of every block: the warm-up writes one, the measured
	// run overwrites it with the other, the read-back wants the other.
	var reqs [2][blocks][]byte
	var want [blocks][]byte
	for i := range want {
		want[i] = blockPattern(byte(31*i + 5))
		reqs[0][i] = encodeWrite(0, fh, uint32(i)*memfs.BlockSize, blockPattern(byte(31*i+6)))
		reqs[1][i] = encodeWrite(0, fh, uint32(i)*memfs.BlockSize, want[i])
	}
	buf := make([]byte, 65536)
	for i := 0; i < warm; i++ {
		udpRoundTrip(t, uc, reqs[0][i%blocks], buf, uint32(1000+i))
	}
	before := mbuf.Stats.Snapshot()
	for i := 0; i < ops; i++ {
		udpRoundTrip(t, uc, reqs[1][i%blocks], buf, uint32(2000+i))
	}
	after := mbuf.Stats.Snapshot()
	copied := after.CopiedBytes - before.CopiedBytes
	clusters := after.ClusterAllocs - before.ClusterAllocs
	t.Logf("udp: %d WRITEs copied %d B/op, drew %d clusters", ops, copied/ops, clusters)
	if copied > ops*repMax {
		t.Errorf("server copied %d bytes over %d WRITEs (%d B/op), want <= %d B/op (the reply only)",
			copied, ops, copied/ops, repMax)
	}
	if clusters != 0 {
		t.Errorf("server drew %d mbuf clusters over %d WRITEs, want 0 (no ingest copy)", clusters, ops)
	}
	if d := drainOf(srv.Metrics.Snapshot()); d.inline != warm+ops {
		t.Errorf("%d WRITEs, one at a time: %+v, want all served on the reader", warm+ops, d)
	}
	for i := range want {
		rep := udpRoundTrip(t, uc, encodeRead(0, fh, uint32(i)*memfs.BlockSize, memfs.BlockSize), buf, uint32(3000+i))
		if !bytes.HasSuffix(rep, want[i]) {
			t.Errorf("block %d does not read back as last written", i)
		}
	}
}

// TestAllocBudgetInline pins what a data RPC served on the reader costs the
// allocator: an 8 KB READ and an 8 KB WRITE, socket to socket, once warm —
// and a READDIR of a 9.4 KB window, which the shallow path serves in the
// reader's send arena with nothing allocated (memfs.DirWindow copies the
// window's entries into the caller's stack).
// The request chain, its one wrapping header, the span and the send scratch
// are all reused; what is left is the core's own per-call garbage (decoder,
// reply chain, encoder), the same count the in-process budgets in the root
// package pin. Budgets are the measured counts plus one of headroom for a
// pool that a GC cycle emptied.
func TestAllocBudgetInline(t *testing.T) {
	fs := memfs.New(1, nil, nil)
	opts := server.Reno()
	opts.Readers = 1 // one reader, no pool worker ever woken: the process's allocations are the reader's
	srv := server.New(fs, opts)
	f, err := fs.Create(nil, fs.Root(), "data", 0644)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteAt(nil, f, 0, blockPattern(1), 0); err != nil {
		t.Fatal(err)
	}
	fh := fs.FH(f)
	s, err := Serve(srv, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	uc, err := net.Dial("udp", s.UDPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer uc.Close()
	buf := make([]byte, 65536)
	xid := uint32(0)
	for _, tc := range []struct {
		name   string
		req    []byte
		budget float64
	}{
		{"read8k", encodeRead(0, fh, 0, memfs.BlockSize), 3},              // measured 2
		{"write8k", encodeWrite(0, fh, 0, blockPattern(2)), 4},            // measured 3
		{"readdir", encodeReaddir(0, bigDir(t, fs), nfsproto.MaxData), 0}, // measured 0 (1 while the whole listing was copied)
	} {
		t.Run(tc.name, func(t *testing.T) {
			once := func() {
				xid++
				udpRoundTrip(t, uc, tc.req, buf, xid)
			}
			for i := 0; i < 64; i++ {
				once()
			}
			got := testing.AllocsPerRun(200, once)
			t.Logf("inline %s: %.1f allocs/op (budget %.0f)", tc.name, got, tc.budget)
			if got > tc.budget && !raceEnabled {
				t.Errorf("inline %s allocates %.1f/op, budget is %.0f", tc.name, got, tc.budget)
			}
		})
	}
	snap := srv.Metrics.Snapshot()
	if d := drainOf(snap); d.nfsd != 0 || d.inline != 2*(64+201) || d.fast != 64+201 || snap.Counters["rpc.fastpath.calls"] != d.fast {
		t.Errorf("%+v: the calls measured were not served on the reader, the READDIRs shallow", d)
	}
}

// coreCall runs one call through the server core (no sockets) and returns
// the reply chain, positioned-at-results decoder included.
func coreCall(t *testing.T, srv *server.Server, xid, proc uint32, args func(e *xdr.Encoder)) (*mbuf.Chain, *xdr.Decoder) {
	t.Helper()
	req := callChain(xid, proc, args)
	rep := srv.HandleCall(nil, "gather-peer", req)
	req.Free()
	if rep == nil {
		t.Fatalf("proc %d: nil reply", proc)
	}
	d := xdr.NewDecoder(rep)
	if _, err := rpc.DecodeReply(d); err != nil {
		t.Fatal(err)
	}
	return rep, d
}

// udpPair returns a sending socket, a receiving socket and the receiver's
// address in the 4-byte family the readers use.
func udpPair(t *testing.T) (conn, sink *net.UDPConn, dst netip.AddrPort) {
	t.Helper()
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sink.Close() })
	conn, err = net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	dst = sink.LocalAddr().(*net.UDPAddr).AddrPort()
	return conn, sink, netip.AddrPortFrom(dst.Addr().Unmap(), dst.Port())
}

func testBatch(conn *net.UDPConn, withArena bool) (*sendBatch, *metrics.Registry) {
	reg := metrics.NewRegistry()
	stats := metrics.NewStageStats(reg, metrics.DefaultSlowSpans)
	return newSendBatch(conn, withArena, reg.Counter("b"), reg.Counter("m"), stats), reg
}

// TestStagedLoanSurvivesOverwrite pins the chain-lifetime rule: a READ
// reply staged in a sendBatch holds its loaned file block until the flush,
// and a WRITE that lands on the same block in between must not show
// through — memfs replaces a loaned block, it never modifies it. The
// datagram carries the pre-write bytes; the file holds the post-write ones.
func TestStagedLoanSurvivesOverwrite(t *testing.T) {
	fs := memfs.New(1, nil, nil)
	srv := server.New(fs, server.Reno())
	f, err := fs.Create(nil, fs.Root(), "data", 0644)
	if err != nil {
		t.Fatal(err)
	}
	old, fresh := blockPattern(3), blockPattern(101)
	if err := fs.WriteAt(nil, f, 0, old, 0); err != nil {
		t.Fatal(err)
	}
	fh := fs.FH(f)
	readArgs := func(e *xdr.Encoder) {
		(&nfsproto.ReadArgs{File: fh, Offset: 0, Count: memfs.BlockSize}).Encode(e)
	}
	conn, sink, dst := udpPair(t)
	b, _ := testBatch(conn, false)

	loaned := mbuf.Stats.LoanedBytes.Load()
	rep, _ := coreCall(t, srv, 1, nfsproto.ProcRead, readArgs)
	if got := mbuf.Stats.LoanedBytes.Load() - loaned; got != memfs.BlockSize {
		t.Fatalf("READ reply loaned %d bytes, want the %d-byte block", got, memfs.BlockSize)
	}
	var sp metrics.Span
	sp.Reset(time.Now())
	b.addChain(rep, dst, &sp)

	wrep, wd := coreCall(t, srv, 2, nfsproto.ProcWrite, func(e *xdr.Encoder) {
		(&nfsproto.WriteArgs{File: fh, Offset: 0, Data: mbuf.FromBytes(fresh)}).Encode(e)
	})
	if res, err := nfsproto.DecodeAttrRes(wd); err != nil || res.Status != nfsproto.OK {
		t.Fatalf("WRITE: %v %v", res, err)
	}
	wrep.Free()

	b.flush()
	if !rep.Empty() {
		t.Error("flush did not free the staged reply chain")
	}
	buf := make([]byte, 65536)
	sink.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := sink.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n < memfs.BlockSize || !bytes.Equal(buf[n-memfs.BlockSize:n], old) {
		t.Error("datagram staged before the WRITE does not carry the pre-write block")
	}

	rrep, rd := coreCall(t, srv, 3, nfsproto.ProcRead, readArgs)
	res, err := nfsproto.DecodeReadRes(rd)
	if err != nil || res.Status != nfsproto.OK {
		t.Fatalf("READ after WRITE: %v %v", res, err)
	}
	if !bytes.Equal(res.Data.Bytes(), fresh) {
		t.Error("file does not hold the post-write block")
	}
	res.Data.Free()
	rrep.Free()
}

// replyShape builds a chain shaped like an 8 KB READ reply — header mbuf,
// loaned block, trailing pad mbuf — into c, which must be empty.
func replyShape(c *mbuf.Chain, hdr, block, pad []byte) {
	c.Append(hdr)
	c.AppendExt(block)
	c.Append(pad)
}

// TestPartialSendMopUp forces the path Linux never takes on its own: the
// raw sendmmsg stops after the first message of a flush, and the portable
// writer mops up the rest by linearizing each chain into the batch's
// scratch. Every datagram must arrive byte-exact whichever writer sent it,
// and every chain must be freed exactly once — each is pinned by a view
// taken before staging, so a second release of its storage would trip the
// armed double-Free panic when the view lets go.
func TestPartialSendMopUp(t *testing.T) {
	sendmmsgLimit = 1
	defer func() { sendmmsgLimit = 0 }()
	conn, sink, dst := udpPair(t)
	b, reg := testBatch(conn, false)

	const n = 4
	var chains [n]*mbuf.Chain
	var views [n]*mbuf.Chain
	var want [n][]byte
	var sp metrics.Span
	for i := range chains {
		hdr := bytes.Repeat([]byte{byte(0xA0 + i)}, 96)
		block := blockPattern(byte(40 * i))
		pad := []byte{byte(i), 0, 0, 0}
		chains[i] = &mbuf.Chain{}
		replyShape(chains[i], hdr, block, pad)
		if chains[i].Segments() != 3 {
			t.Fatalf("reply shape has %d segments, want 3", chains[i].Segments())
		}
		want[i] = append(append(append([]byte(nil), hdr...), block...), pad...)
		views[i] = chains[i].Range(0, chains[i].Len())
		sp.Reset(time.Now())
		b.addChain(chains[i], dst, &sp)
	}
	copied := mbuf.Stats.CopiedBytes.Load()
	b.flush()
	copied = mbuf.Stats.CopiedBytes.Load() - copied

	// The mop-up linearized the chains the raw writer left: all but the
	// first where sendmmsg exists, every one elsewhere.
	mopped := int64((n - 1) * len(want[0]))
	if copied < mopped || copied > int64(n*len(want[0])) {
		t.Errorf("flush copied %d bytes, want between %d (mop-up of %d chains) and %d", copied, mopped, n-1, n*len(want[0]))
	}
	if got := reg.Counter("m").Value(); got != n {
		t.Errorf("batched_msgs = %d, want %d", got, n)
	}
	buf := make([]byte, 65536)
	for i := range want {
		sink.SetReadDeadline(time.Now().Add(5 * time.Second))
		got, err := sink.Read(buf)
		if err != nil {
			t.Fatalf("datagram %d: %v", i, err)
		}
		if !bytes.Equal(buf[:got], want[i]) {
			t.Errorf("datagram %d (%d bytes) differs from the staged chain (%d bytes)", i, got, len(want[i]))
		}
	}
	for i := range chains {
		if !chains[i].Empty() {
			t.Errorf("chain %d not freed by flush", i)
		}
		// The view holds the last reference: its bytes are still the
		// chain's, and releasing it must not find the storage already gone.
		if !bytes.Equal(views[i].Bytes(), want[i]) {
			t.Errorf("chain %d storage recycled while a view still referenced it", i)
		}
		views[i].Free()
	}
}
