package renonfs_test

// Allocation-budget regression tests: the zero-copy buffer path (pooled
// mbufs, loaned file blocks, view-based dissection) is only worth having if
// it stays zero-copy. These tests lock in the per-call allocation counts for
// the two hot RPCs and the no-copy property of the contiguous Read-reply
// path, so a regression fails CI instead of quietly re-inflating the
// per-call garbage the paper's §3 profile complains about.

import (
	"fmt"
	"testing"
	"time"

	"renonfs"
	"renonfs/internal/mbuf"
	"renonfs/internal/memfs"
	"renonfs/internal/metrics"
	"renonfs/internal/nfsproto"
	"renonfs/internal/rpc"
	"renonfs/internal/server"
	"renonfs/internal/xdr"
)

// Budgets are measured steady-state counts plus one alloc of headroom.
// For reference, the pre-pooling substrate measured 15 allocs/op for the
// LOOKUP dispatch and 17 for the 8 KB READ round trip (EXPERIMENTS.md,
// "Zero-copy buffer path"), so these budgets also document the win.
const (
	// A LOOKUP through the chain entry: measured 6 (7 while the chain
	// codec had a wrapper of its own); the race detector's dropped pool
	// puts take the headroom.
	lookupAllocBudget = 7
	read8KAllocBudget = 8
	// The byte entry decodes from and encodes into flat caller scratch —
	// its only steady-state allocation is the LOOKUP name string
	// (GETATTR has none). These counts are deterministic, so the budgets are
	// the counts: no headroom.
	fastLookupAllocBudget  = 1
	fastGetattrAllocBudget = 0
	// A READDIR through the chain entry streams its entries from the core's
	// window into pooled flat scratch and lays that into the reply chain:
	// what it allocates does not grow with the listing, whose window memfs
	// copies onto the stack (no []DirEntry, no per-entry garbage). Measured
	// 2 (3 while memfs copied the whole listing, 4 while the chain codec had
	// a wrapper of its own); the count is the budget.
	readdirAllocBudget = 2
	// A simulated GETATTR through a Rig: the dynamic-UDP transport, the
	// simulated network and the server core together, with no tracer
	// installed anywhere, the caller handing each reply back. Measured
	// 1.00 (6.00 while datagrams, reply decoders, reply messages and call
	// chains were garbage, 18 before the transport recycled its call
	// records and the receive loops became queue callbacks, 44.1 while every
	// simulator event was a heap-allocated timer and every wait a
	// heap-allocated waiter): the server's reply chain. The budget is that
	// plus 1.
	rigGetattrAllocBudget = 2.0
	// The same over simulated TCP: the record chains the two scanners cut,
	// the call's chain and the server's reply chain; segments and their
	// headers recycle. Measured 4.01 and 5.02 (12.01 and 28.05 while every
	// segment was an object of its own and every reply garbage, 26 and 68
	// while every segment and every record was copied, and every ACK
	// re-viewed the whole send buffer); the GETATTR budget is that plus 1,
	// the READ budget plus 2.
	rigTCPGetattrAllocBudget = 5.0
	rigTCPRead8KAllocBudget  = 7.0
	// An 8 KB READ and WRITE over dynamic UDP: measured 2.02 (the server's
	// READ arguments and reply chain) and 3.02 (the WRITE's payload view
	// and its arguments, and the reply chain); the budgets are that plus 1.
	rigRead8KAllocBudget  = 3.0
	rigWrite8KAllocBudget = 4.0
)

// warmServer builds a server with one 8 KB file, runs a few calls of each
// kind to fill the mbuf pools and the dup-cache LRU to steady state, and
// returns the handles the measurement loops need.
func warmServer(t testing.TB) (s *server.Server, rootFH, fileFH nfsproto.FH) {
	fs := memfs.New(1, nil, nil)
	s = server.New(fs, server.Reno())
	f, err := fs.Create(nil, fs.Root(), "data", 0644)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteAt(nil, f, 0, make([]byte, 8192), 0); err != nil {
		t.Fatal(err)
	}
	return s, s.RootFH(), fs.FH(f)
}

// lookupOnce runs one LOOKUP build/dispatch/dissect round trip and frees the
// chains so pooled storage recycles.
func lookupOnce(t testing.TB, s *server.Server, root nfsproto.FH, xid uint32) {
	req := &mbuf.Chain{}
	rpc.EncodeCall(req, &rpc.Call{XID: xid, Prog: nfsproto.Program, Vers: nfsproto.Version, Proc: nfsproto.ProcLookup})
	(&nfsproto.DiropArgs{Dir: root, Name: "data"}).Encode(xdr.NewEncoder(req))
	rep := s.HandleCall(nil, "alloc-peer", req)
	if rep == nil {
		t.Fatal("nil LOOKUP reply")
	}
	d := xdr.NewDecoder(rep)
	if _, err := rpc.DecodeReply(d); err != nil {
		t.Fatal(err)
	}
	res, err := nfsproto.DecodeDiropRes(d)
	if err != nil || res.Status != nfsproto.OK {
		t.Fatalf("LOOKUP: status %v err %v", res.Status, err)
	}
	req.Free()
	rep.Free()
}

// readOnce runs one 8 KB READ build/dispatch/dissect round trip, returning
// the payload length seen by the dissected reply.
func readOnce(t testing.TB, s *server.Server, fh nfsproto.FH, xid uint32) {
	req := &mbuf.Chain{}
	rpc.EncodeCall(req, &rpc.Call{XID: xid, Prog: nfsproto.Program, Vers: nfsproto.Version, Proc: nfsproto.ProcRead})
	(&nfsproto.ReadArgs{File: fh, Offset: 0, Count: 8192}).Encode(xdr.NewEncoder(req))
	rep := s.HandleCall(nil, "alloc-peer", req)
	if rep == nil {
		t.Fatal("nil READ reply")
	}
	d := xdr.NewDecoder(rep)
	if _, err := rpc.DecodeReply(d); err != nil {
		t.Fatal(err)
	}
	res, err := nfsproto.DecodeReadRes(d)
	if err != nil || res.Status != nfsproto.OK {
		t.Fatalf("READ: status %v err %v", res.Status, err)
	}
	if res.Data.Len() != 8192 {
		t.Fatalf("READ returned %d bytes, want 8192", res.Data.Len())
	}
	res.Data.Free()
	req.Free()
	rep.Free()
}

func TestAllocBudgetLookupDispatch(t *testing.T) {
	s, root, _ := warmServer(t)
	xid := uint32(0)
	for i := 0; i < 32; i++ { // fill pools and dup-cache before measuring
		xid++
		lookupOnce(t, s, root, xid)
	}
	got := testing.AllocsPerRun(200, func() {
		xid++
		lookupOnce(t, s, root, xid)
	})
	t.Logf("LOOKUP round trip: %.1f allocs/op (budget %d)", got, lookupAllocBudget)
	if got > lookupAllocBudget {
		t.Errorf("LOOKUP round trip allocates %.1f/op, budget is %d", got, lookupAllocBudget)
	}
}

func TestAllocBudgetRead8K(t *testing.T) {
	s, _, fh := warmServer(t)
	xid := uint32(0)
	for i := 0; i < 32; i++ {
		xid++
		readOnce(t, s, fh, xid)
	}
	got := testing.AllocsPerRun(200, func() {
		xid++
		readOnce(t, s, fh, xid)
	})
	t.Logf("8 KB READ round trip: %.1f allocs/op (budget %d)", got, read8KAllocBudget)
	if got > read8KAllocBudget {
		t.Errorf("8 KB READ round trip allocates %.1f/op, budget is %d", got, read8KAllocBudget)
	}
}

// TestAllocBudgetReaddirDispatch pins a chain-entry READDIR's server side —
// request build, dispatch, reply chain; the reply is not dissected, since
// decoding a listing allocates per entry on the client's account.
func TestAllocBudgetReaddirDispatch(t *testing.T) {
	s, root, _ := warmServer(t)
	for i := 0; i < 30; i++ {
		if _, err := s.FS.Create(nil, s.FS.Root(), fmt.Sprintf("entry-%02d", i), 0644); err != nil {
			t.Fatal(err)
		}
	}
	xid := uint32(0)
	readdirOnce := func() {
		xid++
		req := &mbuf.Chain{}
		rpc.EncodeCall(req, &rpc.Call{XID: xid, Prog: nfsproto.Program, Vers: nfsproto.Version, Proc: nfsproto.ProcReaddir})
		(&nfsproto.ReaddirArgs{Dir: root, Count: nfsproto.MaxData}).Encode(xdr.NewEncoder(req))
		rep := s.HandleCall(nil, "alloc-peer", req)
		if rep == nil || rep.Len() < 30*16 {
			t.Fatal("short READDIR reply")
		}
		req.Free()
		rep.Free()
	}
	for i := 0; i < 64; i++ {
		readdirOnce()
	}
	got := testing.AllocsPerRun(200, readdirOnce)
	t.Logf("32-entry READDIR dispatch: %.1f allocs/op (budget %d)", got, readdirAllocBudget)
	if got > readdirAllocBudget && !raceEnabled {
		t.Errorf("READDIR dispatch allocates %.1f/op, budget is %d", got, readdirAllocBudget)
	}
}

// TestAllocBudgetSpanRecording pins the stage-telemetry contract: running
// the same hot RPCs through HandleCallSpan with a live span — stamps,
// histogram recording, slow-ring offer and all — must allocate exactly what
// the span-free path allocates. The span is a per-worker value reused across
// calls (the nfsd pool's discipline); a fresh span per call would escape and
// cost an allocation each.
func TestAllocBudgetSpanRecording(t *testing.T) {
	s, root, fh := warmServer(t)
	stats := metrics.NewStageStats(s.Metrics, metrics.DefaultSlowSpans)
	var sp metrics.Span
	spannedLookup := func(xid uint32) {
		sp.Reset(time.Now())
		sp.Worker = 0
		sp.Peer = "alloc-peer"
		sp.Stamp(metrics.StageRead)
		sp.Stamp(metrics.StageQueue)
		req := &mbuf.Chain{}
		rpc.EncodeCall(req, &rpc.Call{XID: xid, Prog: nfsproto.Program, Vers: nfsproto.Version, Proc: nfsproto.ProcLookup})
		(&nfsproto.DiropArgs{Dir: root, Name: "data"}).Encode(xdr.NewEncoder(req))
		rep := s.HandleCallSpan(nil, "alloc-peer", req, &sp)
		if rep == nil {
			t.Fatal("nil LOOKUP reply")
		}
		sp.Stamp(metrics.StageEncode)
		sp.Stamp(metrics.StageSend)
		stats.Record(&sp)
		req.Free()
		rep.Free()
	}
	spannedRead := func(xid uint32) {
		sp.Reset(time.Now())
		sp.Worker = 0
		sp.Peer = "alloc-peer"
		sp.Stamp(metrics.StageRead)
		sp.Stamp(metrics.StageQueue)
		req := &mbuf.Chain{}
		rpc.EncodeCall(req, &rpc.Call{XID: xid, Prog: nfsproto.Program, Vers: nfsproto.Version, Proc: nfsproto.ProcRead})
		(&nfsproto.ReadArgs{File: fh, Offset: 0, Count: 8192}).Encode(xdr.NewEncoder(req))
		rep := s.HandleCallSpan(nil, "alloc-peer", req, &sp)
		if rep == nil {
			t.Fatal("nil READ reply")
		}
		sp.Stamp(metrics.StageEncode)
		sp.Stamp(metrics.StageSend)
		stats.Record(&sp)
		req.Free()
		rep.Free()
	}
	xid := uint32(0)
	for i := 0; i < 32; i++ {
		xid++
		spannedLookup(xid)
		spannedRead(xid)
	}
	baseLookup := testing.AllocsPerRun(200, func() { xid++; lookupOnce(t, s, root, xid) })
	gotLookup := testing.AllocsPerRun(200, func() { xid++; spannedLookup(xid) })
	t.Logf("LOOKUP: %.1f allocs/op without span, %.1f with (budget %d)", baseLookup, gotLookup, lookupAllocBudget)
	if gotLookup > baseLookup {
		t.Errorf("span recording added %.1f allocs/op to LOOKUP (%.1f -> %.1f)", gotLookup-baseLookup, baseLookup, gotLookup)
	}
	if gotLookup > lookupAllocBudget {
		t.Errorf("spanned LOOKUP allocates %.1f/op, budget is %d", gotLookup, lookupAllocBudget)
	}
	baseRead := testing.AllocsPerRun(200, func() { xid++; readOnce(t, s, fh, xid) })
	gotRead := testing.AllocsPerRun(200, func() { xid++; spannedRead(xid) })
	t.Logf("8 KB READ: %.1f allocs/op without span, %.1f with (budget %d)", baseRead, gotRead, read8KAllocBudget)
	if gotRead > baseRead {
		t.Errorf("span recording added %.1f allocs/op to READ (%.1f -> %.1f)", gotRead-baseRead, baseRead, gotRead)
	}
	if gotRead > read8KAllocBudget {
		t.Errorf("spanned 8 KB READ allocates %.1f/op, budget is %d", gotRead, read8KAllocBudget)
	}
}

// TestAllocBudgetRigGetattr pins the cost of the simulator's round trip, and
// with it the rule that an untraced lifecycle event costs a branch and no
// allocation: a GETATTR over dynamic UDP, and a GETATTR and an 8 KB READ
// over simulated TCP.
func TestAllocBudgetRigGetattr(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	for _, tc := range []struct {
		name   string
		call   rigCall
		budget float64
	}{
		{"udp_getattr", rigCall{kind: renonfs.UDPDynamic}, rigGetattrAllocBudget},
		{"tcp_getattr", rigCall{kind: renonfs.TCP}, rigTCPGetattrAllocBudget},
		{"tcp_read8k", rigCall{kind: renonfs.TCP, read: true}, rigTCPRead8KAllocBudget},
		{"udp_read8k", rigCall{kind: renonfs.UDPDynamic, read: true}, rigRead8KAllocBudget},
		{"udp_write8k", rigCall{kind: renonfs.UDPDynamic, write: true}, rigWrite8KAllocBudget},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, loop := rigCalls(t, tc.call, 100, 2000)
			t.Logf("simulated round trip: %.3f allocs/op (budget %.1f)", loop.allocs, tc.budget)
			if loop.allocs > tc.budget {
				t.Errorf("simulated round trip allocates %.1f/op, budget is %.1f", loop.allocs, tc.budget)
			}
		})
	}
}

// encodeFastWire flattens one call for the shallow path's flat-byte entry.
func encodeFastWire(t testing.TB, xid, proc uint32, args func(e *xdr.Encoder)) []byte {
	t.Helper()
	req := &mbuf.Chain{}
	rpc.EncodeCall(req, &rpc.Call{XID: xid, Prog: nfsproto.Program, Vers: nfsproto.Version, Proc: proc})
	if args != nil {
		args(xdr.NewEncoder(req))
	}
	wire := append([]byte(nil), req.Bytes()...)
	req.Free()
	return wire
}

// fastOnce services one pre-encoded datagram through HandleCallFast the way
// an ingest reader would: peek, classify, service into reused scratch.
func fastOnce(t testing.TB, s *server.Server, wire, out []byte) {
	var h rpc.PeekedCall
	argOff, ok := rpc.PeekCallHeader(wire, &h)
	if !ok || !server.FastEligible(&h) {
		t.Fatal("alloc probe datagram not fast-eligible")
	}
	rep, ok := s.HandleCallFast("alloc-peer", wire, &h, argOff, out, nil)
	if !ok || len(rep) == 0 {
		t.Fatal("fast path refused the alloc probe")
	}
}

// TestAllocBudgetFastPath pins the byte entry's headline economy: a LOOKUP
// allocates at most its name string, a GETATTR nothing at all — against the
// 6 allocs/op a LOOKUP round trip through the chain entry costs (and pins
// above). The reply scratch is reused across calls, as the reader's send
// batch arena reuses its.
func TestAllocBudgetFastPath(t *testing.T) {
	s, root, fileFH := warmServer(t)
	lookupWire := encodeFastWire(t, 1, nfsproto.ProcLookup, func(e *xdr.Encoder) {
		(&nfsproto.DiropArgs{Dir: root, Name: "data"}).Encode(e)
	})
	getattrWire := encodeFastWire(t, 2, nfsproto.ProcGetattr, func(e *xdr.Encoder) {
		(&nfsproto.GetattrArgs{File: fileFH}).Encode(e)
	})
	out := make([]byte, 0, server.FastReplyMax)
	for i := 0; i < 32; i++ { // warm the name cache to steady state
		fastOnce(t, s, lookupWire, out)
		fastOnce(t, s, getattrWire, out)
	}
	gotLookup := testing.AllocsPerRun(200, func() { fastOnce(t, s, lookupWire, out) })
	t.Logf("fast LOOKUP: %.1f allocs/op (budget %d)", gotLookup, fastLookupAllocBudget)
	if gotLookup > fastLookupAllocBudget {
		t.Errorf("fast LOOKUP allocates %.1f/op, budget is %d", gotLookup, fastLookupAllocBudget)
	}
	gotGetattr := testing.AllocsPerRun(200, func() { fastOnce(t, s, getattrWire, out) })
	t.Logf("fast GETATTR: %.1f allocs/op (budget %d)", gotGetattr, fastGetattrAllocBudget)
	if gotGetattr > fastGetattrAllocBudget {
		t.Errorf("fast GETATTR allocates %.1f/op, budget is %d", gotGetattr, fastGetattrAllocBudget)
	}
}

// TestReadReplyZeroCopy pins the headline property: serving a contiguous
// 8 KB READ moves no payload bytes on the server side. The reply loans the
// file's blocks into the chain (AppendExt) and the XDR layer reserves header
// fields in place, so mbuf.Stats.CopiedBytes must not advance across
// HandleCall. (The client-side CopyTo/Bytes of the payload still copies, as
// a real NIC DMA would; only the server path is required to be copy-free.)
func TestReadReplyZeroCopy(t *testing.T) {
	s, _, fh := warmServer(t)
	for xid := uint32(1); xid <= 4; xid++ { // warm caches outside the window
		readOnce(t, s, fh, xid)
	}

	req := &mbuf.Chain{}
	rpc.EncodeCall(req, &rpc.Call{XID: 99, Prog: nfsproto.Program, Vers: nfsproto.Version, Proc: nfsproto.ProcRead})
	(&nfsproto.ReadArgs{File: fh, Offset: 0, Count: 8192}).Encode(xdr.NewEncoder(req))

	before := mbuf.Stats.CopiedBytes.Load()
	rep := s.HandleCall(nil, "zero-copy-peer", req)
	copied := mbuf.Stats.CopiedBytes.Load() - before

	if rep == nil {
		t.Fatal("nil READ reply")
	}
	if copied != 0 {
		t.Errorf("server copied %d bytes serving a contiguous 8 KB READ, want 0", copied)
	}
	d := xdr.NewDecoder(rep)
	if _, err := rpc.DecodeReply(d); err != nil {
		t.Fatal(err)
	}
	res, err := nfsproto.DecodeReadRes(d)
	if err != nil || res.Status != nfsproto.OK || res.Data.Len() != 8192 {
		t.Fatalf("READ: err %v status %v len %d", err, res.Status, res.Data.Len())
	}
	loaned := mbuf.Stats.LoanedBytes.Load()
	if loaned == 0 {
		t.Error("READ reply loaned no bytes; expected the file blocks on loan")
	}
	res.Data.Free()
	req.Free()
	rep.Free()
}
