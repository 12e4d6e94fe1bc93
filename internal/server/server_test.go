package server

import (
	"bytes"
	"fmt"
	"testing"

	"renonfs/internal/mbuf"
	"renonfs/internal/memfs"
	"renonfs/internal/netsim"
	"renonfs/internal/nfsproto"
	"renonfs/internal/rpc"
	"renonfs/internal/sim"
	"renonfs/internal/xdr"
)

var xidCounter uint32

// call invokes one NFS procedure directly against the server.
func call(t *testing.T, s *Server, proc uint32, args func(e *xdr.Encoder)) (*rpc.Reply, *xdr.Decoder) {
	t.Helper()
	return callPeer(t, s, "test-peer", 0, proc, args)
}

func callPeer(t *testing.T, s *Server, peer string, xid uint32, proc uint32, args func(e *xdr.Encoder)) (*rpc.Reply, *xdr.Decoder) {
	t.Helper()
	if xid == 0 {
		xidCounter++
		xid = xidCounter
	}
	req := &mbuf.Chain{}
	rpc.EncodeCall(req, &rpc.Call{XID: xid, Prog: nfsproto.Program, Vers: nfsproto.Version, Proc: proc})
	if args != nil {
		args(xdr.NewEncoder(req))
	}
	rep := s.HandleCall(nil, peer, req)
	if rep == nil {
		t.Fatal("nil reply")
	}
	d := xdr.NewDecoder(rep)
	r, err := rpc.DecodeReply(d)
	if err != nil {
		t.Fatalf("bad reply: %v", err)
	}
	if r.XID != xid {
		t.Fatalf("xid = %d, want %d", r.XID, xid)
	}
	return r, d
}

func newServer() *Server {
	return New(memfs.New(1, nil, nil), Reno())
}

func mustLookup(t *testing.T, s *Server, dir nfsproto.FH, name string) *nfsproto.DiropRes {
	t.Helper()
	_, d := call(t, s, nfsproto.ProcLookup, func(e *xdr.Encoder) {
		(&nfsproto.DiropArgs{Dir: dir, Name: name}).Encode(e)
	})
	res, err := nfsproto.DecodeDiropRes(d)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func mustCreate(t *testing.T, s *Server, dir nfsproto.FH, name string) nfsproto.FH {
	t.Helper()
	_, d := call(t, s, nfsproto.ProcCreate, func(e *xdr.Encoder) {
		(&nfsproto.CreateArgs{Where: nfsproto.DiropArgs{Dir: dir, Name: name}, Attr: nfsproto.NewSattr()}).Encode(e)
	})
	res, err := nfsproto.DecodeDiropRes(d)
	if err != nil || res.Status != nfsproto.OK {
		t.Fatalf("create: %v / %v", res.Status, err)
	}
	return res.File
}

func TestNullProc(t *testing.T) {
	s := newServer()
	r, _ := call(t, s, nfsproto.ProcNull, nil)
	if r.AcceptStat != rpc.Success {
		t.Fatalf("stat = %d", r.AcceptStat)
	}
}

func TestGetattrRoot(t *testing.T) {
	s := newServer()
	_, d := call(t, s, nfsproto.ProcGetattr, func(e *xdr.Encoder) {
		(&nfsproto.GetattrArgs{File: s.RootFH()}).Encode(e)
	})
	res, err := nfsproto.DecodeAttrRes(d)
	if err != nil || res.Status != nfsproto.OK {
		t.Fatalf("getattr: %v %v", res, err)
	}
	if res.Attr.Type != nfsproto.TypeDir {
		t.Fatalf("root type = %v", res.Attr.Type)
	}
}

func TestLookupCreateReadWrite(t *testing.T) {
	s := newServer()
	fh := mustCreate(t, s, s.RootFH(), "file.c")

	payload := bytes.Repeat([]byte{0xab}, 8192)
	_, d := call(t, s, nfsproto.ProcWrite, func(e *xdr.Encoder) {
		(&nfsproto.WriteArgs{File: fh, Offset: 0, Data: mbuf.FromBytes(payload)}).Encode(e)
	})
	wres, err := nfsproto.DecodeAttrRes(d)
	if err != nil || wres.Status != nfsproto.OK || wres.Attr.Size != 8192 {
		t.Fatalf("write: %+v %v", wres, err)
	}

	_, d = call(t, s, nfsproto.ProcRead, func(e *xdr.Encoder) {
		(&nfsproto.ReadArgs{File: fh, Offset: 0, Count: 8192}).Encode(e)
	})
	rres, err := nfsproto.DecodeReadRes(d)
	if err != nil || rres.Status != nfsproto.OK {
		t.Fatalf("read: %+v %v", rres, err)
	}
	if !bytes.Equal(rres.Data.Bytes(), payload) {
		t.Fatal("read data mismatch")
	}

	lres := mustLookup(t, s, s.RootFH(), "file.c")
	if lres.Status != nfsproto.OK || lres.File != fh {
		t.Fatalf("lookup: %+v", lres)
	}
}

func TestLookupNoEnt(t *testing.T) {
	s := newServer()
	res := mustLookup(t, s, s.RootFH(), "missing")
	if res.Status != nfsproto.ErrNoEnt {
		t.Fatalf("status = %v", res.Status)
	}
	// Second miss is served by the negative name cache.
	before := s.NameCacheStats().NegHits
	res = mustLookup(t, s, s.RootFH(), "missing")
	if res.Status != nfsproto.ErrNoEnt {
		t.Fatalf("status = %v", res.Status)
	}
	if s.NameCacheStats().NegHits != before+1 {
		t.Fatal("negative cache not used")
	}
}

func TestStaleHandle(t *testing.T) {
	s := newServer()
	fh := mustCreate(t, s, s.RootFH(), "gone")
	call(t, s, nfsproto.ProcRemove, func(e *xdr.Encoder) {
		(&nfsproto.DiropArgs{Dir: s.RootFH(), Name: "gone"}).Encode(e)
	})
	_, d := call(t, s, nfsproto.ProcGetattr, func(e *xdr.Encoder) {
		(&nfsproto.GetattrArgs{File: fh}).Encode(e)
	})
	res, _ := nfsproto.DecodeAttrRes(d)
	if res.Status != nfsproto.ErrStale {
		t.Fatalf("status = %v, want NFSERR_STALE", res.Status)
	}
}

func TestDupCacheSuppressesReplay(t *testing.T) {
	s := newServer()
	mkArgs := func(e *xdr.Encoder) {
		(&nfsproto.CreateArgs{Where: nfsproto.DiropArgs{Dir: s.RootFH(), Name: "once"}, Attr: nfsproto.NewSattr()}).Encode(e)
	}
	_, d := callPeer(t, s, "client-a", 777, nfsproto.ProcCreate, mkArgs)
	res1, _ := nfsproto.DecodeDiropRes(d)
	// Retransmission: same xid, same peer.
	_, d = callPeer(t, s, "client-a", 777, nfsproto.ProcCreate, mkArgs)
	res2, _ := nfsproto.DecodeDiropRes(d)
	if res1.Status != nfsproto.OK || res2.Status != nfsproto.OK {
		t.Fatalf("statuses: %v %v", res1.Status, res2.Status)
	}
	if res1.File != res2.File {
		t.Fatal("replayed create returned a different file")
	}
	if s.cDupHits.Value() != 1 {
		t.Fatalf("DupHits = %d", s.cDupHits.Value())
	}
	if s.procSvc[nfsproto.ProcCreate].Snapshot().Count != 1 {
		t.Fatalf("create executed %d times", s.procSvc[nfsproto.ProcCreate].Snapshot().Count)
	}
	// A different peer with the same xid is NOT a duplicate.
	_, d = callPeer(t, s, "client-b", 777, nfsproto.ProcCreate, func(e *xdr.Encoder) {
		(&nfsproto.CreateArgs{Where: nfsproto.DiropArgs{Dir: s.RootFH(), Name: "twice"}, Attr: nfsproto.NewSattr()}).Encode(e)
	})
	res3, _ := nfsproto.DecodeDiropRes(d)
	if res3.Status != nfsproto.OK {
		t.Fatalf("other peer create: %v", res3.Status)
	}
	if s.procSvc[nfsproto.ProcCreate].Snapshot().Count != 2 {
		t.Fatalf("create count = %d", s.procSvc[nfsproto.ProcCreate].Snapshot().Count)
	}
}

func TestRenameAndRemove(t *testing.T) {
	s := newServer()
	mustCreate(t, s, s.RootFH(), "a")
	_, d := call(t, s, nfsproto.ProcRename, func(e *xdr.Encoder) {
		(&nfsproto.RenameArgs{
			From: nfsproto.DiropArgs{Dir: s.RootFH(), Name: "a"},
			To:   nfsproto.DiropArgs{Dir: s.RootFH(), Name: "b"},
		}).Encode(e)
	})
	res, _ := nfsproto.DecodeStatusRes(d)
	if res.Status != nfsproto.OK {
		t.Fatalf("rename: %v", res.Status)
	}
	if mustLookup(t, s, s.RootFH(), "a").Status != nfsproto.ErrNoEnt {
		t.Fatal("old name still resolves")
	}
	if mustLookup(t, s, s.RootFH(), "b").Status != nfsproto.OK {
		t.Fatal("new name does not resolve")
	}
}

func TestMkdirReaddirRmdir(t *testing.T) {
	s := newServer()
	_, d := call(t, s, nfsproto.ProcMkdir, func(e *xdr.Encoder) {
		(&nfsproto.CreateArgs{Where: nfsproto.DiropArgs{Dir: s.RootFH(), Name: "sub"}, Attr: nfsproto.NewSattr()}).Encode(e)
	})
	mres, err := nfsproto.DecodeDiropRes(d)
	if err != nil || mres.Status != nfsproto.OK {
		t.Fatalf("mkdir: %v %v", mres, err)
	}
	for i := 0; i < 5; i++ {
		mustCreate(t, s, mres.File, fmt.Sprintf("f%d", i))
	}
	_, d = call(t, s, nfsproto.ProcReaddir, func(e *xdr.Encoder) {
		(&nfsproto.ReaddirArgs{Dir: mres.File, Cookie: 0, Count: 4096}).Encode(e)
	})
	rd, err := nfsproto.DecodeReaddirRes(d)
	if err != nil || rd.Status != nfsproto.OK || !rd.EOF {
		t.Fatalf("readdir: %+v %v", rd, err)
	}
	// ".", ".." and 5 files.
	if len(rd.Entries) != 7 {
		t.Fatalf("entries = %d", len(rd.Entries))
	}
	// Rmdir refuses a populated directory.
	_, d = call(t, s, nfsproto.ProcRmdir, func(e *xdr.Encoder) {
		(&nfsproto.DiropArgs{Dir: s.RootFH(), Name: "sub"}).Encode(e)
	})
	rm, _ := nfsproto.DecodeStatusRes(d)
	if rm.Status != nfsproto.ErrNotEmpty {
		t.Fatalf("rmdir: %v", rm.Status)
	}
}

func TestReaddirPaging(t *testing.T) {
	s := newServer()
	for i := 0; i < 60; i++ {
		mustCreate(t, s, s.RootFH(), fmt.Sprintf("file-%02d", i))
	}
	var names []string
	cookie := uint32(0)
	for rounds := 0; rounds < 20; rounds++ {
		_, d := call(t, s, nfsproto.ProcReaddir, func(e *xdr.Encoder) {
			(&nfsproto.ReaddirArgs{Dir: s.RootFH(), Cookie: cookie, Count: 512}).Encode(e)
		})
		rd, err := nfsproto.DecodeReaddirRes(d)
		if err != nil || rd.Status != nfsproto.OK {
			t.Fatalf("readdir: %v %v", rd.Status, err)
		}
		if len(rd.Entries) == 0 {
			t.Fatal("empty page without EOF progress")
		}
		for _, ent := range rd.Entries {
			names = append(names, ent.Name)
			cookie = ent.Cookie
		}
		if rd.EOF {
			break
		}
	}
	if len(names) != 62 { // ".", "..", 60 files
		t.Fatalf("total entries = %d", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate entry %q", n)
		}
		seen[n] = true
	}
}

func TestSymlinkReadlinkViaRPC(t *testing.T) {
	s := newServer()
	_, d := call(t, s, nfsproto.ProcSymlink, func(e *xdr.Encoder) {
		(&nfsproto.SymlinkArgs{
			From: nfsproto.DiropArgs{Dir: s.RootFH(), Name: "ln"},
			To:   "/etc/passwd", Attr: nfsproto.NewSattr(),
		}).Encode(e)
	})
	sres, _ := nfsproto.DecodeStatusRes(d)
	if sres.Status != nfsproto.OK {
		t.Fatalf("symlink: %v", sres.Status)
	}
	lres := mustLookup(t, s, s.RootFH(), "ln")
	_, d = call(t, s, nfsproto.ProcReadlink, func(e *xdr.Encoder) {
		(&nfsproto.GetattrArgs{File: lres.File}).Encode(e)
	})
	rl, err := nfsproto.DecodeReadlinkRes(d)
	if err != nil || rl.Status != nfsproto.OK || rl.Path != "/etc/passwd" {
		t.Fatalf("readlink: %+v %v", rl, err)
	}
}

func TestStatfs(t *testing.T) {
	s := newServer()
	_, d := call(t, s, nfsproto.ProcStatfs, func(e *xdr.Encoder) {
		(&nfsproto.GetattrArgs{File: s.RootFH()}).Encode(e)
	})
	res, err := nfsproto.DecodeStatfsRes(d)
	if err != nil || res.Status != nfsproto.OK || res.TSize != nfsproto.MaxData {
		t.Fatalf("statfs: %+v %v", res, err)
	}
}

// TestRejectionsAnsweredAndCounted covers the four accept-stat error
// replies: each must carry its status, and each must advance nfs.bytes_out
// by the bytes that left — a rejection is traffic like any other reply.
func TestRejectionsAnsweredAndCounted(t *testing.T) {
	s := newServer()
	for _, tc := range []struct {
		name             string
		prog, vers, proc uint32
		want             uint32
	}{
		// 100005 is served (the MOUNT protocol); 100099 is nobody.
		{"prog unavail", 100099, 1, 0, rpc.ProgUnavail},
		{"prog mismatch", nfsproto.Program, nfsproto.Version + 1, nfsproto.ProcNull, rpc.ProgMismatch},
		{"proc unavail", nfsproto.Program, nfsproto.Version, nfsproto.NumProcsExt, rpc.ProcUnavail},
		// LOOKUP with no arguments at all.
		{"garbage args", nfsproto.Program, nfsproto.Version, nfsproto.ProcLookup, rpc.GarbageArgs},
	} {
		req := &mbuf.Chain{}
		rpc.EncodeCall(req, &rpc.Call{XID: 1, Prog: tc.prog, Vers: tc.vers, Proc: tc.proc})
		before := s.cBytesOut.Value()
		rep := s.HandleCall(nil, "x", req)
		if rep == nil {
			t.Fatalf("%s: no reply", tc.name)
		}
		if got := s.cBytesOut.Value() - before; got != int64(rep.Len()) {
			t.Errorf("%s: bytes_out advanced %d for a %d-byte reply", tc.name, got, rep.Len())
		}
		r, err := rpc.DecodeReply(xdr.NewDecoder(rep))
		if err != nil || r.AcceptStat != tc.want {
			t.Errorf("%s: reply %+v %v, want accept stat %d", tc.name, r, err, tc.want)
		}
	}
}

func TestGarbageDropped(t *testing.T) {
	s := newServer()
	if rep := s.HandleCall(nil, "x", mbuf.FromBytes([]byte("not rpc"))); rep != nil {
		t.Fatal("garbage produced a reply")
	}
}

// TestUltrixLookupCostsMoreCPU reproduces the mechanism behind Graphs 8-9:
// with identical warm caches, the Reno server's vnode-chained buffer lists
// plus name cache make lookups far cheaper than the Ultrix linear scan.
func TestUltrixLookupCostsMoreCPU(t *testing.T) {
	cpuFor := func(opts Options) sim.Time {
		env := sim.New(42)
		defer env.Close()
		nt := netsim.New(env)
		node := nt.AddNode(netsim.NodeConfig{Name: "srv"})
		fs := memfs.New(1, nil, nil)
		s := New(fs, opts)
		s.AttachNode(node)
		// Populate a directory tree so scans have work to do.
		for i := 0; i < 40; i++ {
			fs.Create(nil, fs.Root(), fmt.Sprintf("file-%02d", i), 0644)
		}
		env.Spawn("load", func(p *sim.Proc) {
			for round := 0; round < 3; round++ {
				for i := 0; i < 40; i++ {
					req := &mbuf.Chain{}
					rpc.EncodeCall(req, &rpc.Call{XID: uint32(round*100 + i + 1), Prog: nfsproto.Program, Vers: 2, Proc: nfsproto.ProcLookup})
					(&nfsproto.DiropArgs{Dir: s.RootFH(), Name: fmt.Sprintf("file-%02d", i)}).Encode(xdr.NewEncoder(req))
					s.HandleCall(p, "c", req)
				}
				// Touch other files so the Ultrix cache has plenty of
				// buffers to scan through.
				for i := 0; i < 30; i++ {
					req := &mbuf.Chain{}
					rpc.EncodeCall(req, &rpc.Call{XID: uint32(10000 + round*100 + i), Prog: nfsproto.Program, Vers: 2, Proc: nfsproto.ProcReaddir})
					(&nfsproto.ReaddirArgs{Dir: s.RootFH(), Count: 4096}).Encode(xdr.NewEncoder(req))
					s.HandleCall(p, "c", req)
				}
			}
		})
		env.RunAll()
		return node.CPU.BusyTime()
	}
	reno := cpuFor(Reno())
	ultrix := cpuFor(Ultrix())
	if ultrix <= reno {
		t.Fatalf("ultrix CPU %v <= reno %v; lookup-path costs inverted", ultrix, reno)
	}
	if float64(ultrix) < 1.3*float64(reno) {
		t.Fatalf("ultrix/reno CPU ratio = %.2f, want a clear gap", float64(ultrix)/float64(reno))
	}
}

func TestCreateExistingTruncates(t *testing.T) {
	s := newServer()
	fh := mustCreate(t, s, s.RootFH(), "file")
	call(t, s, nfsproto.ProcWrite, func(e *xdr.Encoder) {
		(&nfsproto.WriteArgs{File: fh, Offset: 0, Data: mbuf.FromBytes(bytes.Repeat([]byte{1}, 100))}).Encode(e)
	})
	// CREATE again with size 0 (open O_CREAT|O_TRUNC).
	_, d := call(t, s, nfsproto.ProcCreate, func(e *xdr.Encoder) {
		attr := nfsproto.NewSattr()
		attr.Size = 0
		(&nfsproto.CreateArgs{Where: nfsproto.DiropArgs{Dir: s.RootFH(), Name: "file"}, Attr: attr}).Encode(e)
	})
	res, _ := nfsproto.DecodeDiropRes(d)
	if res.Status != nfsproto.OK || res.File != fh {
		t.Fatalf("re-create: %+v", res)
	}
	if res.Attr.Size != 0 {
		t.Fatalf("size after truncating create = %d", res.Attr.Size)
	}
}

func TestDupCacheEviction(t *testing.T) {
	fs := memfs.New(1, nil, nil)
	opts := Reno()
	opts.DupCacheSize = 4
	s := New(fs, opts)
	for i := 0; i < 10; i++ {
		callPeer(t, s, "c", uint32(1000+i), nfsproto.ProcCreate, func(e *xdr.Encoder) {
			(&nfsproto.CreateArgs{Where: nfsproto.DiropArgs{Dir: s.RootFH(), Name: fmt.Sprintf("f%d", i)}, Attr: nfsproto.NewSattr()}).Encode(e)
		})
	}
	if s.dupc.len() != 4 {
		t.Fatalf("dup cache len = %d, want 4", s.dupc.len())
	}
}

func TestSetattrViaRPC(t *testing.T) {
	s := newServer()
	fh := mustCreate(t, s, s.RootFH(), "tunable")
	call(t, s, nfsproto.ProcWrite, func(e *xdr.Encoder) {
		(&nfsproto.WriteArgs{File: fh, Offset: 0, Data: mbuf.FromBytes(bytes.Repeat([]byte{1}, 1000))}).Encode(e)
	})
	// Change the mode and truncate in one call.
	attr := nfsproto.NewSattr()
	attr.Mode = 0600
	attr.Size = 100
	_, d := call(t, s, nfsproto.ProcSetattr, func(e *xdr.Encoder) {
		(&nfsproto.SetattrArgs{File: fh, Attr: attr}).Encode(e)
	})
	res, err := nfsproto.DecodeAttrRes(d)
	if err != nil || res.Status != nfsproto.OK {
		t.Fatalf("setattr: %v %v", res, err)
	}
	if res.Attr.Mode != 0600 || res.Attr.Size != 100 {
		t.Fatalf("attrs after setattr: mode=%o size=%d", res.Attr.Mode, res.Attr.Size)
	}
	// Stale handle path.
	_, d = call(t, s, nfsproto.ProcSetattr, func(e *xdr.Encoder) {
		(&nfsproto.SetattrArgs{File: nfsproto.MakeFH(1, 9999, 1), Attr: nfsproto.NewSattr()}).Encode(e)
	})
	res, _ = nfsproto.DecodeAttrRes(d)
	if res.Status != nfsproto.ErrStale {
		t.Fatalf("setattr stale = %v", res.Status)
	}
}

func TestLinkViaRPC(t *testing.T) {
	s := newServer()
	fh := mustCreate(t, s, s.RootFH(), "orig")
	_, d := call(t, s, nfsproto.ProcLink, func(e *xdr.Encoder) {
		(&nfsproto.LinkArgs{From: fh, To: nfsproto.DiropArgs{Dir: s.RootFH(), Name: "alias"}}).Encode(e)
	})
	res, err := nfsproto.DecodeStatusRes(d)
	if err != nil || res.Status != nfsproto.OK {
		t.Fatalf("link: %v %v", res, err)
	}
	al := mustLookup(t, s, s.RootFH(), "alias")
	if al.Status != nfsproto.OK || al.File != fh {
		t.Fatalf("alias lookup: %+v", al)
	}
	if al.Attr.Nlink != 2 {
		t.Fatalf("nlink = %d, want 2", al.Attr.Nlink)
	}
	// Hard link to a directory is refused.
	_, d = call(t, s, nfsproto.ProcLink, func(e *xdr.Encoder) {
		(&nfsproto.LinkArgs{From: s.RootFH(), To: nfsproto.DiropArgs{Dir: s.RootFH(), Name: "dirlink"}}).Encode(e)
	})
	res, _ = nfsproto.DecodeStatusRes(d)
	if res.Status != nfsproto.ErrIsDir {
		t.Fatalf("link to dir = %v", res.Status)
	}
}

func TestMountdDirect(t *testing.T) {
	s := newServer()
	s.Export("/data")
	mustCreate(t, s, s.RootFH(), "ignore") // populate root a bit
	_, d := call2(t, s, nfsproto.MountProgram, nfsproto.MountVersion, nfsproto.MountProcExport, nil)
	exports, err := nfsproto.DecodeExportList(d)
	if err != nil || len(exports) != 2 {
		t.Fatalf("exports: %+v %v", exports, err)
	}
	// MNT of the (nonexistent) /data export: errno ENOENT.
	_, d = call2(t, s, nfsproto.MountProgram, nfsproto.MountVersion, nfsproto.MountProcMnt, func(e *xdr.Encoder) {
		(&nfsproto.MntArgs{DirPath: "/data"}).Encode(e)
	})
	res, err := nfsproto.DecodeMntRes(d)
	if err != nil || res.Status != 2 {
		t.Fatalf("mnt missing export: %+v %v", res, err)
	}
	// DUMP after a successful mount of "/".
	call2(t, s, nfsproto.MountProgram, nfsproto.MountVersion, nfsproto.MountProcMnt, func(e *xdr.Encoder) {
		(&nfsproto.MntArgs{DirPath: "/"}).Encode(e)
	})
	_, d = call2(t, s, nfsproto.MountProgram, nfsproto.MountVersion, nfsproto.MountProcDump, nil)
	mounts, err := nfsproto.DecodeMountList(d)
	if err != nil || len(mounts) != 1 || mounts[0].Dir != "/" {
		t.Fatalf("dump: %+v %v", mounts, err)
	}
}

// call2 invokes an arbitrary RPC program against the server.
func call2(t *testing.T, s *Server, prog, vers, proc uint32, args func(e *xdr.Encoder)) (*rpc.Reply, *xdr.Decoder) {
	t.Helper()
	xidCounter++
	req := &mbuf.Chain{}
	rpc.EncodeCall(req, &rpc.Call{XID: xidCounter, Prog: prog, Vers: vers, Proc: proc})
	if args != nil {
		args(xdr.NewEncoder(req))
	}
	rep := s.HandleCall(nil, "test-peer", req)
	if rep == nil {
		t.Fatal("nil reply")
	}
	d := xdr.NewDecoder(rep)
	r, err := rpc.DecodeReply(d)
	if err != nil {
		t.Fatalf("bad reply: %v", err)
	}
	return r, d
}
