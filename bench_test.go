package renonfs_test

// The ablation benches DESIGN.md calls out and micro-benchmarks of the hot
// substrate paths. The paper's tables are `go run ./cmd/nfsbench -exp all`;
// bash benchmark/run.sh times them (the sim_tables workload).

import (
	"testing"
	"time"

	"renonfs"
	"renonfs/internal/client"
	"renonfs/internal/mbuf"
	"renonfs/internal/memfs"
	"renonfs/internal/nfsproto"
	"renonfs/internal/rpc"
	"renonfs/internal/server"
	"renonfs/internal/sim"
	"renonfs/internal/transport"
	"renonfs/internal/workload"
	"renonfs/internal/xdr"
)

// --- Ablation benches (DESIGN.md §6) ---------------------------------------

// ablationPoint runs one read-heavy load point against a disk-backed
// server — the high-RTT-variance regime where the paper's timer policies
// differ — on the paper's transport and reports the mean read RTT.
func ablationPoint(b *testing.B, nodeMutate func(*renonfs.RigConfig)) (rtt float64) {
	rigCfg := renonfs.RigConfig{Seed: 1991, Topology: renonfs.TopoLAN, ServerDisk: true}
	if nodeMutate != nil {
		nodeMutate(&rigCfg)
	}
	r := renonfs.NewRig(rigCfg)
	defer r.Close()
	done := false
	r.Env.Spawn("bench", func(p *sim.Proc) {
		tr := r.DialUDPConfig(transport.DynamicUDP())
		nh := &workload.Nhfsstone{
			Cfg: workload.NhfsstoneConfig{
				Mix:  map[uint32]float64{nfsproto.ProcRead: 0.9, nfsproto.ProcLookup: 0.1},
				Rate: 28, Procs: 8,
				Duration: 2 * time.Minute, Warmup: 20 * time.Second,
				NumFiles: 320, FileSize: 8192,
			},
			Tr:   tr,
			Root: r.Server.RootFH(),
		}
		if err := nh.Preload(p); err != nil {
			return
		}
		res := nh.Run(p)
		if s := res.RTT[nfsproto.ProcRead]; s != nil {
			rtt = s.Mean()
		}
		done = true
	})
	r.Env.Run(2 * time.Hour)
	if !done {
		b.Fatal("ablation point did not complete")
	}
	return rtt
}

func BenchmarkAblationPageRemap(b *testing.B) {
	var saving float64
	for i := 0; i < b.N; i++ {
		before := ablationPoint(b, nil)
		after := ablationPoint(b, func(rc *renonfs.RigConfig) {
			rc.ServerPageRemap = true
		})
		saving = before - after
	}
	b.ReportMetric(saving, "rtt-saving-ms")
}

func BenchmarkAblationTxInterrupt(b *testing.B) {
	var saving float64
	for i := 0; i < b.N; i++ {
		before := ablationPoint(b, nil)
		after := ablationPoint(b, func(rc *renonfs.RigConfig) {
			rc.ServerNoTxIntr = true
		})
		saving = before - after
	}
	b.ReportMetric(saving, "rtt-saving-ms")
}

// --- Micro-benchmarks of the substrate hot paths ---------------------------

func BenchmarkXDRFattrRoundTrip(b *testing.B) {
	attr := &nfsproto.Fattr{Type: nfsproto.TypeReg, Size: 8192, BlockSize: 8192, FileID: 42}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := &mbuf.Chain{}
		e := xdr.NewEncoder(c)
		attr.Encode(e)
		if _, err := nfsproto.DecodeFattr(xdr.NewDecoder(c)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMbufBuildDissect8K(b *testing.B) {
	payload := make([]byte, 8192)
	b.SetBytes(8192)
	for i := 0; i < b.N; i++ {
		c := &mbuf.Chain{}
		bd := mbuf.NewBuilder(c)
		bd.WriteBytes(payload)
		d := mbuf.NewDissector(c)
		for d.Remaining() > 0 {
			n := d.Remaining()
			if n > 2048 {
				n = 2048
			}
			if _, err := d.Next(n); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkRecordScanner(b *testing.B) {
	msg := mbuf.FromBytes(make([]byte, 600))
	rpc.AddRecordMark(msg)
	wire := msg.Bytes()
	var s rpc.RecordScanner
	b.SetBytes(int64(len(wire)))
	for i := 0; i < b.N; i++ {
		s.Feed(wire)
		if rec, err := s.Next(); err != nil || len(rec) != 600 {
			b.Fatal("bad scan")
		}
	}
}

func BenchmarkServerLookupDispatch(b *testing.B) {
	fs := memfs.New(1, nil, nil)
	srv := server.New(fs, server.Reno())
	fs.Create(nil, fs.Root(), "target", 0644)
	root := srv.RootFH()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		req := &mbuf.Chain{}
		rpc.EncodeCall(req, &rpc.Call{XID: uint32(i + 1), Prog: nfsproto.Program, Vers: 2, Proc: nfsproto.ProcLookup})
		(&nfsproto.DiropArgs{Dir: root, Name: "target"}).Encode(xdr.NewEncoder(req))
		if rep := srv.HandleCall(nil, "b", req); rep == nil {
			b.Fatal("nil reply")
		}
	}
}

// fastpathWire encodes one call to the flat bytes the ingest readers peek.
func fastpathWire(xid, proc uint32, args func(e *xdr.Encoder)) []byte {
	req := &mbuf.Chain{}
	rpc.EncodeCall(req, &rpc.Call{XID: xid, Prog: nfsproto.Program, Vers: 2, Proc: proc})
	if args != nil {
		args(xdr.NewEncoder(req))
	}
	wire := append([]byte(nil), req.Bytes()...)
	req.Free()
	return wire
}

// BenchmarkServerLookupFastpath measures the shallow dispatch path against
// BenchmarkServerLookupDispatch above: peek, classify and service the same
// LOOKUP into reused scratch, the way an ingest reader does per datagram.
// TestAllocBudgetFastPath pins what it allocates (1, against the generic
// path's ≤ 8); a timing comparison belongs to benchmark/run.sh -compare.
func BenchmarkServerLookupFastpath(b *testing.B) {
	fs := memfs.New(1, nil, nil)
	srv := server.New(fs, server.Reno())
	fs.Create(nil, fs.Root(), "target", 0644)
	root := srv.RootFH()
	wire := fastpathWire(1, nfsproto.ProcLookup, func(e *xdr.Encoder) {
		(&nfsproto.DiropArgs{Dir: root, Name: "target"}).Encode(e)
	})
	out := make([]byte, 0, server.FastReplyMax)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var h rpc.PeekedCall
		argOff, ok := rpc.PeekCallHeader(wire, &h)
		if !ok || !server.FastEligible(&h) {
			b.Fatal("bench wire not fast-eligible")
		}
		rep, ok := srv.HandleCallFast("b", wire, &h, argOff, out, nil)
		if !ok || len(rep) == 0 {
			b.Fatal("fast path refused the bench call")
		}
	}
}

func BenchmarkServerGetattrFastpath(b *testing.B) {
	fs := memfs.New(1, nil, nil)
	srv := server.New(fs, server.Reno())
	f, _ := fs.Create(nil, fs.Root(), "target", 0644)
	wire := fastpathWire(1, nfsproto.ProcGetattr, func(e *xdr.Encoder) {
		(&nfsproto.GetattrArgs{File: fs.FH(f)}).Encode(e)
	})
	out := make([]byte, 0, server.FastReplyMax)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var h rpc.PeekedCall
		argOff, ok := rpc.PeekCallHeader(wire, &h)
		if !ok || !server.FastEligible(&h) {
			b.Fatal("bench wire not fast-eligible")
		}
		rep, ok := srv.HandleCallFast("b", wire, &h, argOff, out, nil)
		if !ok || len(rep) == 0 {
			b.Fatal("fast path refused the bench call")
		}
	}
}

func BenchmarkServerRead8K(b *testing.B) {
	fs := memfs.New(1, nil, nil)
	srv := server.New(fs, server.Reno())
	f, _ := fs.Create(nil, fs.Root(), "data", 0644)
	fs.WriteAt(nil, f, 0, make([]byte, 8192), 0)
	fh := fs.FH(f)
	b.SetBytes(8192)
	for i := 0; i < b.N; i++ {
		req := &mbuf.Chain{}
		rpc.EncodeCall(req, &rpc.Call{XID: uint32(i + 1), Prog: nfsproto.Program, Vers: 2, Proc: nfsproto.ProcRead})
		(&nfsproto.ReadArgs{File: fh, Offset: 0, Count: 8192}).Encode(xdr.NewEncoder(req))
		if rep := srv.HandleCall(nil, "b", req); rep == nil || rep.Len() < 8192 {
			b.Fatal("bad read reply")
		}
	}
}

func BenchmarkSimEventThroughput(b *testing.B) {
	env := sim.New(1)
	defer env.Close()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			env.After(time.Microsecond, tick)
		}
	}
	b.ResetTimer()
	env.After(time.Microsecond, tick)
	env.RunAll()
}

// --- Future Directions extension benches ------------------------------------

// BenchmarkAblationReadAhead sweeps the read-ahead depth the Future
// Directions section suggests raising from 1 to 2-4 blocks.
func BenchmarkAblationReadAhead(b *testing.B) {
	seqReadTime := func(depth int) time.Duration {
		// Read-ahead pays off on the long fat pipe, where the
		// bandwidth-delay product dwarfs one block (Future Directions).
		r := renonfs.NewRig(renonfs.RigConfig{Seed: 11, Topology: renonfs.TopoLFN, ServerDisk: true})
		defer r.Close()
		var elapsed time.Duration
		done := false
		r.Env.Spawn("reader", func(p *sim.Proc) {
			opts := renonfs.RenoClient()
			opts.ReadAhead = depth
			opts.Biods = 4
			m, err := r.Mount(p, renonfs.UDPDynamic, opts)
			if err != nil {
				return
			}
			f, err := m.Create(p, "big", 0644)
			if err != nil {
				return
			}
			f.Write(p, make([]byte, 64*8192))
			f.Close(p)
			p.Sleep(6 * time.Second)
			g, err := m.Open(p, "big")
			if err != nil {
				return
			}
			start := p.Now()
			buf := make([]byte, 8192)
			for {
				n, err := g.Read(p, buf)
				if err != nil || n == 0 {
					break
				}
			}
			elapsed = time.Duration(p.Now() - start)
			done = true
		})
		r.Env.Run(time.Hour)
		if !done {
			b.Fatal("sequential read did not finish")
		}
		return elapsed
	}
	var speedup float64
	for i := 0; i < b.N; i++ {
		t1 := seqReadTime(1)
		t4 := seqReadTime(4)
		speedup = float64(t1) / float64(t4)
	}
	b.ReportMetric(speedup, "readahead4-speedup")
}

// BenchmarkAblationLendPages measures the §3 "further work" option that
// lends buffer-cache pages to the network code (skipping the third
// bottleneck's copy).
func BenchmarkAblationLendPages(b *testing.B) {
	cpuFor := func(lend bool) float64 {
		srv := renonfs.RenoServer()
		srv.LendPages = lend
		r := renonfs.NewRig(renonfs.RigConfig{Seed: 3, ServerOpts: srv})
		defer r.Close()
		var cpu float64
		done := false
		r.Env.Spawn("load", func(p *sim.Proc) {
			tr, err := r.DialTransport(p, renonfs.UDPDynamic)
			if err != nil {
				return
			}
			root := r.Server.RootFH()
			attr := nfsproto.NewSattr()
			attr.Mode = 0644
			d, err := tr.Call(p, nfsproto.ProcCreate, func(e *xdr.Encoder) {
				(&nfsproto.CreateArgs{Where: nfsproto.DiropArgs{Dir: root, Name: "f"}, Attr: attr}).Encode(e)
			})
			if err != nil {
				return
			}
			res, _ := nfsproto.DecodeDiropRes(d)
			tr.Call(p, nfsproto.ProcWrite, func(e *xdr.Encoder) {
				(&nfsproto.WriteArgs{File: res.File, Offset: 0, Data: mbuf.FromBytes(make([]byte, 8192))}).Encode(e)
			})
			r.Net.Server.ResetProfile()
			for i := 0; i < 100; i++ {
				tr.Call(p, nfsproto.ProcRead, func(e *xdr.Encoder) {
					(&nfsproto.ReadArgs{File: res.File, Offset: 0, Count: 8192}).Encode(e)
				})
			}
			cpu = float64(r.Net.Server.CPU.BusyTime())
			done = true
		})
		r.Env.Run(10 * time.Minute)
		if !done {
			b.Fatal("lend-pages load did not finish")
		}
		return cpu
	}
	var saving float64
	for i := 0; i < b.N; i++ {
		base := cpuFor(false)
		lend := cpuFor(true)
		saving = 100 * (1 - lend/base)
	}
	b.ReportMetric(saving, "cpu-saving-%")
}

// BenchmarkAblationWriteGathering measures the [Juszczak89] nfsd
// optimization the paper cites: batching metadata disk writes across a
// biod burst.
func BenchmarkAblationWriteGathering(b *testing.B) {
	cdTime := func(gather bool) float64 {
		srv := renonfs.RenoServer()
		srv.WriteGathering = gather
		r := renonfs.NewRig(renonfs.RigConfig{Seed: 13, ServerOpts: srv, ServerDisk: true})
		defer r.Close()
		var mean float64
		done := false
		r.Env.Spawn("cd", func(p *sim.Proc) {
			opts := renonfs.RenoClient()
			opts.Policy = client.WriteAsync
			m, err := r.Mount(p, renonfs.UDPDynamic, opts)
			if err != nil {
				return
			}
			res, err := workload.RunCreateDelete(p, workload.MountFS{M: m}, "wg", 100*1024, 5)
			if err != nil {
				return
			}
			mean = res.MeanMS
			done = true
		})
		r.Env.Run(2 * time.Hour)
		if !done {
			b.Fatal("create-delete did not finish")
		}
		return mean
	}
	var speedup float64
	for i := 0; i < b.N; i++ {
		off := cdTime(false)
		on := cdTime(true)
		speedup = off / on
	}
	b.ReportMetric(speedup, "gathering-speedup")
}
