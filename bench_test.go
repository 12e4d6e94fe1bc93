package renonfs_test

// The benchmark harness: one testing.B entry per table and figure of the
// paper (each runs the corresponding experiment in Quick mode and reports
// its headline number as a custom metric), the ablation benches DESIGN.md
// calls out, and micro-benchmarks of the hot substrate paths.
//
// Regenerate everything at full scale with: go run ./cmd/nfsbench -exp all

import (
	"strconv"
	"strings"
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
	"renonfs/internal/stats"
	"renonfs/internal/transport"
	"renonfs/internal/workload"
	"renonfs/internal/xdr"
)

// cellF extracts a float cell from a rendered experiment table.
func cellF(b *testing.B, tb *stats.Table, row, col int) float64 {
	b.Helper()
	if row >= len(tb.Rows) || col >= len(tb.Rows[row]) {
		return 0
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(tb.Rows[row][col]), 64)
	if err != nil {
		return 0
	}
	return v
}

// benchExperiment runs one experiment per iteration and reports a metric
// extracted from its first table.
func benchExperiment(b *testing.B, id string, metric string, extract func(*stats.Table) float64) {
	var last float64
	for i := 0; i < b.N; i++ {
		tabs, err := renonfs.RunExperiment(id, renonfs.ExpConfig{Quick: true, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		last = extract(tabs[0])
	}
	b.ReportMetric(last, metric)
}

// --- One bench per table/figure -------------------------------------------

func BenchmarkGraph1LANLookup(b *testing.B) {
	benchExperiment(b, "graph1", "tcp-premium-ms", func(tb *stats.Table) float64 {
		return cellF(b, tb, 0, 3) - cellF(b, tb, 0, 2)
	})
}

func BenchmarkGraph2LANReadMix(b *testing.B) {
	benchExperiment(b, "graph2", "read-rtt-udpdyn-ms", func(tb *stats.Table) float64 {
		return cellF(b, tb, 0, 2)
	})
}

func BenchmarkGraph3RingLookup(b *testing.B) {
	benchExperiment(b, "graph3", "lookup-rtt-tcp-ms", func(tb *stats.Table) float64 {
		return cellF(b, tb, 0, 3)
	})
}

func BenchmarkGraph4RingReadMix(b *testing.B) {
	benchExperiment(b, "graph4", "read-rtt-udpdyn-ms", func(tb *stats.Table) float64 {
		return cellF(b, tb, 0, 2)
	})
}

func BenchmarkGraph5SlowLookup(b *testing.B) {
	benchExperiment(b, "graph5", "lookup-rtt-tcp-ms", func(tb *stats.Table) float64 {
		return cellF(b, tb, 0, 3)
	})
}

func BenchmarkTable1ReadRates(b *testing.B) {
	benchExperiment(b, "table1", "ring-udpdyn-reads-per-s", func(tb *stats.Table) float64 {
		return cellF(b, tb, 1, 3)
	})
}

func BenchmarkGraph6ServerCPU(b *testing.B) {
	benchExperiment(b, "graph6", "tcp-over-udp-cpu-ratio", func(tb *stats.Table) float64 {
		return cellF(b, tb, 1, 3)
	})
}

func BenchmarkGraph7RTTTrace(b *testing.B) {
	benchExperiment(b, "graph7", "trace-points", func(tb *stats.Table) float64 {
		return float64(len(tb.Rows))
	})
}

func BenchmarkGraph8ServerLookupCompare(b *testing.B) {
	benchExperiment(b, "graph8", "ultrix-over-reno-rtt", func(tb *stats.Table) float64 {
		return cellF(b, tb, 0, 3)
	})
}

func BenchmarkGraph9ServerReadCompare(b *testing.B) {
	benchExperiment(b, "graph9", "ultrix-over-reno-rtt", func(tb *stats.Table) float64 {
		return cellF(b, tb, 0, 3)
	})
}

func BenchmarkProfile3NICTuning(b *testing.B) {
	var saving float64
	for i := 0; i < b.N; i++ {
		tabs, err := renonfs.RunExperiment("profile3", renonfs.ExpConfig{Quick: true, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		saving = cellF(b, tabs[2], 2, 1)
	}
	b.ReportMetric(saving, "cpu-saving-%")
}

func BenchmarkTable2AndrewTimes(b *testing.B) {
	benchExperiment(b, "table2", "reno-phaseI-IV-s", func(tb *stats.Table) float64 {
		return cellF(b, tb, 0, 1)
	})
}

func BenchmarkTable3AndrewRPCCounts(b *testing.B) {
	benchExperiment(b, "table3", "ultrix-over-reno-lookups", func(tb *stats.Table) float64 {
		// Lookup row: Reno col 1, Ultrix col 3.
		for i, r := range tb.Rows {
			if r[0] == "Lookup" {
				return cellF(b, tb, i, 3) / cellF(b, tb, i, 1)
			}
		}
		return 0
	})
}

func BenchmarkTable4DS3100(b *testing.B) {
	benchExperiment(b, "table4", "ultrix-over-reno-I-IV", func(tb *stats.Table) float64 {
		return cellF(b, tb, 1, 1) / cellF(b, tb, 0, 1)
	})
}

func BenchmarkTable5CreateDelete(b *testing.B) {
	benchExperiment(b, "table5", "wthru-over-noconsist-100K", func(tb *stats.Table) float64 {
		return cellF(b, tb, 1, 3) / cellF(b, tb, 5, 3)
	})
}

func BenchmarkAppendixA(b *testing.B) {
	benchExperiment(b, "appendixA", "namecache-hits-short-names", func(tb *stats.Table) float64 {
		return cellF(b, tb, 0, 3)
	})
}

// --- Ablation benches (DESIGN.md §6) ---------------------------------------

// ablationPoint runs one read-heavy load point against a disk-backed
// server — the high-RTT-variance regime where the paper's timer policies
// differ — and reports the read-class retry count and mean read RTT.
func ablationPoint(b *testing.B, mutate func(*transport.UDPConfig), nodeMutate func(*renonfs.RigConfig)) (rtt float64, retries int) {
	cfg := transport.DynamicUDP()
	if mutate != nil {
		mutate(&cfg)
	}
	rigCfg := renonfs.RigConfig{Seed: 1991, Topology: renonfs.TopoLAN, ServerDisk: true}
	if nodeMutate != nil {
		nodeMutate(&rigCfg)
	}
	r := renonfs.NewRig(rigCfg)
	defer r.Close()
	done := false
	r.Env.Spawn("bench", func(p *sim.Proc) {
		tr := r.DialUDPConfig(cfg)
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
		retries = tr.Stats().RetryClass[transport.ClassRead]
		done = true
	})
	r.Env.Run(2 * time.Hour)
	if !done {
		b.Fatal("ablation point did not complete")
	}
	return rtt, retries
}

// The timer-policy ablations run the full §4 ablation experiment (long
// windows, both regimes) and report its headline deltas; single short
// points are too noisy to show the 2-4x retry-rate effect reliably.
func BenchmarkAblationRTOFactor(b *testing.B) {
	var extra, atSend float64
	for i := 0; i < b.N; i++ {
		tabs, err := renonfs.RunExperiment("ablations", renonfs.ExpConfig{})
		if err != nil {
			b.Fatal(err)
		}
		lan := tabs[0]
		extra = cellF(b, lan, 1, 3) - cellF(b, lan, 0, 3)  // A+2D vs A+4D read retries
		atSend = cellF(b, lan, 2, 3) - cellF(b, lan, 0, 3) // at-send vs per-tick
	}
	b.ReportMetric(extra, "extra-retries-A+2D")
	b.ReportMetric(atSend, "extra-retries-at-send")
}

// BenchmarkAblationSlowStart reports the 56K-path throughput cost of the
// classic fixed RTO versus the tuned transport (the slow-start row itself
// is indistinguishable at steady state, as EXPERIMENTS.md discusses).
func BenchmarkAblationSlowStart(b *testing.B) {
	var fixedPenalty float64
	for i := 0; i < b.N; i++ {
		tabs, err := renonfs.RunExperiment("ablations", renonfs.ExpConfig{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		slow := tabs[1]
		fixedPenalty = cellF(b, slow, 4, 1) - cellF(b, slow, 0, 1)
	}
	b.ReportMetric(fixedPenalty/1000, "fixed-rto-rtt-penalty-s")
}

func BenchmarkAblationPageRemap(b *testing.B) {
	var saving float64
	for i := 0; i < b.N; i++ {
		before, _ := ablationPoint(b, nil, nil)
		after, _ := ablationPoint(b, nil, func(rc *renonfs.RigConfig) {
			rc.ServerPageRemap = true
		})
		saving = before - after
	}
	b.ReportMetric(saving, "rtt-saving-ms")
}

func BenchmarkAblationTxInterrupt(b *testing.B) {
	var saving float64
	for i := 0; i < b.N; i++ {
		before, _ := ablationPoint(b, nil, nil)
		after, _ := ablationPoint(b, nil, func(rc *renonfs.RigConfig) {
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

func BenchmarkFutureWork(b *testing.B) {
	var boundRatio float64
	for i := 0; i < b.N; i++ {
		tabs, err := renonfs.RunExperiment("futurework", renonfs.ExpConfig{Quick: true, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		// How close leases get to the unsafe noconsist bound on
		// Create-Delete 100K (1.0 = exactly the bound).
		cd := tabs[1]
		boundRatio = cellF(b, cd, 1, 1) / cellF(b, cd, 2, 1)
	}
	b.ReportMetric(boundRatio, "leases-vs-bound")
}

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
