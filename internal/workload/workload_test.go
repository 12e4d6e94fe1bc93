package workload

import (
	"math"
	"testing"
	"time"

	"renonfs/internal/client"
	"renonfs/internal/memfs"
	"renonfs/internal/netsim"
	"renonfs/internal/nfsproto"
	"renonfs/internal/server"
	"renonfs/internal/sim"
	"renonfs/internal/transport"
)

type rig struct {
	env *sim.Env
	tb  *netsim.Testbed
	srv *server.Server
	fs  *memfs.FS
}

func newRig(t *testing.T, seed int64, topo netsim.Topology, withDisk bool) *rig {
	t.Helper()
	env := sim.New(seed)
	t.Cleanup(env.Close)
	tb := netsim.Build(env, topo, netsim.NodeConfig{}, netsim.NodeConfig{})
	var disk *memfs.Disk
	if withDisk {
		disk = memfs.NewRD53(env, "server.rd53")
	}
	fs := memfs.New(1, disk, func() nfsproto.Time {
		now := env.Now()
		return nfsproto.Time{Sec: uint32(now / time.Second), USec: uint32(now % time.Second / time.Microsecond)}
	})
	srv := server.New(fs, server.Reno())
	srv.AttachNode(tb.Server)
	srv.ServeUDP(server.NFSPort)
	return &rig{env: env, tb: tb, srv: srv, fs: fs}
}

var nextPort = 5000

func (r *rig) udpTransport(cfg transport.UDPConfig) *transport.UDP {
	nextPort++
	return transport.NewUDP(r.tb.Client, nextPort, r.tb.Server.ID, server.NFSPort, cfg)
}

func (r *rig) mount(opts client.Options) *client.Mount {
	tr := r.udpTransport(transport.DynamicUDP())
	return client.NewMount(r.tb.Client, tr, r.srv.RootFH(), opts)
}

func TestNhfsstoneLookupLoad(t *testing.T) {
	r := newRig(t, 1, netsim.TopoLAN, false)
	var res *NhfsstoneResult
	r.env.Spawn("bench", func(p *sim.Proc) {
		nh := &Nhfsstone{
			Cfg: NhfsstoneConfig{
				Mix: DefaultLookupMix(), Rate: 20, Procs: 4,
				Duration: 30 * time.Second, Warmup: 5 * time.Second,
				NumFiles: 30, FileSize: 8192,
			},
			Tr:   r.udpTransport(transport.DynamicUDP()),
			Root: r.srv.RootFH(),
		}
		if err := nh.Preload(p); err != nil {
			t.Errorf("preload: %v", err)
			return
		}
		res = nh.Run(p)
	})
	r.env.Run(5 * time.Minute)
	if res == nil {
		t.Fatal("benchmark never finished")
	}
	if res.Achieved < 15 || res.Achieved > 25 {
		t.Fatalf("achieved = %.1f rpc/s, want ~20", res.Achieved)
	}
	rtt := res.RTT[nfsproto.ProcLookup]
	if rtt.Count < 300 {
		t.Fatalf("lookup samples = %d", rtt.Count)
	}
	if rtt.Mean() <= 0 || rtt.Mean() > 100 {
		t.Fatalf("LAN lookup mean RTT = %.2f ms", rtt.Mean())
	}
}

func TestNhfsstoneReadMixMovesData(t *testing.T) {
	r := newRig(t, 2, netsim.TopoLAN, false)
	var res *NhfsstoneResult
	r.env.Spawn("bench", func(p *sim.Proc) {
		nh := &Nhfsstone{
			Cfg: NhfsstoneConfig{
				Mix: ReadLookupMix(), Rate: 10, Procs: 4,
				Duration: 30 * time.Second, Warmup: 2 * time.Second,
				NumFiles: 20, FileSize: 8192,
			},
			Tr:   r.udpTransport(transport.DynamicUDP()),
			Root: r.srv.RootFH(),
		}
		if err := nh.Preload(p); err != nil {
			t.Errorf("preload: %v", err)
			return
		}
		res = nh.Run(p)
	})
	r.env.Run(5 * time.Minute)
	if res == nil {
		t.Fatal("benchmark never finished")
	}
	if res.ReadRate() <= 1 {
		t.Fatalf("read rate = %.2f", res.ReadRate())
	}
	// Reads (6 fragments of data) must be slower than lookups.
	if res.RTT[nfsproto.ProcRead].Mean() <= res.RTT[nfsproto.ProcLookup].Mean() {
		t.Fatalf("read RTT %.2f <= lookup RTT %.2f",
			res.RTT[nfsproto.ProcRead].Mean(), res.RTT[nfsproto.ProcLookup].Mean())
	}
}

func TestAndrewBenchmarkRuns(t *testing.T) {
	r := newRig(t, 3, netsim.TopoLAN, true)
	files := AndrewTree()
	if len(files) != 280 {
		t.Fatalf("tree = %d files", len(files))
	}
	if tb := TreeBytes(files); tb < 600_000 || tb > 1_200_000 {
		t.Fatalf("tree bytes = %d", tb)
	}
	if err := PreloadServerTree(r.fs, files); err != nil {
		t.Fatal(err)
	}
	m := r.mount(client.Reno())
	var res *AndrewResult
	var runErr error
	r.env.Spawn("mab", func(p *sim.Proc) {
		res, runErr = RunAndrew(p, m, files)
	})
	r.env.Run(4 * time.Hour)
	if runErr != nil {
		t.Fatal(runErr)
	}
	if res == nil {
		t.Fatal("benchmark never finished")
	}
	for i, pt := range res.PhaseTimes {
		if pt <= 0 {
			t.Fatalf("phase %d time = %v", i+1, pt)
		}
	}
	// Phase V (compiles) dominates on a 0.9 MIPS client.
	if res.PhaseTimes[4] < res.PhaseI_IV() {
		t.Fatalf("phase V (%v) should dominate I-IV (%v) on a MicroVAXII", res.PhaseTimes[4], res.PhaseI_IV())
	}
	if res.RPC.Calls[nfsproto.ProcLookup] == 0 || res.RPC.Calls[nfsproto.ProcWrite] == 0 ||
		res.RPC.Calls[nfsproto.ProcRead] == 0 || res.RPC.Calls[nfsproto.ProcGetattr] == 0 {
		t.Fatalf("RPC counts: %v", res.RPC.Calls)
	}
}

// TestAndrewTable3Shape reproduces the orderings of Table 3 at test scale:
// Reno does fewest lookups (name cache), most reads (it re-reads its own
// writes);
// Ultrix does most lookups and writes; noconsist does fewest writes.
func TestAndrewTable3Shape(t *testing.T) {
	files := AndrewTree()
	counts := func(opts client.Options, seed int64) client.Stats {
		r := newRig(t, seed, netsim.TopoLAN, true)
		if err := PreloadServerTree(r.fs, files); err != nil {
			t.Fatal(err)
		}
		m := r.mount(opts)
		var res *AndrewResult
		var runErr error
		r.env.Spawn("mab", func(p *sim.Proc) {
			res, runErr = RunAndrew(p, m, files)
		})
		r.env.Run(4 * time.Hour)
		if runErr != nil || res == nil {
			t.Fatalf("%s: %v", opts.Name, runErr)
		}
		return res.RPC
	}
	reno := counts(client.Reno(), 10)
	noc := counts(client.RenoNoConsist(), 11)
	ultrix := counts(client.Ultrix(), 12)

	lk := nfsproto.ProcLookup
	rd := nfsproto.ProcRead
	wr := nfsproto.ProcWrite
	if !(ultrix.Calls[lk] > 3*reno.Calls[lk]/2) {
		t.Errorf("lookups: ultrix=%d reno=%d; want ultrix >> reno", ultrix.Calls[lk], reno.Calls[lk])
	}
	if !(reno.Calls[rd] > ultrix.Calls[rd]) {
		t.Errorf("reads: reno=%d ultrix=%d; want reno > ultrix", reno.Calls[rd], ultrix.Calls[rd])
	}
	if !(noc.Calls[rd] <= ultrix.Calls[rd]) {
		t.Errorf("reads: noconsist=%d ultrix=%d; want noconsist <= ultrix", noc.Calls[rd], ultrix.Calls[rd])
	}
	if !(ultrix.Calls[wr] > reno.Calls[wr]) {
		t.Errorf("writes: ultrix=%d reno=%d; want ultrix > reno", ultrix.Calls[wr], reno.Calls[wr])
	}
	if !(noc.Calls[wr] < reno.Calls[wr]) {
		t.Errorf("writes: noconsist=%d reno=%d; want noconsist < reno", noc.Calls[wr], reno.Calls[wr])
	}
}

func TestCreateDeleteLocalVsNFS(t *testing.T) {
	r := newRig(t, 4, netsim.TopoLAN, true)
	// Local filesystem on the client's own disk.
	localDisk := memfs.NewRD53(r.env, "client.rd53")
	localMemfs := memfs.New(2, localDisk, nil)
	local := NewLocalFS(r.env, localMemfs)

	wtOpts := client.Reno()
	wtOpts.Policy = client.WriteThrough
	wtOpts.Name = "write-thru"
	wt := r.mount(wtOpts)
	noc := r.mount(client.RenoNoConsist())

	var localRes, wtRes, nocRes *CreateDeleteResult
	var err error
	r.env.Spawn("cd", func(p *sim.Proc) {
		localRes, err = RunCreateDelete(p, local, "local", 102400, 5)
		if err != nil {
			t.Errorf("local: %v", err)
			return
		}
		local.WaitIdle(p)
		wtRes, err = RunCreateDelete(p, MountFS{wt}, "wt", 102400, 5)
		if err != nil {
			t.Errorf("wt: %v", err)
			return
		}
		nocRes, err = RunCreateDelete(p, MountFS{noc}, "noc", 102400, 5)
		if err != nil {
			t.Errorf("noc: %v", err)
		}
	})
	r.env.Run(4 * time.Hour)
	if localRes == nil || wtRes == nil || nocRes == nil {
		t.Fatal("benchmarks incomplete")
	}
	// Table 5 shape: local < write-through; noconsist << write-through.
	if !(localRes.MeanMS < wtRes.MeanMS) {
		t.Errorf("local %.0fms >= write-through %.0fms", localRes.MeanMS, wtRes.MeanMS)
	}
	if !(nocRes.MeanMS*3 < wtRes.MeanMS) {
		t.Errorf("noconsist %.0fms not dramatically faster than write-through %.0fms", nocRes.MeanMS, wtRes.MeanMS)
	}
}

func TestCreateDeleteZeroData(t *testing.T) {
	r := newRig(t, 5, netsim.TopoLAN, true)
	m := r.mount(client.Reno())
	var res *CreateDeleteResult
	var err error
	r.env.Spawn("cd", func(p *sim.Proc) {
		res, err = RunCreateDelete(p, MountFS{m}, "zero", 0, 5)
	})
	r.env.Run(time.Hour)
	if err != nil || res == nil {
		t.Fatalf("err=%v res=%v", err, res)
	}
	if res.MeanMS <= 0 || res.MeanMS > 2000 {
		t.Fatalf("no-data iteration = %.0f ms", res.MeanMS)
	}
}

func TestNhfsstoneFullMix(t *testing.T) {
	r := newRig(t, 8, netsim.TopoLAN, true)
	var res *NhfsstoneResult
	r.env.Spawn("bench", func(p *sim.Proc) {
		nh := &Nhfsstone{
			Cfg: NhfsstoneConfig{
				Mix: FullMix(), Rate: 15, Procs: 4,
				Duration: 40 * time.Second, Warmup: 5 * time.Second,
				NumFiles: 20, FileSize: 8192,
			},
			Tr:   r.udpTransport(transport.DynamicUDP()),
			Root: r.srv.RootFH(),
		}
		if err := nh.Preload(p); err != nil {
			t.Errorf("preload: %v", err)
			return
		}
		res = nh.Run(p)
	})
	r.env.Run(10 * time.Minute)
	if res == nil {
		t.Fatal("run did not finish")
	}
	if res.Failures != 0 {
		t.Fatalf("failures = %d", res.Failures)
	}
	// Every op class in the mix must actually have been exercised.
	for _, proc := range []uint32{
		nfsproto.ProcGetattr, nfsproto.ProcLookup, nfsproto.ProcRead,
		nfsproto.ProcWrite, nfsproto.ProcReadlink, nfsproto.ProcReaddir,
		nfsproto.ProcStatfs, nfsproto.ProcCreate,
	} {
		if res.RTT[proc] == nil || res.RTT[proc].Count == 0 {
			t.Errorf("proc %s never issued", nfsproto.ProcName(proc))
		}
	}
	// Writes hit the server's disk synchronously, so they are the slowest
	// frequent op.
	if res.RTT[nfsproto.ProcWrite].Mean() <= res.RTT[nfsproto.ProcLookup].Mean() {
		t.Errorf("write RTT %.1f <= lookup RTT %.1f",
			res.RTT[nfsproto.ProcWrite].Mean(), res.RTT[nfsproto.ProcLookup].Mean())
	}
	if res.Achieved < 10 || res.Achieved > 20 {
		t.Errorf("achieved = %.1f, offered 15", res.Achieved)
	}
}

func TestLongNamesDefeatServerNameCache(t *testing.T) {
	// Appendix caveat 1: Nhfsstone's long names defeat a 31-char name
	// cache, biasing against servers with good caches.
	hitsFor := func(long bool) int {
		r := newRig(t, 6, netsim.TopoLAN, false)
		var done bool
		r.env.Spawn("bench", func(p *sim.Proc) {
			nh := &Nhfsstone{
				Cfg: NhfsstoneConfig{
					Mix: DefaultLookupMix(), Rate: 20, Procs: 2,
					Duration: 20 * time.Second, Warmup: time.Second,
					NumFiles: 20, FileSize: 1024, LongNames: long,
				},
				Tr:   r.udpTransport(transport.DynamicUDP()),
				Root: r.srv.RootFH(),
			}
			if err := nh.Preload(p); err != nil {
				t.Errorf("preload: %v", err)
				return
			}
			nh.Run(p)
			done = true
		})
		r.env.Run(5 * time.Minute)
		if !done {
			t.Fatal("did not finish")
		}
		return r.srv.NameCacheStats().Hits
	}
	short := hitsFor(false)
	long := hitsFor(true)
	if long >= short/4 {
		t.Fatalf("name cache hits: short=%d long=%d; long names should defeat the cache", short, long)
	}
}

// TestNhfsstonePreloadRejectsRate: a rate that is not positive would pace
// every process with zero sleeps, a silent closed loop, so Preload refuses it
// before it sends anything.
func TestNhfsstonePreloadRejectsRate(t *testing.T) {
	for _, rate := range []float64{0, -5, math.NaN()} {
		r := newRig(t, 1, netsim.TopoLAN, false)
		tr := r.udpTransport(transport.DynamicUDP())
		var err error
		r.env.Spawn("preload", func(p *sim.Proc) {
			nh := &Nhfsstone{Cfg: NhfsstoneConfig{Mix: DefaultLookupMix(), Rate: rate}, Tr: tr, Root: r.srv.RootFH()}
			err = nh.Preload(p)
		})
		r.env.Run(time.Minute)
		if err == nil {
			t.Errorf("Preload at rate %v: no error", rate)
		}
		if n := tr.Stats().Calls; n != 0 {
			t.Errorf("Preload at rate %v sent %d calls", rate, n)
		}
	}
}
