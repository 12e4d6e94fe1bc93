package renonfs

import (
	"fmt"
	"time"

	"renonfs/internal/metrics"
	"renonfs/internal/netsim"
	"renonfs/internal/nfsproto"
	"renonfs/internal/sim"
	"renonfs/internal/stats"
	"renonfs/internal/transport"
	"renonfs/internal/workload"
)

// ExpConfig scales the experiment harness.
type ExpConfig struct {
	// Quick shrinks durations and point counts for tests and benches. The
	// full configuration uses longer windows (the paper's points are
	// 30-minute runs; virtual minutes are cheap but not free).
	Quick bool
	// Seed drives all randomness.
	Seed int64
}

func (c ExpConfig) seed() int64 {
	if c.Seed == 0 {
		return 1991
	}
	return c.Seed
}

// window returns the per-point measurement duration.
func (c ExpConfig) window() sim.Time {
	if c.Quick {
		return 20 * time.Second
	}
	return 2 * time.Minute
}

func (c ExpConfig) warmup() sim.Time {
	if c.Quick {
		return 5 * time.Second
	}
	return 20 * time.Second
}

// Experiment regenerates one table or figure from the paper.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg ExpConfig) []*stats.Table
}

// Experiments returns the full registry in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"graph1", "Graph #1: avg lookup RTT vs load, same LAN, 100% lookup mix", expGraphRTT(TopoLAN, workload.DefaultLookupMix(), nfsproto.ProcLookup, lanLookupLoads)},
		{"graph2", "Graph #2: avg RTT vs load, same LAN, 50/50 read/lookup mix", expGraphRTT(TopoLAN, workload.ReadLookupMix(), nfsproto.ProcRead, lanReadLoads)},
		{"graph3", "Graph #3: avg lookup RTT vs load, token ring + 2 routers", expGraphRTT(TopoRing, workload.DefaultLookupMix(), nfsproto.ProcLookup, ringLookupLoads)},
		{"graph4", "Graph #4: avg RTT vs load, token ring, 50/50 read/lookup mix", expGraphRTT(TopoRing, workload.ReadLookupMix(), nfsproto.ProcRead, ringReadLoads)},
		{"graph5", "Graph #5: avg lookup RTT vs load, 56Kbps link + 3 routers", expGraphRTT(TopoSlow, workload.DefaultLookupMix(), nfsproto.ProcLookup, slowLookupLoads)},
		{"table1", "Table #1: achieved read rates per transport and topology", expTable1},
		{"graph6", "Graph #6: server CPU utilization, UDP vs TCP, read mix", expGraph6},
		{"graph7", "Graph #7: sample RTT and RTO=A+4D trace for read RPCs", expGraph7},
		{"graph8", "Graph #8: Reno vs Ultrix server, 100% lookup mix", expServerCompare(workload.DefaultLookupMix(), nfsproto.ProcLookup)},
		{"graph9", "Graph #9: Reno vs Ultrix server, 50/50 read/lookup mix", expServerCompare(workload.ReadLookupMix(), nfsproto.ProcRead)},
		{"profile3", "§3: server CPU profile and NIC-path tuning savings", expProfile3},
		{"table2", "Table #2: Modified Andrew Benchmark, MicroVAXII client (sec)", expTable2},
		{"table3", "Table #3: Modified Andrew Benchmark RPC counts", expTable3},
		{"table4", "Table #4: Modified Andrew Benchmark, DS3100 client vs servers (sec)", expTable4},
		{"table5", "Table #5: Create-Delete benchmark (msec)", expTable5},
		{"appendixA", "Appendix: Nhfsstone caveats (long names, empty files)", expAppendixA},
		{"ablations", "§4 ablations: RTO factor, per-tick recalculation", expAblations},
		{"futurework", "Future Directions: leases, readdir+lookup, adaptive transfer size", expFutureWork},
		{"saturation", "Server characterization: multi-client load to CPU saturation [Keith90]", expSaturation},
	}
}

// RunExperiment runs one experiment by id.
func RunExperiment(id string, cfg ExpConfig) ([]*stats.Table, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e.Run(cfg), nil
		}
	}
	return nil, fmt.Errorf("renonfs: unknown experiment %q", id)
}

// Load points per topology (aggregate RPC/s offered).
var (
	lanLookupLoads  = []float64{10, 20, 30, 40, 50}
	lanReadLoads    = []float64{4, 8, 12, 16, 20}
	ringLookupLoads = []float64{5, 10, 15, 20, 25}
	ringReadLoads   = []float64{2, 4, 6, 8, 10}
	slowLookupLoads = []float64{1, 2, 3, 4, 5}
)

func quickLoads(loads []float64) []float64 {
	return []float64{loads[0], loads[len(loads)/2], loads[len(loads)-1]}
}

// runNhfsstone runs one load point on a fresh rig and returns the result
// plus the rig (for CPU inspection). The rig is closed before returning.
func runNhfsstone(cfg ExpConfig, topo Topology, kind TransportKind, mix map[uint32]float64,
	rate float64, srvOpts RigConfig, tune func(*workload.NhfsstoneConfig)) (*workload.NhfsstoneResult, float64) {

	rigCfg := srvOpts
	rigCfg.Topology = topo
	if rigCfg.Seed == 0 {
		rigCfg.Seed = cfg.seed() + int64(kind)*101 + int64(rate*7)
	}
	r := NewRig(rigCfg)
	defer r.Close()
	var res *workload.NhfsstoneResult
	var cpu float64
	r.Env.Spawn("bench", func(p *sim.Proc) {
		tr, err := r.DialTransport(p, kind)
		if err != nil {
			return
		}
		nh := &workload.Nhfsstone{
			Cfg: workload.NhfsstoneConfig{
				Mix: mix, Rate: rate, Procs: 4,
				Duration: cfg.window(), Warmup: cfg.warmup(),
				NumFiles: 40, FileSize: 8192,
				OnMeasure: func() { r.Net.Server.ResetProfile() },
			},
			Tr:   tr,
			Root: r.Server.RootFH(),
		}
		if tune != nil {
			tune(&nh.Cfg)
		}
		if err := nh.Preload(p); err != nil {
			return
		}
		res = nh.Run(p)
		cpu = r.Net.Server.CPU.Utilization()
	})
	r.Env.Run(cfg.warmup() + cfg.window() + 20*time.Minute)
	return res, cpu
}

// expGraphRTT builds the Graphs 1-5 runner: avg RTT of the probe proc vs
// offered load, one column per transport.
func expGraphRTT(topo Topology, mix map[uint32]float64, probe uint32, loads []float64) func(ExpConfig) []*stats.Table {
	return func(cfg ExpConfig) []*stats.Table {
		pts := loads
		if cfg.Quick {
			pts = quickLoads(loads)
		}
		kinds := []TransportKind{UDPFixed, UDPDynamic, TCP}
		t := stats.NewTable(fmt.Sprintf("avg %s RTT (ms) vs offered load (RPC/s) — %v", nfsproto.ProcName(probe), topo),
			"load", "udp-fixed", "udp-dyn", "tcp",
			"p99(fixed)", "p99(dyn)", "p99(tcp)", "retries(fixed/dyn/tcp)")
		for _, load := range pts {
			row := []any{load}
			// Tail latency from the log-bucket histograms: under loss the
			// retransmitted calls live orders of magnitude past the mean.
			p99 := []any{}
			var retries [3]int
			for i, k := range kinds {
				res, _ := runNhfsstone(cfg, topo, k, mix, load, RigConfig{}, nil)
				if res == nil || res.RTT[probe] == nil || res.RTT[probe].Count == 0 {
					row = append(row, "-")
					p99 = append(p99, "-")
					continue
				}
				row = append(row, res.RTT[probe].Mean())
				p99 = append(p99, res.Hist[probe].Quantile(99))
				retries[i] = res.Retries
			}
			row = append(row, p99...)
			row = append(row, fmt.Sprintf("%d/%d/%d", retries[0], retries[1], retries[2]))
			t.AddRow(row...)
		}
		return []*stats.Table{t}
	}
}

// expTable1 measures achieved read rates per (transport, topology) under a
// read-heavy offered load.
func expTable1(cfg ExpConfig) []*stats.Table {
	t := stats.NewTable("Table #1: achieved read RPC rates (reads/s)",
		"topology", "offered", "udp-fixed", "udp-dyn", "tcp")
	mix := workload.ReadLookupMix()
	for _, tc := range []struct {
		topo    Topology
		offered float64
	}{
		{TopoLAN, 24},
		{TopoRing, 16},
		{TopoSlow, 4},
	} {
		row := []any{tc.topo.String(), tc.offered}
		for _, k := range []TransportKind{UDPFixed, UDPDynamic, TCP} {
			res, _ := runNhfsstone(cfg, tc.topo, k, mix, tc.offered, RigConfig{}, func(nc *workload.NhfsstoneConfig) {
				if tc.topo == TopoSlow {
					nc.NumFiles = 10 // preload over 56K is slow
					nc.Procs = 10    // saturate the link, not the generator
				}
			})
			if res == nil {
				row = append(row, "-")
				continue
			}
			row = append(row, fmt.Sprintf("%.2f", res.ReadRate()))
		}
		t.AddRow(row...)
	}
	return []*stats.Table{t}
}

// expGraph6 compares server CPU utilization for UDP vs TCP under the read
// mix.
func expGraph6(cfg ExpConfig) []*stats.Table {
	loads := lanReadLoads
	if cfg.Quick {
		loads = quickLoads(loads)
	}
	t := stats.NewTable("Graph #6: server CPU utilization (%) vs read-mix load",
		"load", "udp", "tcp", "tcp/udp")
	for _, load := range loads {
		_, cpuUDP := runNhfsstone(cfg, TopoLAN, UDPDynamic, workload.ReadLookupMix(), load, RigConfig{}, nil)
		_, cpuTCP := runNhfsstone(cfg, TopoLAN, TCP, workload.ReadLookupMix(), load, RigConfig{}, nil)
		ratio := 0.0
		if cpuUDP > 0 {
			ratio = cpuTCP / cpuUDP
		}
		t.AddRow(load, cpuUDP*100, cpuTCP*100, fmt.Sprintf("%.2f", ratio))
	}
	return []*stats.Table{t}
}

// expGraph7 traces per-request RTT and the RTO=A+4D estimate for reads
// over the 56 Kbit/s path, where RTTs range over seconds and the estimator
// has real work to do (the paper's trace shows read peaks near 1 s).
func expGraph7(cfg ExpConfig) []*stats.Table {
	rigCfg := RigConfig{Seed: cfg.seed(), Topology: TopoSlow}
	r := NewRig(rigCfg)
	defer r.Close()
	// The plot is the transport's own event stream: every READ reply, when
	// it arrived, with its RTT and the RTO its transmission went out with.
	type point struct {
		at  sim.Time
		rep metrics.Reply
	}
	var trace []point
	var start sim.Time
	r.Env.Spawn("bench", func(p *sim.Proc) {
		ucfg := transport.DynamicUDP()
		ucfg.Tracer = metrics.FuncTracer(func(ev metrics.Event) {
			if rep, ok := ev.(metrics.Reply); ok && rep.Proc == nfsproto.ProcRead {
				trace = append(trace, point{r.Env.Now(), rep})
			}
		})
		tr := r.DialUDPConfig(ucfg)
		nh := &workload.Nhfsstone{
			Cfg: workload.NhfsstoneConfig{
				Mix:  workload.ReadLookupMix(),
				Rate: 1.5, Procs: 4,
				Duration: 4 * cfg.window(), Warmup: cfg.warmup(),
				NumFiles: 10, FileSize: 8192,
			},
			Tr:   tr,
			Root: r.Server.RootFH(),
		}
		if err := nh.Preload(p); err != nil {
			return
		}
		start = p.Now()
		nh.Run(p)
	})
	r.Env.Run(cfg.warmup() + cfg.window() + 20*time.Minute)
	t := stats.NewTable("Graph #7: read RPC trace (RTT and RTO = A+4D)",
		"t(s)", "rtt(ms)", "rto(ms)")
	maxRows := 60
	if len(trace) < maxRows {
		maxRows = len(trace)
	}
	for i := 0; i < maxRows; i++ {
		tp := trace[i]
		t.AddRow(fmt.Sprintf("%.1f", float64(tp.at-start)/1e9), tp.rep.RTT, tp.rep.RTO)
	}
	return []*stats.Table{t}
}

// expServerCompare builds the Graphs 8-9 runner: Reno vs Ultrix server
// under the same load and transport.
func expServerCompare(mix map[uint32]float64, probe uint32) func(ExpConfig) []*stats.Table {
	return func(cfg ExpConfig) []*stats.Table {
		loads := ringLookupLoads // same magnitudes work on the LAN
		if probe == nfsproto.ProcRead {
			loads = lanReadLoads
		} else {
			loads = lanLookupLoads
		}
		if cfg.Quick {
			loads = quickLoads(loads)
		}
		t := stats.NewTable(fmt.Sprintf("Reno vs Ultrix server: avg %s RTT (ms), same LAN", nfsproto.ProcName(probe)),
			"load", "reno", "ultrix", "ultrix/reno")
		for _, load := range loads {
			// A deep subtree keeps the server buffer cache populated so
			// the linear-scan discipline has something to scan through.
			deep := func(nc *workload.NhfsstoneConfig) { nc.NumFiles = 120 }
			resR, _ := runNhfsstone(cfg, TopoLAN, UDPDynamic, mix, load, RigConfig{ServerOpts: RenoServer()}, deep)
			resU, _ := runNhfsstone(cfg, TopoLAN, UDPDynamic, mix, load, RigConfig{ServerOpts: UltrixServer()}, deep)
			if resR == nil || resU == nil {
				continue
			}
			rr := resR.RTT[probe].Mean()
			ru := resU.RTT[probe].Mean()
			ratio := 0.0
			if rr > 0 {
				ratio = ru / rr
			}
			t.AddRow(load, rr, ru, fmt.Sprintf("%.2f", ratio))
		}
		return []*stats.Table{t}
	}
}

// expProfile3 reproduces the §3 study: the server CPU profile under a
// read-heavy load, before and after the NIC-path tuning (page-remap TX and
// no TX interrupts), with the total saving.
func expProfile3(cfg ExpConfig) []*stats.Table {
	run := func(tuned bool) (map[string]sim.Time, sim.Time, []netsim.ProfileBucket) {
		rigCfg := RigConfig{
			Seed: cfg.seed(), Topology: TopoLAN,
			ServerPageRemap: tuned, ServerNoTxIntr: tuned,
		}
		r := NewRig(rigCfg)
		defer r.Close()
		var buckets []netsim.ProfileBucket
		var busy sim.Time
		r.Env.Spawn("bench", func(p *sim.Proc) {
			tr, _ := r.DialTransport(p, UDPDynamic)
			nh := &workload.Nhfsstone{
				Cfg: workload.NhfsstoneConfig{
					Mix:  workload.ReadLookupMix(),
					Rate: 16, Procs: 4,
					Duration: cfg.window(), Warmup: cfg.warmup(),
					NumFiles: 30, FileSize: 8192,
					OnMeasure: func() { r.Net.Server.ResetProfile() },
				},
				Tr:   tr,
				Root: r.Server.RootFH(),
			}
			if err := nh.Preload(p); err != nil {
				return
			}
			nh.Run(p)
			buckets = r.Net.Server.Profile()
			busy = r.Net.Server.CPU.BusyTime()
		})
		r.Env.Run(cfg.warmup() + cfg.window() + 20*time.Minute)
		m := make(map[string]sim.Time)
		for _, b := range buckets {
			m[b.Name] = b.Time
		}
		return m, busy, buckets
	}
	_, busyBefore, bucketsBefore := run(false)
	_, busyAfter, bucketsAfter := run(true)

	t1 := stats.NewTable("§3: server CPU profile before tuning (read mix)", "bucket", "ms", "% of busy")
	for _, b := range bucketsBefore {
		t1.AddRow(b.Name, b.Time, fmt.Sprintf("%.1f", 100*float64(b.Time)/float64(busyBefore)))
	}
	t2 := stats.NewTable("§3: server CPU profile after page-remap TX + no TX interrupts", "bucket", "ms", "% of busy")
	for _, b := range bucketsAfter {
		t2.AddRow(b.Name, b.Time, fmt.Sprintf("%.1f", 100*float64(b.Time)/float64(busyAfter)))
	}
	saving := 0.0
	if busyBefore > 0 {
		saving = 100 * (1 - float64(busyAfter)/float64(busyBefore))
	}
	t3 := stats.NewTable("§3: tuning summary", "metric", "value")
	t3.AddRow("CPU busy before (ms)", busyBefore)
	t3.AddRow("CPU busy after (ms)", busyAfter)
	t3.AddRow("saving (%)", fmt.Sprintf("%.1f", saving))
	t3.AddRow("paper reports", "~12%")
	return []*stats.Table{t1, t2, t3}
}

// expAblations turns the §4 timer knobs one at a time under the read mix
// and reports retry rates and RTTs.
func expAblations(cfg ExpConfig) []*stats.Table {
	// Two regimes: the loaded LAN (where the paper first saw A+2D's 2-4x
	// read retry rate) and the 56K path (where the timer policy decides
	// throughput).
	vs := rtoVariants()
	lan := stats.NewTable("§4 ablations: loaded LAN, read-heavy mix",
		"variant", "read RTT(ms)", "read rate/s", "read retries", "all retries")
	for _, v := range vs {
		lan.AddRow(ablationRun(cfg, TopoLAN, v.name, v.cfg, 28, 8)...)
	}
	// On the 56K path an 8 KB read reply takes longer than the 1 s initial
	// RTO, so every read's first transmission times out and Karn's rule
	// drops its sample: the read estimator is never seeded, and the knobs
	// that shape it (BigFactor, RecalcAtSendOnly) cannot act. Only the
	// paper's transport and the classic fixed RTO differ there.
	slow := stats.NewTable("§4 ablations: 56Kbps link, read-heavy mix",
		"variant", "read RTT(ms)", "read rate/s", "read retries", "all retries")
	for _, v := range []rtoVariant{vs[0], vs[len(vs)-1]} {
		slow.AddRow(ablationRun(cfg, TopoSlow, v.name, v.cfg, 1.5, 6)...)
	}
	return []*stats.Table{lan, slow}
}

// rtoVariant names one §4 transport configuration under ablation.
type rtoVariant struct {
	name string
	cfg  transport.UDPConfig
}

// rtoVariants lists the paper's transport first and the classic fixed RTO
// last, with one knob flipped per variant in between.
func rtoVariants() []rtoVariant {
	mk := func(f func(*transport.UDPConfig)) transport.UDPConfig {
		c := transport.DynamicUDP()
		f(&c)
		return c
	}
	return []rtoVariant{
		{"A+4D, per-tick recalc (paper)", transport.DynamicUDP()},
		{"A+2D for big RPCs", mk(func(c *transport.UDPConfig) { c.BigFactor = 2 })},
		{"RTO fixed at send time", mk(func(c *transport.UDPConfig) { c.RecalcAtSendOnly = true })},
		{"fixed 1s RTO (classic)", transport.FixedUDP()},
	}
}

// ablationRun executes one read-heavy Nhfsstone point and returns a table
// row: name, read RTT, read rate, read retries, total retries.
func ablationRun(cfg ExpConfig, topo Topology, name string, ucfg transport.UDPConfig, rate float64, procs int) []any {
	// The server gets a disk and a working set larger than its buffer
	// cache: read RTTs then mix cache hits with 30-100 ms disk reads, the
	// high-variance distribution whose tails the RTO factor has to cover
	// (the paper's trace data showed read peaks near 1 s for this reason).
	rigCfg := RigConfig{Seed: cfg.seed(), Topology: topo, ServerDisk: true}
	r := NewRig(rigCfg)
	defer r.Close()
	numFiles := 320
	if topo == TopoSlow {
		numFiles = 8 // preloading hundreds of files over 56K is hopeless
	}
	var res *workload.NhfsstoneResult
	var readRetries int
	r.Env.Spawn("bench", func(p *sim.Proc) {
		tr := r.DialUDPConfig(ucfg)
		nh := &workload.Nhfsstone{
			Cfg: workload.NhfsstoneConfig{
				Mix:  map[uint32]float64{nfsproto.ProcRead: 0.9, nfsproto.ProcLookup: 0.1},
				Rate: rate, Procs: procs,
				Duration: 3 * cfg.window(), Warmup: cfg.warmup(),
				NumFiles: numFiles, FileSize: 8192,
			},
			Tr:   tr,
			Root: r.Server.RootFH(),
		}
		if err := nh.Preload(p); err != nil {
			return
		}
		res = nh.Run(p)
		readRetries = tr.Stats().RetryClass[transport.ClassRead]
	})
	r.Env.Run(cfg.warmup() + 3*cfg.window() + 40*time.Minute)
	if res == nil || res.RTT[nfsproto.ProcRead] == nil {
		return []any{name, "-", "-", "-", "-"}
	}
	return []any{name, res.RTT[nfsproto.ProcRead].Mean(),
		fmt.Sprintf("%.2f", res.ReadRate()), readRetries, res.Retries}
}
