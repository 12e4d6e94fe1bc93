package renonfs

import (
	"fmt"
	"time"

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
		{"graph1", "Graph #1: avg lookup RTT vs load, same LAN, 100% lookup mix", tabulate(expGraphRTT(TopoLAN, workload.DefaultLookupMix(), nfsproto.ProcLookup, lanLookupLoads))},
		{"graph2", "Graph #2: avg RTT vs load, same LAN, 50/50 read/lookup mix", tabulate(expGraphRTT(TopoLAN, workload.ReadLookupMix(), nfsproto.ProcRead, lanReadLoads))},
		{"graph3", "Graph #3: avg lookup RTT vs load, token ring + 2 routers", tabulate(expGraphRTT(TopoRing, workload.DefaultLookupMix(), nfsproto.ProcLookup, ringLookupLoads))},
		{"graph4", "Graph #4: avg RTT vs load, token ring, 50/50 read/lookup mix", tabulate(expGraphRTT(TopoRing, workload.ReadLookupMix(), nfsproto.ProcRead, ringReadLoads))},
		{"graph5", "Graph #5: avg lookup RTT vs load, 56Kbps link + 3 routers", tabulate(expGraphRTT(TopoSlow, workload.DefaultLookupMix(), nfsproto.ProcLookup, slowLookupLoads))},
		{"table1", "Table #1: achieved read rates per transport and topology", tabulate(expTable1)},
		{"graph6", "Graph #6: server CPU utilization, UDP vs TCP, read mix", tabulate(expGraph6)},
		{"graph7", "Graph #7: sample RTT and RTO=A+4D trace for read RPCs", tabulate(expGraph7)},
		{"graph8", "Graph #8: Reno vs Ultrix server, 100% lookup mix", tabulate(expServerCompare(workload.DefaultLookupMix(), nfsproto.ProcLookup))},
		{"graph9", "Graph #9: Reno vs Ultrix server, 50/50 read/lookup mix", tabulate(expServerCompare(workload.ReadLookupMix(), nfsproto.ProcRead))},
		{"profile3", "§3: server CPU profile and NIC-path tuning savings", tabulate(expProfile3)},
		{"table2", "Table #2: Modified Andrew Benchmark, MicroVAXII client (sec)", tabulate(expTable2)},
		{"table3", "Table #3: Modified Andrew Benchmark RPC counts", tabulate(expTable3)},
		{"table4", "Table #4: Modified Andrew Benchmark, DS3100 client vs servers (sec)", tabulate(expTable4)},
		{"table5", "Table #5: Create-Delete benchmark (msec)", tabulate(expTable5)},
		{"appendixA", "Appendix: Nhfsstone caveats (long names, empty files)", tabulate(expAppendixA)},
		{"ablations", "§4 ablations: RTO factor, per-tick recalculation", tabulate(expAblations)},
		{"futurework", "Future Directions: leases, readdir+lookup, adaptive transfer size", tabulate(expFutureWork)},
		{"saturation", "Server characterization: multi-client load to CPU saturation [Keith90]", tabulate(expSaturation)},
	}
}

// tabulate joins an experiment's two steps: the measure step returns typed
// results (what the tests read), whose tables method renders them.
func tabulate[R interface{ tables() []*stats.Table }](measure func(ExpConfig) R) func(ExpConfig) []*stats.Table {
	return func(cfg ExpConfig) []*stats.Table { return measure(cfg).tables() }
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

// loads returns the load points to measure: three of them when quick.
func (c ExpConfig) loads(all []float64) []float64 {
	if c.Quick {
		return []float64{all[0], all[len(all)/2], all[len(all)-1]}
	}
	return all
}

// runNhfsstone runs one load point on a fresh rig and returns the result
// (nil if the run did not finish). tune, if set, adjusts the load; done, if
// set, reads the rig the moment the load ends.
func runNhfsstone(cfg ExpConfig, topo Topology, kind TransportKind, mix map[uint32]float64,
	rate float64, srvOpts RigConfig, tune func(*workload.NhfsstoneConfig), done func(*Rig)) *workload.NhfsstoneResult {

	rigCfg := srvOpts
	rigCfg.Topology = topo
	if rigCfg.Seed == 0 {
		rigCfg.Seed = cfg.seed() + int64(kind)*101 + int64(rate*7)
	}
	r := NewRig(rigCfg)
	defer r.Close()
	var res *workload.NhfsstoneResult
	runWorkload(r.Env, "bench", cfg.warmup()+cfg.window()+20*time.Minute, func(p *sim.Proc) {
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
		if done != nil {
			done(r)
		}
	})
	return res
}

// rttKinds are the transports of Graphs 1-5 and Table 1, in column order.
var rttKinds = [3]TransportKind{UDPFixed, UDPDynamic, TCP}

// rttPoint is one run's probe RTTs: N samples (0 if the run did not
// finish), their mean and exact p99 in ms, whether that p99 is defined
// (stats.MinTail samples above its rank), and the transport's retries.
type rttPoint struct {
	N         int
	Mean, P99 float64
	P99OK     bool
	Retries   int
}

func probePoint(res *workload.NhfsstoneResult, probe uint32) rttPoint {
	if res == nil || res.RTT[probe] == nil || res.RTT[probe].Count == 0 {
		return rttPoint{}
	}
	s := res.RTT[probe]
	p99, ok := s.Quantile(99)
	return rttPoint{N: s.Count, Mean: s.Mean(), P99: p99, P99OK: ok, Retries: res.Retries}
}

// rttCurve is one of Graphs 1-5: per load, a point per transport (rttKinds).
type rttCurve struct {
	probe  uint32
	topo   Topology
	Loads  []float64
	Points [][3]rttPoint
}

// expGraphRTT builds the Graphs 1-5 runner: avg RTT of the probe proc vs
// offered load, one column per transport.
func expGraphRTT(topo Topology, mix map[uint32]float64, probe uint32, loads []float64) func(ExpConfig) rttCurve {
	return func(cfg ExpConfig) rttCurve {
		c := rttCurve{probe: probe, topo: topo, Loads: cfg.loads(loads)}
		c.Points = make([][3]rttPoint, len(c.Loads))
		for i, load := range c.Loads {
			for k, kind := range rttKinds {
				c.Points[i][k] = probePoint(runNhfsstone(cfg, topo, kind, mix, load, RigConfig{}, nil, nil), probe)
			}
		}
		return c
	}
}

func (c rttCurve) tables() []*stats.Table {
	t := stats.NewTable(fmt.Sprintf("avg %s RTT (ms) vs offered load (RPC/s) — %v", nfsproto.ProcName(c.probe), c.topo),
		"load", "udp-fixed", "udp-dyn", "tcp",
		"p99(fixed)", "p99(dyn)", "p99(tcp)", "n(fixed/dyn/tcp)", "retries(fixed/dyn/tcp)")
	for i, k := range c.Points {
		row := []any{c.Loads[i]}
		for _, p := range k {
			row = append(row, stats.Fixed(p.Mean, 1, p.N > 0))
		}
		// Exact p99s, "-" when undersampled: under loss the retransmitted
		// calls live orders of magnitude past the mean.
		for _, p := range k {
			row = append(row, stats.Fixed(p.P99, 1, p.P99OK))
		}
		t.AddRow(append(row, fmt.Sprintf("%d/%d/%d", k[0].N, k[1].N, k[2].N),
			fmt.Sprintf("%d/%d/%d", k[0].Retries, k[1].Retries, k[2].Retries))...)
	}
	return []*stats.Table{t}
}

// readRates is Table 1: achieved read RPCs/s per topology and transport
// (rttKinds order); OK is false where the run did not finish.
type readRates []struct {
	Topo    Topology
	Offered float64
	Rate    [3]float64
	OK      [3]bool
}

// expTable1 measures achieved read rates per (transport, topology) under a
// read-heavy offered load.
func expTable1(cfg ExpConfig) readRates {
	mix := workload.ReadLookupMix()
	rates := readRates{{Topo: TopoLAN, Offered: 24}, {Topo: TopoRing, Offered: 16}, {Topo: TopoSlow, Offered: 4}}
	for ri := range rates {
		tc := &rates[ri]
		for i, k := range rttKinds {
			res := runNhfsstone(cfg, tc.Topo, k, mix, tc.Offered, RigConfig{}, func(nc *workload.NhfsstoneConfig) {
				if tc.Topo == TopoSlow {
					nc.NumFiles = 10 // preload over 56K is slow
					nc.Procs = 10    // saturate the link, not the generator
				}
			}, nil)
			if res != nil {
				tc.Rate[i], tc.OK[i] = res.ReadRate(), true
			}
		}
	}
	return rates
}

func (rates readRates) tables() []*stats.Table {
	t := stats.NewTable("Table #1: achieved read RPC rates (reads/s)",
		"topology", "offered", "udp-fixed", "udp-dyn", "tcp")
	for _, r := range rates {
		row := []any{r.Topo.String(), r.Offered}
		for i, rate := range r.Rate {
			row = append(row, stats.Fixed(rate, 2, r.OK[i]))
		}
		t.AddRow(row...)
	}
	return []*stats.Table{t}
}

// cpuCurve is Graph 6: server CPU utilization (fractions) per load.
type cpuCurve []cpuPoint

type cpuPoint struct{ Load, UDP, TCP float64 }

// Ratio is TCP's server CPU over UDP's.
func (p cpuPoint) Ratio() float64 {
	if p.UDP > 0 {
		return p.TCP / p.UDP
	}
	return 0
}

// expGraph6 compares server CPU utilization for UDP vs TCP under the read
// mix.
func expGraph6(cfg ExpConfig) cpuCurve {
	var c cpuCurve
	for _, load := range cfg.loads(lanReadLoads) {
		pt := cpuPoint{Load: load}
		runNhfsstone(cfg, TopoLAN, UDPDynamic, workload.ReadLookupMix(), load, RigConfig{}, nil,
			func(r *Rig) { pt.UDP = r.Net.Server.CPU.Utilization() })
		runNhfsstone(cfg, TopoLAN, TCP, workload.ReadLookupMix(), load, RigConfig{}, nil,
			func(r *Rig) { pt.TCP = r.Net.Server.CPU.Utilization() })
		c = append(c, pt)
	}
	return c
}

func (c cpuCurve) tables() []*stats.Table {
	t := stats.NewTable("Graph #6: server CPU utilization (%) vs read-mix load",
		"load", "udp", "tcp", "tcp/udp")
	for _, p := range c {
		t.AddRow(p.Load, p.UDP*100, p.TCP*100, fmt.Sprintf("%.2f", p.Ratio()))
	}
	return []*stats.Table{t}
}

// rtoTrace is Graph 7: every READ reply the transport saw, when it arrived
// (At, from the start of the measured run) and the RTT and RTO its
// transmission went out with.
type rtoTrace []tracedReply

type tracedReply struct{ At, RTT, RTO sim.Time }

// expGraph7 traces per-request RTT and the RTO=A+4D estimate for reads
// over the 56 Kbit/s path, where RTTs range over seconds and the estimator
// has real work to do (the paper's trace shows read peaks near 1 s).
func expGraph7(cfg ExpConfig) rtoTrace {
	rigCfg := RigConfig{Seed: cfg.seed(), Topology: TopoSlow}
	r := NewRig(rigCfg)
	defer r.Close()
	var trace rtoTrace
	var start sim.Time
	runWorkload(r.Env, "bench", cfg.warmup()+cfg.window()+20*time.Minute, func(p *sim.Proc) {
		ucfg := transport.DynamicUDP()
		ucfg.Tracer = replyTracer(nfsproto.ProcRead, func(rtt, rto sim.Time) {
			trace = append(trace, tracedReply{r.Env.Now(), rtt, rto})
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
	for i := range trace {
		trace[i].At -= start
	}
	return trace
}

func (trace rtoTrace) tables() []*stats.Table {
	t := stats.NewTable("Graph #7: read RPC trace (RTT and RTO = A+4D)",
		"t(s)", "rtt(ms)", "rto(ms)")
	for _, tp := range trace[:min(len(trace), 60)] {
		t.AddRow(fmt.Sprintf("%.1f", float64(tp.At)/1e9), tp.RTT, tp.RTO)
	}
	return []*stats.Table{t}
}

// serverCurve is Graph 8 or 9: the probe's RTT against the Reno and the
// Ultrix server per load, on the paper's transport.
type serverCurve struct {
	probe  uint32
	Points []serverPoint
}

type serverPoint struct {
	Load         float64
	Reno, Ultrix rttPoint
}

// Ratio is the Ultrix server's mean RTT over Reno's.
func (p serverPoint) Ratio() float64 {
	if p.Reno.Mean > 0 {
		return p.Ultrix.Mean / p.Reno.Mean
	}
	return 0
}

// expServerCompare builds the Graphs 8-9 runner: Reno vs Ultrix server
// under the same load and transport.
func expServerCompare(mix map[uint32]float64, probe uint32) func(ExpConfig) serverCurve {
	return func(cfg ExpConfig) serverCurve {
		loads := lanLookupLoads
		if probe == nfsproto.ProcRead {
			loads = lanReadLoads
		}
		c := serverCurve{probe: probe}
		for _, load := range cfg.loads(loads) {
			// A deep subtree keeps the server buffer cache populated so
			// the linear-scan discipline has something to scan through.
			deep := func(nc *workload.NhfsstoneConfig) { nc.NumFiles = 120 }
			resR := runNhfsstone(cfg, TopoLAN, UDPDynamic, mix, load, RigConfig{ServerOpts: RenoServer()}, deep, nil)
			resU := runNhfsstone(cfg, TopoLAN, UDPDynamic, mix, load, RigConfig{ServerOpts: UltrixServer()}, deep, nil)
			c.Points = append(c.Points, serverPoint{load, probePoint(resR, probe), probePoint(resU, probe)})
		}
		return c
	}
}

func (c serverCurve) tables() []*stats.Table {
	t := stats.NewTable(fmt.Sprintf("Reno vs Ultrix server: avg %s RTT (ms), same LAN", nfsproto.ProcName(c.probe)),
		"load", "reno", "ultrix", "ultrix/reno")
	for _, p := range c.Points {
		if p.Reno.N == 0 || p.Ultrix.N == 0 {
			continue
		}
		t.AddRow(p.Load, p.Reno.Mean, p.Ultrix.Mean, fmt.Sprintf("%.2f", p.Ratio()))
	}
	return []*stats.Table{t}
}

// nicTuning is §3: the server's CPU profile (largest bucket first) and
// busy time over the measured run, before and after the NIC-path tuning.
type nicTuning struct {
	Profile [2][]netsim.ProfileBucket
	Busy    [2]sim.Time
}

// Saving is the tuning's cut in server CPU busy time, in percent.
func (n nicTuning) Saving() float64 {
	if n.Busy[0] > 0 {
		return 100 * (1 - float64(n.Busy[1])/float64(n.Busy[0]))
	}
	return 0
}

// expProfile3 reproduces the §3 study: the server CPU profile under a
// read-heavy load, before and after the NIC-path tuning (page-remap TX and
// no TX interrupts), with the total saving.
func expProfile3(cfg ExpConfig) nicTuning {
	var n nicTuning
	for i, tuned := range []bool{false, true} {
		rig := RigConfig{Seed: cfg.seed(), ServerPageRemap: tuned, ServerNoTxIntr: tuned}
		runNhfsstone(cfg, TopoLAN, UDPDynamic, workload.ReadLookupMix(), 16, rig,
			func(nc *workload.NhfsstoneConfig) { nc.NumFiles = 30 },
			func(r *Rig) { n.Profile[i], n.Busy[i] = r.Net.Server.Profile(), r.Net.Server.CPU.BusyTime() })
	}
	return n
}

func (n nicTuning) tables() []*stats.Table {
	var tabs []*stats.Table
	for i, title := range []string{"§3: server CPU profile before tuning (read mix)",
		"§3: server CPU profile after page-remap TX + no TX interrupts"} {
		t := stats.NewTable(title, "bucket", "ms", "% of busy")
		for _, b := range n.Profile[i] {
			t.AddRow(b.Name, b.Time, fmt.Sprintf("%.1f", 100*float64(b.Time)/float64(n.Busy[i])))
		}
		tabs = append(tabs, t)
	}
	sum := stats.NewTable("§3: tuning summary", "metric", "value")
	sum.AddRow("CPU busy before (ms)", n.Busy[0])
	sum.AddRow("CPU busy after (ms)", n.Busy[1])
	sum.AddRow("saving (%)", fmt.Sprintf("%.1f", n.Saving()))
	sum.AddRow("paper reports", "~12%")
	return append(tabs, sum)
}

// ablations is §4's two regimes, one row per transport variant.
type ablations struct{ LAN, Slow []ablationRow }

// ablationRow is one transport variant and its read-heavy Nhfsstone point;
// OK is false when the run did not finish.
type ablationRow struct {
	Name                 string
	ucfg                 transport.UDPConfig
	OK                   bool
	ReadRTT, ReadRate    float64
	ReadRetries, Retries int
}

// expAblations turns the §4 timer knobs one at a time under the read mix
// and reports retry rates and RTTs.
func expAblations(cfg ExpConfig) ablations {
	// Two regimes: the loaded LAN (where the paper first saw A+2D's 2-4x
	// read retry rate) and the 56K path (where the timer policy decides
	// throughput).
	vs := rtoVariants()
	var a ablations
	for _, v := range vs {
		a.LAN = append(a.LAN, ablationRun(cfg, TopoLAN, v, 28, 8))
	}
	// On the 56K path an 8 KB read reply takes longer than the 1 s initial
	// RTO, so every read's first transmission times out and Karn's rule
	// drops its sample: the read estimator is never seeded, and the knobs
	// that shape it (BigFactor, RecalcAtSendOnly) cannot act. Only the
	// paper's transport and the classic fixed RTO differ there.
	for _, v := range []ablationRow{vs[0], vs[len(vs)-1]} {
		a.Slow = append(a.Slow, ablationRun(cfg, TopoSlow, v, 1.5, 6))
	}
	return a
}

func (a ablations) tables() []*stats.Table {
	table := func(title string, rows []ablationRow) *stats.Table {
		t := stats.NewTable(title, "variant", "read RTT(ms)", "read rate/s", "read retries", "all retries")
		for _, r := range rows {
			if !r.OK {
				t.AddRow(r.Name, "-", "-", "-", "-")
				continue
			}
			t.AddRow(r.Name, r.ReadRTT, fmt.Sprintf("%.2f", r.ReadRate), r.ReadRetries, r.Retries)
		}
		return t
	}
	return []*stats.Table{
		table("§4 ablations: loaded LAN, read-heavy mix", a.LAN),
		table("§4 ablations: 56Kbps link, read-heavy mix", a.Slow),
	}
}

// rtoVariants lists the paper's transport first and the classic fixed RTO
// last, with one knob flipped per variant in between.
func rtoVariants() []ablationRow {
	mk := func(f func(*transport.UDPConfig)) transport.UDPConfig {
		c := transport.DynamicUDP()
		f(&c)
		return c
	}
	return []ablationRow{
		{Name: "A+4D, per-tick recalc (paper)", ucfg: transport.DynamicUDP()},
		{Name: "A+2D for big RPCs", ucfg: mk(func(c *transport.UDPConfig) { c.BigFactor = 2 })},
		{Name: "RTO fixed at send time", ucfg: mk(func(c *transport.UDPConfig) { c.RecalcAtSendOnly = true })},
		{Name: "fixed 1s RTO (classic)", ucfg: transport.FixedUDP()},
	}
}

// ablationRun executes one read-heavy Nhfsstone point under v's transport
// and returns v with its read RTT, read rate, read retries, total retries.
func ablationRun(cfg ExpConfig, topo Topology, v ablationRow, rate float64, procs int) ablationRow {
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
	runWorkload(r.Env, "bench", cfg.warmup()+3*cfg.window()+40*time.Minute, func(p *sim.Proc) {
		tr := r.DialUDPConfig(v.ucfg)
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
		res := nh.Run(p)
		if s := res.RTT[nfsproto.ProcRead]; s != nil {
			v.OK, v.ReadRTT, v.ReadRate, v.Retries = true, s.Mean(), res.ReadRate(), res.Retries
			v.ReadRetries = tr.Stats().RetryClass[transport.ClassRead]
		}
	})
	return v
}
