// Command benchmark is the repository's one repeatable benchmark (ISSUE 13):
// long pipelined closed-loop workloads against a child cmd/nfsd on loopback,
// plus the wall time of the paper's simulated tables, with a separate traced
// pass that attributes the cost to layers. README.md in this directory has
// the workloads, the metrics and how to read them; BENCHMARK.json at the
// repository root is the contract the driver checks.
//
// It is started through run.sh, which builds it and cmd/nfsd:
//
//	bash benchmark/run.sh --workload meta_udp --seed 1991 --seconds 15 --trace 0
//	bash benchmark/run.sh                          # every workload, end to end
//	bash benchmark/run.sh -trace 1                 # every workload, traced pass
//	bash benchmark/run.sh -runs 5 -out A.json      # a set of runs, recorded
//	bash benchmark/run.sh -compare A.json B.json
//	bash benchmark/run.sh -selfcheck -runs 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer list (a
// unit test holds the file to these tables). The bounds live in the file only.
type metricDef struct{ name, unit, better string }

var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "ops/s", "higher"},
	{"lat_p50_us", "us", "lower"},
	{"server_cpu_us_per_op", "us", "lower"},
	{"server_rss_mb", "MB", "lower"},
}

var layerMetrics = buildLayerMetrics()

func buildLayerMetrics() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{name: n, unit: unit, better: better})
		}
	}
	add("us", "lower", "nfsnet.stage_read_us", "nfsnet.stage_queue_us", "nfsnet.stage_decode_us", "nfsnet.stage_dupcheck_us",
		"nfsnet.stage_service_us", "nfsnet.stage_encode_us", "nfsnet.stage_send_us", "nfsnet.stage_total_us")
	add("ratio", "higher", "nfsnet.fastpath_share", "nfsnet.msgs_per_send_batch", "nfsnet.reads_per_wakeup")
	add("ratio", "lower", "nfsnet.fastpath_fallback_ratio", "nfsnet.ring_hop_share")
	add("bytes", "lower", "mbuf.copied_bytes_per_op")
	add("bytes", "higher", "mbuf.loaned_bytes_per_op")
	add("count", "lower", "mbuf.cluster_allocs_per_op")
	add("ratio", "lower", "mbuf.pool_miss_ratio")
	add("count", "lower", "server.dup_hits_per_kop", "server.dupc_inflight_drops", "server.errors")
	add("ns", "lower", "server.handlecall_ns", "server.handlecallfast_ns")
	add("count", "lower", "server.handlecall_allocs", "server.handlecallfast_allocs")
	add("ns", "lower", "rpc.peek_ns", "rpc.decode_call_ns", "xdr.decode_args_ns", "xdr.encode_reply_ns")
	add("count", "lower", "xdr.codec_allocs")
	add("ns", "lower", "mbuf.frombytes_ns", "mbuf.bytes_ns", "memfs.readloan_ns", "memfs.writeatchain_ns", "memfs.lookup_ns")
	add("ratio", "higher", "vfs.namecache_hit_ratio", "vfs.bufcache_hit_ratio")
	add("count", "lower", "lock.contended_per_kop")
	add("us", "lower", "lock.wait_us_per_op", "proc.server_user_us_per_op", "proc.server_sys_us_per_op")
	add("count", "lower", "proc.server_ctxsw_per_op")
	add("us", "lower", "proc.loadgen_cpu_us_per_op", "client.lat_mean_us", "client.lat_p90_us", "client.lat_p99_us", "client.lat_p999_us")
	add("count", "lower", "client.retransmits_per_kop")
	add("ratio", "lower", "client.slice_spread")
	add("us", "lower", "recon.residual_us")
	add("ratio", "lower", "recon.residual_share", "trace.overhead_frac")
	for _, id := range simExperimentIDs {
		add("ms", "lower", "sim.exp_wall_ms."+id)
	}
	for _, l := range simRPCLoops {
		add("us", "lower", "sim.rpc_wall_us."+l.name)
	}
	return defs
}

// simExperimentIDs is renonfs.Experiments() in paper order; a unit test keeps
// it in step with the registry.
var simExperimentIDs = []string{"graph1", "graph2", "graph3", "graph4", "graph5", "table1", "graph6", "graph7",
	"graph8", "graph9", "profile3", "table2", "table3", "table4", "table5", "appendixA", "ablations", "futurework", "saturation"}

// config is one invocation's settings.
type config struct {
	nfsd    string // path of the built cmd/nfsd
	seed    int64
	seconds int
	trace   bool
}

func (c *config) window() time.Duration { return time.Duration(c.seconds) * time.Second }

// result is what one run of one workload measured.
type result struct {
	attempted, failed int64
	values            map[string]float64
}

func newResult(attempted, failed int64) *result {
	return &result{attempted: attempted, failed: failed, values: map[string]float64{}}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

// wireMetric and wireResult are the driver's result line.
type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type wireResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

func (r *result) wire(defs []metricDef) (wireResult, error) {
	w := wireResult{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]wireMetric{}}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return w, fmt.Errorf("metric %s was not measured", d.name)
		}
		w.Metrics[d.name] = wireMetric{Value: v, Unit: d.unit}
	}
	return w, nil
}

func runWorkload(w *workload, cfg *config) (*result, error) {
	switch {
	case w.name == "sim_tables":
		return runSimTables(cfg)
	case cfg.trace:
		return runSocketTraced(w, cfg)
	default:
		return runSocketE2E(w, cfg)
	}
}

// runRecord is one run as -out stores it.
type runRecord struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Result   wireResult `json:"result"`
}

// runSet is the file -out writes and -compare reads.
type runSet struct {
	Host       map[string]string `json:"host"`
	Seconds    int               `json:"seconds"`
	Trace      bool              `json:"trace"`
	Comparable bool              `json:"comparable"`
	Runs       []runRecord       `json:"runs"`
}

// hostRecord is the run record's preamble: enough to tell two sets apart.
func hostRecord() map[string]string {
	text := func(cmd string, args ...string) string {
		out, err := exec.Command(cmd, args...).Output()
		if err != nil {
			return "unknown"
		}
		return strings.TrimSpace(string(out))
	}
	load, _ := os.ReadFile("/proc/loadavg")
	return map[string]string{
		"commit":  text("git", "rev-parse", "--short", "HEAD"),
		"go":      runtime.Version(),
		"nproc":   fmt.Sprint(runtime.NumCPU()),
		"kernel":  text("uname", "-sr"),
		"loadavg": strings.TrimSpace(string(load)),
		"traffic": "host loopback only (127.0.0.1), never a real link",
	}
}

func main() {
	spec, specErr := readSpec("BENCHMARK.json")
	var (
		wname     = flag.String("workload", "", "workload to run (default: all five)")
		seed      = flag.Int64("seed", 1991, "seed of the generated request streams")
		seconds   = flag.Int("seconds", spec.RunSeconds, "timed window per run; anything but BENCHMARK.json's run_seconds is marked non-comparable (2 is the smoke setting)")
		trace     = flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
		runs      = flag.Int("runs", 1, "runs per workload")
		out       = flag.String("out", "", "write the set of runs to this JSON file (for -compare)")
		compare   = flag.Bool("compare", false, "compare two -out files: -compare A.json B.json")
		selfcheck = flag.Bool("selfcheck", false, "run two sets of the same code back to back and fail if a cell disagrees beyond its bound")
		nfsdPath  = flag.String("nfsd", "", "built cmd/nfsd binary (run.sh passes it)")
		simChild  = flag.Bool("simchild", false, "internal: run as the sim_tables child")
	)
	flag.Parse()
	if *simChild {
		simChildMain(*seed)
		return
	}
	if specErr != nil {
		fatal(specErr)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two files"))
		}
		a, err := readRunSet(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		b, err := readRunSet(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		printComparison(os.Stdout, a, b, compareSets(a, b, spec.metricsByName()))
		return
	}
	if *nfsdPath == "" {
		fatal(fmt.Errorf("no -nfsd binary: start the benchmark through benchmark/run.sh"))
	}
	if err := pinGenerator(); err != nil {
		fatal(err)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killLive()
		os.Exit(130)
	}()

	cfg := &config{nfsd: *nfsdPath, seed: *seed, seconds: *seconds, trace: *trace != 0}
	selected := workloads
	if *wname != "" {
		w := findWorkload(*wname)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *wname))
		}
		selected = []workload{*w}
	}
	first, err := runAll(selected, cfg, *runs, spec.RunSeconds)
	if err != nil {
		fatal(err)
	}
	if *selfcheck {
		second, err := runAll(selected, cfg, *runs, spec.RunSeconds)
		if err != nil {
			fatal(err)
		}
		cells := compareSets(first, second, spec.metricsByName())
		printComparison(os.Stdout, first, second, cells)
		for _, c := range cells {
			if c.verdict == "worse" || c.verdict == "better" {
				fatal(fmt.Errorf("selfcheck: two sets of the same code disagree on %s/%s", c.workload, c.metric))
			}
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(first, "", " ")
		if err == nil {
			err = os.WriteFile(*out, b, 0644)
		}
		if err != nil {
			fatal(err)
		}
	}
	// The driver reads the last line: the result of the last run.
	last, _ := json.Marshal(first.Runs[len(first.Runs)-1].Result)
	fmt.Println(string(last))
}

// runAll runs every selected workload `runs` times, printing each metric by
// name with its unit, and returns the set.
func runAll(selected []workload, cfg *config, runs, specSeconds int) (*runSet, error) {
	set := &runSet{Host: hostRecord(), Seconds: cfg.seconds, Trace: cfg.trace, Comparable: cfg.seconds == specSeconds}
	for _, k := range sortedKeys(set.Host) {
		fmt.Printf("# %s: %s\n", k, set.Host[k])
	}
	fmt.Printf("# seed %d, window %d s in %v slices, warm-up %d ops, trace %v\n", cfg.seed, cfg.seconds, sliceDur, warmupOps, cfg.trace)
	if serverCPUs != nil {
		fmt.Printf("# generator pinned to cpu %d, children to cpus %v\n", generatorCPU, serverCPUs)
	}
	if !set.Comparable {
		fmt.Printf("# NOT COMPARABLE: the recorded window is %d s; this run is for smoke only\n", specSeconds)
	}
	defs := e2eMetrics
	if cfg.trace {
		defs = layerMetrics
	}
	for i := range selected {
		w := &selected[i]
		for run := 0; run < runs; run++ {
			res, err := runWorkload(w, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			wire, err := res.wire(defs)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			for _, d := range defs {
				fmt.Printf("%-12s %-32s %14.4f %s\n", w.name, d.name, wire.Metrics[d.name].Value, d.unit)
			}
			fmt.Printf("%-12s ops_attempted %d ops_failed %d fail_frac %.6f correct %v\n",
				w.name, wire.Attempted, wire.Failed, float64(wire.Failed)/float64(wire.Attempted), wire.Correct)
			set.Runs = append(set.Runs, runRecord{Workload: w.name, Seed: cfg.seed, Result: wire})
		}
	}
	return set, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fatal(err error) {
	killLive()
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
