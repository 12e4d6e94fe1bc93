// Command nfsbench regenerates the tables and figures of Macklem's USENIX
// 1991 NFS tuning paper on the simulated testbed.
//
// Usage:
//
//	nfsbench -list
//	nfsbench -exp graph1            # one experiment
//	nfsbench -exp all               # everything, paper order
//	nfsbench -exp table5 -quick     # scaled-down run
//	nfsbench -exp graph1 -cpuprofile cpu.pprof -memprofile mem.pprof
//	nfsbench -fleet                 # open-loop 10k-client rig
//	nfsbench -fleet -fleet-real -fleet-clients 1000   # same, over real sockets
//	nfsbench -fleet -fleet-real -readers 2 -mutexprofile mutex.pprof -blockprofile block.pprof
//
// Output is plain text, one table per experiment, in the same shape as the
// paper's tables/graph data. EXPERIMENTS.md records how each compares to
// the published numbers. The -cpuprofile/-memprofile flags write pprof
// profiles of the run (`make profile` wraps this), so perf work starts from
// a profile the way the paper's did; -mutexprofile/-blockprofile enable the
// Go runtime's contention profilers in any mode.
//
// -fleet is the open-loop load rig (internal/fleet, DESIGN.md §10): it
// sweeps -fleet-rps to produce the latency-vs-offered-load curve, replays
// the -fleet-scenarios hostile scripts under the strict exactly-once
// auditor, and prints both (`make fleet`; `make fleet-smoke` is the
// CI-sized run). Scenario audit violations exit nonzero; SLO misses on
// curve points are reported but don't fail the run. With -fleet-real the
// fleet drives the real-socket frontend (internal/nfsnet) with -readers
// ingest readers, and each curve point also prints how its datagrams were
// served: per reader wakeup, on the shallow path, inline on the reader or
// spilled to the nfsd pool, how many replies shared a send batch, and the
// lock site that waited most. The benchmark of record is
// `bash benchmark/run.sh`, not this mode.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"renonfs"
	"renonfs/internal/fleet"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		quick      = flag.Bool("quick", false, "scaled-down durations and point counts")
		seed       = flag.Int64("seed", 1991, "random seed")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
		readers    = flag.Int("readers", 0, "sharded UDP ingest readers of the -fleet-real server (0 = one per GOMAXPROCS)")
		dur        = flag.Duration("dur", 2*time.Second, "per-point measurement duration in -fleet mode")
		warmup     = flag.Duration("warmup", 500*time.Millisecond, "per-point warmup excluded from the rates and percentiles in -fleet mode")
		mutexProf  = flag.String("mutexprofile", "", "write a mutex contention profile to this file on exit")
		blockProf  = flag.String("blockprofile", "", "write a blocking profile to this file on exit")

		fleetMode      = flag.Bool("fleet", false, "open-loop fleet mode: latency-vs-offered-load curve plus hostile scenarios")
		fleetClients   = flag.Int("fleet-clients", 10000, "simulated mounts in -fleet mode")
		fleetShards    = flag.Int("fleet-shards", 16, "sockets/timing wheels the fleet is split across")
		fleetRPS       = flag.String("fleet-rps", "150,250,350,500,750,1000,2000", "comma list of offered aggregate RPS (the load curve's x axis)")
		fleetScenarios = flag.String("fleet-scenarios", "flashcrowd,remountherd,retransmitstorm", "comma list of hostile scenario scripts (empty: curve only)")
		fleetReal      = flag.Bool("fleet-real", false, "drive real UDP sockets (internal/nfsnet) instead of the simulator")
		fleetTimeout   = flag.Duration("fleet-timeout", time.Second, "pending-call expiry in -fleet mode")
		fleetSLO       = flag.String("fleet-slo", "", "SLO spec, e.g. p50=5ms,p99=50ms,p999=250ms,timeouts=0.01 (empty: knee-finding defaults)")
	)
	flag.Parse()

	fatalf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "nfsbench: "+format+"\n", args...)
		os.Exit(2)
	}
	// Shared knobs must be sane, so a typo'd invocation dies with a message
	// instead of measuring the wrong thing.
	if *readers < 0 {
		fatalf("-readers %d: must be >= 0", *readers)
	}
	if *dur <= 0 {
		fatalf("-dur %v: must be > 0", *dur)
	}
	if *warmup < 0 {
		fatalf("-warmup %v: must be >= 0", *warmup)
	}

	if *mutexProf != "" {
		runtime.SetMutexProfileFraction(1)
		defer writeProfile("mutex", *mutexProf)
	}
	if *blockProf != "" {
		runtime.SetBlockProfileRate(1)
		defer writeProfile("block", *blockProf)
	}

	if *fleetMode {
		if *fleetClients <= 0 || *fleetClients > fleet.MaxClients {
			fatalf("-fleet-clients %d: must be in 1..%d (the XIDs' client bits)", *fleetClients, fleet.MaxClients)
		}
		if *fleetShards <= 0 {
			fatalf("-fleet-shards %d: must be > 0", *fleetShards)
		}
		if *fleetTimeout <= 0 {
			fatalf("-fleet-timeout %v: must be > 0", *fleetTimeout)
		}
		rates, err := parseFleetRPS(*fleetRPS)
		if err != nil {
			fatalf("%v", err)
		}
		kinds, err := parseFleetScenarios(*fleetScenarios)
		if err != nil {
			fatalf("%v", err)
		}
		slo, err := fleet.ParseSLO(*fleetSLO)
		if err != nil {
			fatalf("-fleet-slo: %v", err)
		}
		ok := runFleet(fleet.Config{
			Seed: *seed, Clients: *fleetClients, Shards: *fleetShards,
			Warmup: *warmup, Horizon: *dur, Timeout: *fleetTimeout,
			Strict: true, Readers: *readers,
		}, rates, kinds, *fleetReal, slo)
		if !ok {
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range renonfs.Experiments() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nfsbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "nfsbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	defer writeMemProfile(*memprofile)

	cfg := renonfs.ExpConfig{Quick: *quick, Seed: *seed}
	run := func(e renonfs.Experiment) {
		start := time.Now()
		fmt.Printf("== %s: %s\n\n", e.ID, e.Title)
		for _, tb := range e.Run(cfg) {
			fmt.Println(tb.String())
		}
		fmt.Printf("(%s in %.1fs wall)\n\n", e.ID, time.Since(start).Seconds())
	}

	if *exp == "all" {
		for _, e := range renonfs.Experiments() {
			run(e)
		}
		return
	}
	for _, e := range renonfs.Experiments() {
		if e.ID == *exp {
			run(e)
			return
		}
	}
	fmt.Fprintf(os.Stderr, "nfsbench: unknown experiment %q (try -list)\n", *exp)
	os.Exit(1)
}

// writeProfile dumps a named runtime profile (mutex, block).
func writeProfile(kind, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nfsbench: -%sprofile: %v\n", kind, err)
		return
	}
	defer f.Close()
	if err := pprof.Lookup(kind).WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "nfsbench: -%sprofile: %v\n", kind, err)
	}
}

// writeMemProfile dumps an up-to-date heap/allocation profile, if requested.
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nfsbench: -memprofile: %v\n", err)
		return
	}
	defer f.Close()
	runtime.GC() // materialize the final allocation state
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(os.Stderr, "nfsbench: %d heap objects (%.0f MB) allocated by the run\n", ms.Mallocs, float64(ms.TotalAlloc)/1e6)
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "nfsbench: -memprofile: %v\n", err)
	}
}
