// Command nfsstone runs the Nhfsstone-style load generator, one
// (transport, topology, mix, rate) point per invocation — the raw material
// of the paper's Graphs 1-5.
//
// By default it drives the simulated testbed:
//
//	nfsstone -topo ring -transport udp-dyn -mix read -rate 12 -duration 60s
//
// With -server it instead drives a running cmd/nfsd over a real UDP socket
// (wall-clock time, same mix and pacing), which is the partner of the
// nfsd + nfsstat observability workflow:
//
//	nfsd &
//	nfsstone -server 127.0.0.1:12049 -rate 200 -duration 10s &
//	nfsstat -addr 127.0.0.1:12050 -i 1s -z
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"renonfs"
	"renonfs/internal/metrics"
	"renonfs/internal/nfsnet"
	"renonfs/internal/nfsproto"
	"renonfs/internal/sim"
	"renonfs/internal/stats"
	"renonfs/internal/workload"
)

func main() {
	var (
		topoName  = flag.String("topo", "lan", "topology: lan, ring, slow")
		trName    = flag.String("transport", "udp-dyn", "transport: udp-fixed, udp-dyn, tcp")
		mixName   = flag.String("mix", "lookup", "load mix: lookup, read, full")
		rate      = flag.Float64("rate", 20, "offered load, RPC/s")
		duration  = flag.Duration("duration", 60*time.Second, "measurement window (virtual)")
		warmup    = flag.Duration("warmup", 10*time.Second, "warmup (virtual)")
		seed      = flag.Int64("seed", 1, "random seed")
		longNames = flag.Bool("longnames", false, "use >31-char names (defeats server name cache)")
		procs     = flag.Int("procs", 4, "load-generating processes")
		server    = flag.String("server", "", "drive a real nfsd at this UDP address instead of the simulator")
	)
	flag.Parse()

	var mix map[uint32]float64
	switch *mixName {
	case "lookup":
		mix = workload.DefaultLookupMix()
	case "read":
		mix = workload.ReadLookupMix()
	case "full":
		mix = workload.FullMix()
	default:
		fmt.Fprintf(os.Stderr, "nfsstone: unknown mix %q\n", *mixName)
		os.Exit(1)
	}

	if *server != "" {
		runReal(*server, mix, *rate, *procs, *duration, *seed)
		return
	}

	topos := map[string]renonfs.Topology{"lan": renonfs.TopoLAN, "ring": renonfs.TopoRing, "slow": renonfs.TopoSlow}
	topo, ok := topos[*topoName]
	if !ok {
		fmt.Fprintf(os.Stderr, "nfsstone: unknown topology %q\n", *topoName)
		os.Exit(1)
	}
	kinds := map[string]renonfs.TransportKind{
		"udp-fixed": renonfs.UDPFixed, "udp-dyn": renonfs.UDPDynamic, "tcp": renonfs.TCP,
	}
	kind, ok := kinds[*trName]
	if !ok {
		fmt.Fprintf(os.Stderr, "nfsstone: unknown transport %q\n", *trName)
		os.Exit(1)
	}

	r := renonfs.NewRig(renonfs.RigConfig{Seed: *seed, Topology: topo})
	defer r.Close()
	var res *workload.NhfsstoneResult
	var cpu float64
	r.Env.Spawn("nfsstone", func(p *sim.Proc) {
		tr, err := r.DialTransport(p, kind)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nfsstone: dial: %v\n", err)
			return
		}
		nh := &workload.Nhfsstone{
			Cfg: workload.NhfsstoneConfig{
				Mix: mix, Rate: *rate, Procs: *procs,
				Duration: *duration, Warmup: *warmup,
				NumFiles: 40, FileSize: 8192, LongNames: *longNames,
				OnMeasure: func() { r.Net.Server.ResetProfile() },
			},
			Tr:   tr,
			Root: r.Server.RootFH(),
		}
		if err := nh.Preload(p); err != nil {
			fmt.Fprintf(os.Stderr, "nfsstone: preload: %v\n", err)
			return
		}
		res = nh.Run(p)
		cpu = r.Net.Server.CPU.Utilization()
	})
	r.Env.Run(*warmup + *duration + 30*time.Minute)
	if res == nil {
		fmt.Fprintln(os.Stderr, "nfsstone: run did not complete")
		os.Exit(1)
	}

	fmt.Printf("topology=%v transport=%v mix=%s offered=%.1f/s achieved=%.1f/s retries=%d failures=%d server-cpu=%.0f%%\n",
		topo, kind, *mixName, *rate, res.Achieved, res.Retries, res.Failures, cpu*100)
	t := stats.NewTable("per-procedure round trip times", "proc", "n", "calls/s", "mean(ms)", "p95(ms)", "p99(ms)", "max(ms)")
	for proc := uint32(0); proc < nfsproto.NumProcs; proc++ {
		s := res.RTT[proc]
		if s == nil || s.Count == 0 {
			continue
		}
		p95, ok95 := s.Quantile(95)
		p99, ok99 := s.Quantile(99)
		t.AddRow(nfsproto.ProcName(proc), s.Count, fmt.Sprintf("%.1f", res.ProcRate[proc]),
			s.Mean(), stats.Fixed(p95, 1, ok95), stats.Fixed(p99, 1, ok99), s.Max())
	}
	fmt.Println(t.String())
}

// runReal drives a live nfsd over real UDP sockets: each worker gets its
// own socket (and so its own XID stream), Poisson-paces the mix, and
// records wall-clock RTTs into a shared metrics registry. The server's own
// counters are meanwhile visible to a concurrent nfsstat.
func runReal(addr string, mix map[uint32]float64, rate float64, procs int, duration time.Duration, seed int64) {
	const numFiles = 40

	// One setup connection: mount the export and preload target files.
	setup, err := nfsnet.DialUDP(addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nfsstone: dial %s: %v\n", addr, err)
		os.Exit(1)
	}
	mnt, err := setup.Mnt("/")
	if err != nil || mnt.Status != 0 {
		fmt.Fprintf(os.Stderr, "nfsstone: mount failed: %v\n", err)
		os.Exit(1)
	}
	root := mnt.File
	scratch, err := setup.Mkdir(root, "stone", 0755)
	if err != nil || (scratch.Status != nfsproto.OK && scratch.Status != nfsproto.ErrExist) {
		fmt.Fprintf(os.Stderr, "nfsstone: mkdir scratch: %v (status %v)\n", err, scratch.Status)
		os.Exit(1)
	}
	if scratch.Status == nfsproto.ErrExist {
		res, err := setup.Lookup(root, "stone")
		if err != nil || res.Status != nfsproto.OK {
			fmt.Fprintf(os.Stderr, "nfsstone: lookup scratch: %v\n", err)
			os.Exit(1)
		}
		scratch = res
	}
	data := make([]byte, 8192)
	names := make([]string, numFiles)
	fhs := make([]nfsproto.FH, numFiles)
	for i := range names {
		names[i] = fmt.Sprintf("f%03d", i)
		res, err := setup.Create(scratch.File, names[i], 0644)
		if err != nil || res.Status != nfsproto.OK {
			fmt.Fprintf(os.Stderr, "nfsstone: preload create: %v\n", err)
			os.Exit(1)
		}
		fhs[i] = res.File
		if _, err := setup.Write(res.File, 0, data); err != nil {
			fmt.Fprintf(os.Stderr, "nfsstone: preload write: %v\n", err)
			os.Exit(1)
		}
	}
	setup.Close()

	picker := workload.NewPicker(mix)
	reg := metrics.NewRegistry()
	perProcRate := rate / float64(procs)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := nfsnet.DialUDP(addr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "nfsstone: worker dial: %v\n", err)
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for time.Since(start) < duration {
				time.Sleep(time.Duration(rng.ExpFloat64() / perProcRate * 1e9))
				proc := picker.Pick(rng)
				i := rng.Intn(numFiles)
				t0 := time.Now()
				err := issueReal(c, rng, proc, root, scratch.File, names[i], fhs[i])
				if err != nil {
					reg.Counter("client.call_errors").Add(1)
					continue
				}
				name := nfsproto.ProcName(proc)
				reg.Counter("client.calls").Add(1)
				reg.Counter("client.calls." + name).Add(1)
				reg.Histogram("client.call_ms." + name).ObserveDuration(time.Since(t0))
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	snap := reg.Snapshot()
	secs := elapsed.Seconds()
	fmt.Printf("server=%s mix-driven real run: %d calls in %.1fs (%.1f/s achieved, %.1f/s offered), %d errors\n",
		addr, snap.Counters["client.calls"], secs,
		float64(snap.Counters["client.calls"])/secs, rate,
		snap.Counters["client.call_errors"])
	t := stats.NewTable("per-procedure round trip times (wall clock)",
		"proc", "calls/s", "mean(ms)", "p50(ms)", "p95(ms)", "p99(ms)", "max(ms)")
	for proc := uint32(0); proc < nfsproto.NumProcs; proc++ {
		name := nfsproto.ProcName(proc)
		h, ok := snap.Histograms["client.call_ms."+name]
		if !ok || h.Count == 0 {
			continue
		}
		t.AddRow(name, fmt.Sprintf("%.1f", float64(h.Count)/secs),
			h.Mean(), h.Quantile(50), h.Quantile(95), h.Quantile(99), h.Max)
	}
	fmt.Println(t.String())
}

// issueReal performs one RPC of the given procedure against the live
// server, mapping mix entries onto the synchronous client's operations.
func issueReal(c *nfsnet.Client, rng *rand.Rand, proc uint32, root, scratch nfsproto.FH, name string, fh nfsproto.FH) error {
	// Transport errors fail the call; NFS-level statuses still count as
	// served RPCs, matching the simulator generator's accounting.
	switch proc {
	case nfsproto.ProcLookup:
		_, err := c.Lookup(scratch, name)
		return err
	case nfsproto.ProcRead:
		_, err := c.Read(fh, uint32(rng.Intn(2))*4096, 4096)
		return err
	case nfsproto.ProcWrite:
		buf := make([]byte, 4096)
		_, err := c.Write(fh, uint32(rng.Intn(2))*4096, buf)
		return err
	case nfsproto.ProcCreate:
		tmp := fmt.Sprintf("t%06d", rng.Intn(1000000))
		if res, err := c.Create(scratch, tmp, 0644); err != nil {
			return err
		} else if res.Status == nfsproto.OK {
			c.Remove(scratch, tmp)
		}
		return nil
	case nfsproto.ProcRemove:
		tmp := fmt.Sprintf("t%06d", rng.Intn(1000000))
		if _, err := c.Create(scratch, tmp, 0644); err != nil {
			return err
		}
		_, err := c.Remove(scratch, tmp)
		return err
	case nfsproto.ProcReaddir:
		_, err := c.Readdir(scratch, 0, 4096)
		return err
	case nfsproto.ProcNull:
		_, err := c.Call(nfsproto.ProcNull, nil)
		return err
	default:
		// Getattr stands in for attribute-class procedures the synchronous
		// client has no dedicated helper for (setattr, statfs, readlink...).
		_, err := c.Getattr(fh)
		return err
	}
}
