// Command nfsstone runs the Nhfsstone-style load generator, one
// (transport, topology, mix, rate) point per invocation — the raw material
// of the paper's Graphs 1-5.
//
// By default it drives the simulated testbed:
//
//	nfsstone -topo ring -transport udp-dyn -mix read -rate 12 -duration 60s
//
// With -server it drives a running cmd/nfsd over a real UDP socket instead:
// the same generator and client transport (under udp-dyn, the A+4D timers
// and the congestion window) run on the wall clock, after mounting "/" and
// preloading their files into it. It is the partner of the nfsd + nfsstat
// observability workflow:
//
//	nfsd &
//	nfsstone -server 127.0.0.1:12049 -rate 200 -duration 10s &
//	nfsstat -addr 127.0.0.1:12050 -i 1s -z
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"renonfs"
	"renonfs/internal/client"
	"renonfs/internal/nfsproto"
	"renonfs/internal/sim"
	"renonfs/internal/stats"
	"renonfs/internal/transport"
	"renonfs/internal/workload"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "nfsstone: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	var (
		topoName  = flag.String("topo", "lan", "simulated topology: lan, ring, slow")
		trName    = flag.String("transport", "udp-dyn", "transport: udp-fixed, udp-dyn, tcp (simulated only)")
		mixName   = flag.String("mix", "lookup", "load mix: lookup, read, full")
		rate      = flag.Float64("rate", 20, "offered load, RPC/s")
		duration  = flag.Duration("duration", 60*time.Second, "measurement window")
		warmup    = flag.Duration("warmup", 10*time.Second, "warmup")
		seed      = flag.Int64("seed", 1, "random seed")
		longNames = flag.Bool("longnames", false, "use >31-char names (defeats server name cache)")
		procs     = flag.Int("procs", 4, "load-generating processes")
		server    = flag.String("server", "", "drive a real nfsd at this UDP address, on the wall clock, instead of the simulator")
	)
	flag.Parse()
	mix := map[string]map[uint32]float64{
		"lookup": workload.DefaultLookupMix(), "read": workload.ReadLookupMix(), "full": workload.FullMix(),
	}[*mixName]
	kind, okKind := map[string]renonfs.TransportKind{
		"udp-fixed": renonfs.UDPFixed, "udp-dyn": renonfs.UDPDynamic, "tcp": renonfs.TCP,
	}[*trName]
	topo, okTopo := map[string]renonfs.Topology{"lan": renonfs.TopoLAN, "ring": renonfs.TopoRing, "slow": renonfs.TopoSlow}[*topoName]
	switch {
	case !(*rate > 0):
		fatalf("-rate %v: must be > 0", *rate)
	case *procs < 1:
		fatalf("-procs %d: must be >= 1", *procs)
	case *duration <= 0:
		fatalf("-duration %v: must be > 0", *duration)
	case *warmup < 0:
		fatalf("-warmup %v: must be >= 0", *warmup)
	case mix == nil:
		fatalf("unknown mix %q", *mixName)
	case !okKind:
		fatalf("unknown transport %q", *trName)
	case !okTopo:
		fatalf("unknown topology %q", *topoName)
	}

	cfg := workload.NhfsstoneConfig{
		Mix: mix, Rate: *rate, Procs: *procs, Duration: *duration, Warmup: *warmup,
		NumFiles: 40, FileSize: 8192, LongNames: *longNames,
	}
	var env *sim.Env
	var r *renonfs.Rig
	switch {
	case *server == "":
		r = renonfs.NewRig(renonfs.RigConfig{Seed: *seed, Topology: topo})
		defer r.Close()
		env, cfg.OnMeasure = r.Env, r.Net.Server.ResetProfile
	case kind == renonfs.TCP:
		fatalf("-transport tcp: -server drives real UDP only")
	default:
		env = sim.New(*seed)
		defer env.Close()
	}
	udp := transport.DynamicUDP() // for -server
	if kind == renonfs.UDPFixed {
		udp = transport.FixedUDP()
	}

	// One body for both worlds: only the dial differs.
	var res *workload.NhfsstoneResult
	env.Spawn("nfsstone", func(p *sim.Proc) {
		defer env.Stop()
		var tr transport.Transport
		var root nfsproto.FH
		var err error
		if r != nil {
			tr, err = r.DialTransport(p, kind)
			root = r.Server.RootFH()
		} else if tr, err = transport.DialUDP(env, *server, udp); err == nil {
			root, err = client.MountProtocolRoot(p, tr, "/")
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "nfsstone: dial: %v\n", err)
			return
		}
		nh := &workload.Nhfsstone{Cfg: cfg, Tr: tr, Root: root}
		if err := nh.Preload(p); err != nil {
			fmt.Fprintf(os.Stderr, "nfsstone: preload: %v\n", err)
			return
		}
		res = nh.Run(p)
	})
	where := "server=" + *server
	if r != nil {
		env.Run(*warmup + *duration + 30*time.Minute)
		where = fmt.Sprintf("topology=%v", topo)
	} else {
		ctx, cancel := context.WithTimeout(context.Background(), *warmup+*duration+time.Minute)
		env.RunWall(ctx)
		cancel()
	}
	if res == nil {
		fmt.Fprintln(os.Stderr, "nfsstone: run did not complete")
		os.Exit(1)
	}

	fmt.Printf("%s transport=%v mix=%s offered=%.1f/s achieved=%.1f/s retries=%d failures=%d",
		where, kind, *mixName, *rate, res.Achieved, res.Retries, res.Failures)
	if r != nil {
		fmt.Printf(" server-cpu=%.0f%%", r.Net.Server.CPU.Utilization()*100)
	}
	fmt.Println()
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
