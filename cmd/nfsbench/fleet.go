package main

// The -fleet mode: the open-loop 10k-client rig (internal/fleet). One run
// sweeps the offered-RPS list against a steady scenario to produce the
// latency-vs-offered-load curve, then replays each requested hostile
// scenario (flash crowd, remount herd, retransmit storm, ...) at the
// first RPS of the list under the strict exactly-once auditor. Everything
// — curve points, scenario fingerprints, SLO verdicts, audit outcomes and,
// over real sockets, each curve point's ingest counts — is printed as a
// table (`make fleet` wraps this; `make fleet-smoke` is the CI-sized run).
//
// SLO failures are reported per point but do not fail the run (the curve
// is supposed to find the knee, which means driving points past it);
// auditor violations in a scenario run do, because those are correctness
// bugs, not saturation.

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"renonfs/internal/fleet"
	"renonfs/internal/stats"
)

// splitList returns the non-empty, space-trimmed items of a comma list.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseFleetRPS parses the -fleet-rps comma list into positive rates.
func parseFleetRPS(s string) ([]float64, error) {
	var out []float64
	for _, part := range splitList(s) {
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("-fleet-rps: %q is not a positive rate", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-fleet-rps: no rates given")
	}
	return out, nil
}

// parseFleetScenarios parses the -fleet-scenarios comma list.
func parseFleetScenarios(s string) ([]fleet.Kind, error) {
	var out []fleet.Kind
	for _, part := range splitList(s) {
		k, err := fleet.ParseKind(part)
		if err != nil {
			return nil, fmt.Errorf("-fleet-scenarios: %w", err)
		}
		out = append(out, k)
	}
	return out, nil
}

// runFleet serves the -fleet mode: base carries every setting but the
// offered rate and the scenario, which each point fills in. Returns false
// if any scenario violated the exactly-once audit (main turns that into
// exit 1).
func runFleet(base fleet.Config, rates []float64, kinds []fleet.Kind, real bool, slo fleet.SLO) bool {
	engine := "sim"
	run := fleet.RunSim
	if real {
		engine = "sock"
		run = fleet.RunSock
	}

	fmt.Printf("== fleet: open-loop latency vs offered load (%s engine, %d clients, %d shards, %v horizon)\n\n",
		engine, base.Clients, base.Shards, base.Horizon)
	fmt.Printf("  %9s %9s %9s %7s %9s %9s %9s %8s  %s\n",
		"offered", "achieved", "goodput", "n", "p50ms", "p99ms", "p999ms", "timeout%", "slo")
	var points []*fleet.Result
	for _, rps := range rates {
		cfg := base
		cfg.OfferedRPS = rps
		r, err := run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nfsbench: -fleet (%g rps): %v\n", rps, err)
			os.Exit(1)
		}
		fails := slo.Check(r)
		verdict := "ok"
		if len(fails) > 0 {
			verdict = strings.Join(fails, "; ")
		}
		// n is the window's reply count; a percentile with fewer than
		// stats.MinTail replies above its rank prints "-".
		q := func(p float64) string {
			v, ok := r.Lat.Quantile(p)
			return stats.Fixed(v, 2, ok)
		}
		fmt.Printf("  %9.0f %9.0f %9.0f %7d %9s %9s %9s %8.2f  %s\n",
			r.Offered, r.AchievedRPS, r.GoodputRPS, r.Lat.Count,
			q(50), q(99), q(99.9), 100*r.TimeoutFrac(), verdict)
		points = append(points, r)
	}
	if real {
		printMechanisms(points)
	}

	clean := true
	if len(kinds) > 0 {
		scenarioRPS := rates[0]
		fmt.Printf("\n== fleet scenarios (seed %d, %g rps, strict=%v)\n\n", base.Seed, scenarioRPS, base.Strict)
		for _, kind := range kinds {
			sc := fleet.GenerateScenario(kind, base.Seed, base.Horizon)
			cfg := base
			cfg.OfferedRPS = scenarioRPS
			cfg.Scenario = sc
			r, err := run(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "nfsbench: -fleet scenario %s: %v\n", kind, err)
				os.Exit(1)
			}
			fails := slo.Check(r)
			verdict := "audit clean"
			if n := len(r.Violations); n > 0 {
				verdict = fmt.Sprintf("AUDIT FAILED (%d violations; first: %v)", n, r.Violations[0])
				clean = false
			}
			fmt.Printf("  %-16s sched=%s run=%s sent=%d replies=%d timeouts=%d late=%d mounts=%d  %s\n",
				kind, sc.Fingerprint(), r.Fingerprint(), r.Sent, r.Replies, r.Timeouts,
				r.Late, r.Mounts, verdict)
			if len(fails) > 0 {
				fmt.Printf("  %-16s slo: %s\n", "", strings.Join(fails, "; "))
			}
		}
	}
	return clean
}

// printMechanisms prints how each real-socket curve point's datagrams were
// served: reads per reader wakeup; the shares of reads served on the
// shallow path, inline on the reader and spilled to the nfsd pool; replies
// per send batch; the datagrams the kernel dropped at full receive queues;
// reads per reader; and the lock site that waited most (contended
// acquisitions / wait). A ratio over zero prints "-".
func printMechanisms(points []*fleet.Result) {
	fmt.Printf("\n== fleet ingest mechanisms (sock engine, readers=%d)\n\n", len(points[0].PerReaderReads))
	fmt.Printf("  %9s %9s %10s %6s %7s %8s %10s %8s  %-24s %s\n",
		"offered", "reads", "reads/wake", "fast%", "inline%", "spilled%", "msgs/batch", "kdrops", "reads per reader", "top lock (n / wait ms)")
	ratio := func(a, b int64, scale float64) string {
		return stats.Fixed(scale*float64(a)/float64(b), 2, b > 0)
	}
	for _, r := range points {
		per := make([]string, len(r.PerReaderReads))
		for i, n := range r.PerReaderReads {
			per[i] = strconv.FormatInt(n, 10)
		}
		lock := "-"
		if len(r.Locks) > 0 && r.Locks[0].Contended > 0 {
			l := r.Locks[0]
			lock = fmt.Sprintf("%s %d / %.1f", l.Name, l.Contended, float64(l.WaitNS)/1e6)
		}
		fmt.Printf("  %9.0f %9d %10s %6s %7s %8s %10s %8d  %-24s %s\n",
			r.Offered, r.ReaderReads, ratio(r.ReaderReads, r.ReaderWakeups, 1),
			ratio(r.ReaderFast, r.ReaderReads, 100), ratio(r.ReaderInline, r.ReaderReads, 100),
			ratio(r.NfsdCalls, r.ReaderReads, 100), ratio(r.SendMsgs, r.SendBatches, 1),
			r.KernelDrops, strings.Join(per, "/"), lock)
	}
}
