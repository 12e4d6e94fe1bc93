package main

// The -fleet mode: the open-loop 10k-client rig (internal/fleet). One run
// sweeps the offered-RPS list against a steady scenario to produce the
// latency-vs-offered-load curve, then replays each requested hostile
// scenario (flash crowd, remount herd, retransmit storm, ...) at the
// first RPS of the list under the strict exactly-once auditor. Everything
// — curve points, scenario fingerprints, SLO verdicts, audit outcomes —
// is printed as a table (`make fleet` wraps this; `make fleet-smoke` is the
// CI-sized run).
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
	"time"

	"renonfs/internal/fleet"
)

// fleetOpts carries the parsed -fleet* flags.
type fleetOpts struct {
	clients   int
	shards    int
	rps       []float64
	scenarios []fleet.Kind
	real      bool
	strict    bool
	seed      int64
	warmup    time.Duration
	horizon   time.Duration
	timeout   time.Duration
	slo       fleet.SLO
}

// parseFleetRPS parses the -fleet-rps comma list into positive rates.
func parseFleetRPS(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
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
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, err := fleet.ParseKind(part)
		if err != nil {
			return nil, fmt.Errorf("-fleet-scenarios: %w", err)
		}
		out = append(out, k)
	}
	return out, nil
}

// runFleet serves the -fleet mode. Returns false if any scenario violated
// the exactly-once audit (main turns that into exit 1).
func runFleet(o fleetOpts) bool {
	engine := "sim"
	run := fleet.RunSim
	if o.real {
		engine = "sock"
		run = fleet.RunSock
	}
	base := fleet.Config{
		Seed: o.seed, Clients: o.clients, Shards: o.shards,
		Warmup: o.warmup, Horizon: o.horizon, Timeout: o.timeout,
		Readers: 0, Strict: o.strict,
	}

	fmt.Printf("== fleet: open-loop latency vs offered load (%s engine, %d clients, %d shards, %v horizon)\n\n",
		engine, o.clients, o.shards, o.horizon)
	fmt.Printf("  %9s %9s %9s %9s %9s %9s %8s  %s\n",
		"offered", "achieved", "goodput", "p50ms", "p99ms", "p999ms", "timeout%", "slo")
	for _, rps := range o.rps {
		cfg := base
		cfg.OfferedRPS = rps
		r, err := run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nfsbench: -fleet (%g rps): %v\n", rps, err)
			os.Exit(1)
		}
		fails := o.slo.Check(r)
		verdict := "ok"
		if len(fails) > 0 {
			verdict = strings.Join(fails, "; ")
		}
		fmt.Printf("  %9.0f %9.0f %9.0f %9.2f %9.2f %9.2f %8.2f  %s\n",
			r.Offered, r.AchievedRPS, r.GoodputRPS, r.P50, r.P99, r.P999,
			100*r.TimeoutFrac(), verdict)
	}

	clean := true
	if len(o.scenarios) > 0 {
		scenarioRPS := o.rps[0]
		fmt.Printf("\n== fleet scenarios (seed %d, %g rps, strict=%v)\n\n", o.seed, scenarioRPS, o.strict)
		for _, kind := range o.scenarios {
			sc := fleet.GenerateScenario(kind, o.seed, o.horizon)
			cfg := base
			cfg.OfferedRPS = scenarioRPS
			cfg.Scenario = sc
			r, err := run(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "nfsbench: -fleet scenario %s: %v\n", kind, err)
				os.Exit(1)
			}
			fails := o.slo.Check(r)
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
