package renonfs_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"renonfs"
	"renonfs/internal/check"
	"renonfs/internal/client"
	"renonfs/internal/faultplan"
	"renonfs/internal/server"
	"renonfs/internal/sim"
	"renonfs/internal/tcpsim"
	"renonfs/internal/transport"
)

// The chaos suite sweeps seeded fault schedules over every (transport,
// topology) combination, runs a client workload against a model
// filesystem, and checks the protocol invariants in internal/check plus
// final-state equivalence. Every run is exactly reproducible: the seed
// fixes the schedule, the topology's event interleaving and the workload.
//
// Replay one failing case with the subtest path printed in its failure,
// or directly:
//
//	go test -run 'TestChaosSweep' -chaos.combo=udp-dyn/ring -chaos.seed=5 .
var (
	chaosSeed  = flag.Int64("chaos.seed", -1, "run only this chaos seed")
	chaosCombo = flag.String("chaos.combo", "", "run only this transport/topology combo, e.g. tcp/slow")
)

var chaosTransports = []renonfs.TransportKind{renonfs.UDPFixed, renonfs.UDPDynamic, renonfs.TCP}

var chaosTopos = []struct {
	name string
	topo renonfs.Topology
}{
	{"lan", renonfs.TopoLAN},
	{"ring", renonfs.TopoRing},
	{"slow", renonfs.TopoSlow},
}

// chaosSeedsPerCombo gives 9 combos x 12 seeds = 108 runs in the full
// sweep (the CI chaos job); -short keeps a 2-seed smoke per combo.
func chaosSeeds() []int64 {
	n := int64(12)
	if testing.Short() {
		n = 2
	}
	if *chaosSeed >= 0 {
		return []int64{*chaosSeed}
	}
	seeds := make([]int64, 0, n)
	for s := int64(1); s <= n; s++ {
		seeds = append(seeds, s)
	}
	return seeds
}

// chaosClientOpts is a write-through Reno personality: every write RPC
// completes inside the op that issued it, so the model filesystem can be
// compared op-by-op without delayed-write reordering.
func chaosClientOpts() client.Options {
	opts := client.Reno()
	opts.Name = "chaos"
	opts.Policy = client.WriteThrough
	opts.EagerWriteBack = false
	opts.UpdateFlush = false
	opts.ReadAhead = 0
	return opts
}

// chaosLeaseClientOpts is the lease-coherent personality under chaos: full
// Reno write-behind with NQNFS leases, so dirty data rides out faults in
// the client cache and only moves on eviction, expiry or unmount. Read-ahead
// is off so the op-by-op model comparison never races a prefetch.
func chaosLeaseClientOpts() client.Options {
	opts := client.Reno()
	opts.Name = "chaos-lease"
	opts.UseLeases = true
	opts.ReadAhead = 0
	return opts
}

// chaosResult is everything one run produces, for reporting and for the
// determinism fingerprint.
type chaosResult struct {
	schedule string
	model    map[string][]byte
	doneAt   time.Duration
	errs     []string
	counts   map[string]int
}

func (r *chaosResult) fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "sched:%s;done:%v;", r.schedule, r.doneAt)
	names := make([]string, 0, len(r.model))
	for n := range r.model {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(h, "file:%s:%x;", n, sha256.Sum256(r.model[n]))
	}
	keys := make([]string, 0, len(r.counts))
	for k := range r.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "count:%s=%d;", k, r.counts[k])
	}
	for _, e := range r.errs {
		fmt.Fprintf(h, "err:%s;", e)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

var chaosFileNames = []string{"f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7"}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return b
}

// replace applies client Create-then-write semantics to the model: the
// client's CREATE carries size=0 in its sattr, so creating an existing
// file truncates it before the new data goes down.
func replace(model map[string][]byte, name string, data []byte) {
	model[name] = append([]byte(nil), data...)
}

func readAll(p *sim.Proc, f *client.File) ([]byte, error) {
	var out []byte
	buf := make([]byte, 1024)
	for {
		n, err := f.Read(p, buf)
		if err != nil {
			return out, err
		}
		if n == 0 {
			return out, nil
		}
		out = append(out, buf[:n]...)
	}
}

// pickPresent returns a deterministic random name present in the model.
func pickPresent(rng *rand.Rand, model map[string][]byte) (string, bool) {
	present := make([]string, 0, len(model))
	for _, n := range chaosFileNames { // fixed order, not map order
		if _, ok := model[n]; ok {
			present = append(present, n)
		}
	}
	if len(present) == 0 {
		return "", false
	}
	return present[rng.Intn(len(present))], true
}

// runOps drives ~80 operations against the mount, mirroring them into the
// model. Returned strings are correctness failures (not fault-induced
// slowness — the transports are configured to ride out every outage).
func runOps(p *sim.Proc, mnt *client.Mount, rng *rand.Rand, model map[string][]byte) []string {
	var errs []string
	fail := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }
	writeFile := func(name string) {
		data := randBytes(rng, 1+rng.Intn(2048))
		f, err := mnt.Create(p, "/"+name, 0644)
		if err != nil {
			fail("create %s: %v", name, err)
			return
		}
		if _, err := f.Write(p, data); err != nil {
			fail("write %s: %v", name, err)
		}
		f.Close(p)
		replace(model, name, data)
	}
	for op := 0; op < 80; op++ {
		// Pace the workload across the schedule's fault span (the first
		// ~6 of 10 minutes): back-to-back ops would finish before the
		// first burst even starts.
		p.Sleep(sim.Time(3+rng.Intn(5)) * time.Second)
		switch k := rng.Intn(8); k {
		case 0, 1, 2: // create/overwrite
			writeFile(chaosFileNames[rng.Intn(len(chaosFileNames))])
		case 3: // append
			name, ok := pickPresent(rng, model)
			if !ok {
				writeFile(chaosFileNames[rng.Intn(len(chaosFileNames))])
				continue
			}
			data := randBytes(rng, 1+rng.Intn(1024))
			f, err := mnt.Open(p, "/"+name)
			if err != nil {
				fail("open %s for append: %v", name, err)
				continue
			}
			f.Seek(uint32(len(model[name])))
			if _, err := f.Write(p, data); err != nil {
				fail("append %s: %v", name, err)
			}
			f.Close(p)
			model[name] = append(model[name], data...)
		case 4: // remove
			name, ok := pickPresent(rng, model)
			if !ok {
				continue
			}
			// A non-idempotent retransmission straddling a server reboot
			// re-executes (the dupcache is volatile), so a REMOVE whose
			// first execution succeeded can come back NOENT — the §1
			// statelessness wart. Either way the file is gone.
			if err := mnt.Remove(p, "/"+name); err != nil && !client.IsNoEnt(err) {
				fail("remove %s: %v", name, err)
				continue
			}
			delete(model, name)
		case 5: // rename (same replay wart as remove)
			from, ok := pickPresent(rng, model)
			if !ok {
				continue
			}
			to := chaosFileNames[rng.Intn(len(chaosFileNames))]
			if to == from {
				continue
			}
			if err := mnt.Rename(p, "/"+from, "/"+to); err != nil && !client.IsNoEnt(err) {
				fail("rename %s -> %s: %v", from, to, err)
				continue
			}
			model[to] = model[from]
			delete(model, from)
		default: // read-verify
			name, ok := pickPresent(rng, model)
			if !ok {
				continue
			}
			f, err := mnt.Open(p, "/"+name)
			if err != nil {
				fail("open %s: %v", name, err)
				continue
			}
			got, err := readAll(p, f)
			f.Close(p)
			if err != nil {
				fail("read %s: %v", name, err)
				continue
			}
			if !bytes.Equal(got, model[name]) {
				fail("read %s: got %d bytes, want %d (content mismatch)", name, len(got), len(model[name]))
			}
		}
	}
	return errs
}

// verifyFinalState walks the model with a fresh mount (fresh caches, fresh
// transport) and compares every file and the directory listing.
func verifyFinalState(p *sim.Proc, mnt *client.Mount, model map[string][]byte) []string {
	var errs []string
	fail := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }
	names := make([]string, 0, len(model))
	for n := range model {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := mnt.Open(p, "/"+name)
		if err != nil {
			fail("final: open %s: %v", name, err)
			continue
		}
		got, err := readAll(p, f)
		f.Close(p)
		if err != nil {
			fail("final: read %s: %v", name, err)
			continue
		}
		if !bytes.Equal(got, model[name]) {
			fail("final: %s has %d bytes, want %d (content mismatch)", name, len(got), len(model[name]))
		}
	}
	ents, err := mnt.ReadDir(p, "/")
	if err != nil {
		fail("final: readdir: %v", err)
		return errs
	}
	listed := map[string]bool{}
	for _, de := range ents {
		if de.Name != "." && de.Name != ".." {
			listed[de.Name] = true
		}
	}
	for _, name := range names {
		if !listed[name] {
			fail("final: %s missing from directory listing", name)
		}
	}
	for name := range listed {
		if _, ok := model[name]; !ok {
			fail("final: unexpected %s in directory listing", name)
		}
	}
	return errs
}

// runChaos executes one full chaos run and returns its result plus the
// auditor's violations. With leases set the server grants NQNFS leases and
// the workload client caches under them (write-behind, no push-on-close);
// the final-state verify mount stays leaseless, so it reaches the server's
// durable state only through the eviction/expiry machinery.
func runChaos(kind renonfs.TransportKind, topo renonfs.Topology, seed int64, leases bool) (*chaosResult, []check.Violation) {
	srvOpts := server.Reno()
	if leases {
		srvOpts.Leases = true
	}
	rig := renonfs.NewRig(renonfs.RigConfig{Seed: seed, Topology: topo, ServerOpts: srvOpts})
	defer rig.Close()
	env := rig.Env
	aud := check.New(func() time.Duration { return time.Duration(env.Now()) })
	rig.Server.Tracer = aud.Tracer("server")
	sched := faultplan.Generate(seed, faultplan.Options{})
	sched.Apply(rig.Net, rig.Server)

	// One TCP stack for the whole run: each transport.NewTCP connection
	// (including reconnects) draws a fresh ephemeral port from it.
	var stack *tcpsim.Stack
	dial := func(p *sim.Proc, source string) (transport.Transport, error) {
		tracer := aud.Tracer(source)
		switch kind {
		case renonfs.UDPFixed, renonfs.UDPDynamic:
			var cfg transport.UDPConfig
			if kind == renonfs.UDPFixed {
				cfg = transport.FixedUDP()
			} else {
				cfg = transport.DynamicUDP()
			}
			// Hard-mount behaviour: ride out every outage the schedule
			// can produce rather than surfacing spurious timeouts.
			cfg.Retrans = 200
			cfg.Tracer = tracer
			return rig.DialUDPConfig(cfg), nil
		default:
			if stack == nil {
				stack = tcpsim.NewStack(rig.Net.Client)
			}
			tr, err := transport.NewTCP(p, stack, rig.Net.Server.ID, server.NFSPort)
			if tr != nil {
				tr.Tracer = tracer
			}
			return tr, err
		}
	}

	res := &chaosResult{
		schedule: sched.String(),
		model:    make(map[string][]byte),
	}
	wrng := rand.New(rand.NewSource(seed*7919 + int64(kind)))
	drive := func(horizon sim.Time, done *bool) {
		for !*done && env.Now() < horizon {
			env.Run(env.Now() + 10*time.Second)
		}
	}

	workloadDone := false
	env.Spawn("chaos-workload", func(p *sim.Proc) {
		defer func() { workloadDone = true }()
		tr, err := dial(p, "client")
		if err != nil {
			res.errs = append(res.errs, fmt.Sprintf("dial: %v", err))
			return
		}
		copts := chaosClientOpts()
		if leases {
			copts = chaosLeaseClientOpts()
		}
		mnt := client.NewMount(rig.Net.Client, tr, rig.Server.RootFH(), copts)
		res.errs = append(res.errs, runOps(p, mnt, wrng, res.model)...)
		mnt.Close(p)
	})
	drive(40*time.Minute, &workloadDone)
	if !workloadDone {
		res.errs = append(res.errs, fmt.Sprintf("workload did not complete by %v", time.Duration(env.Now())))
		res.counts = aud.Counts()
		return res, aud.Violations()
	}
	res.doneAt = time.Duration(env.Now())

	verifyDone := false
	env.Spawn("chaos-verify", func(p *sim.Proc) {
		defer func() { verifyDone = true }()
		tr, err := dial(p, "client-verify")
		if err != nil {
			res.errs = append(res.errs, fmt.Sprintf("verify dial: %v", err))
			return
		}
		opts := chaosClientOpts()
		opts.Name = "chaos-verify"
		mnt := client.NewMount(rig.Net.Client, tr, rig.Server.RootFH(), opts)
		res.errs = append(res.errs, verifyFinalState(p, mnt, res.model)...)
		mnt.Close(p)
	})
	drive(env.Now()+20*time.Minute, &verifyDone)
	if !verifyDone {
		res.errs = append(res.errs, "final-state verification did not complete")
	}
	violations := aud.Finish()
	res.counts = aud.Counts()
	return res, violations
}

func TestChaosSweep(t *testing.T) {
	for _, kind := range chaosTransports {
		for _, tp := range chaosTopos {
			combo := fmt.Sprintf("%s/%s", kind, tp.name)
			if *chaosCombo != "" && combo != *chaosCombo {
				continue
			}
			kind, tp := kind, tp
			for _, seed := range chaosSeeds() {
				seed := seed
				t.Run(fmt.Sprintf("%s/seed=%d", combo, seed), func(t *testing.T) {
					t.Parallel()
					res, violations := runChaos(kind, tp.topo, seed, false)
					t.Logf("done=%v calls=%d replies=%d retransmits=%d failures=%d crashes=%d",
						res.doneAt, res.counts["event.call_sent"], res.counts["event.reply"],
						res.counts["event.retransmit"], res.counts["event.call_failed"],
						res.counts["event.server_crash"])
					if len(res.errs) == 0 && len(violations) == 0 {
						return
					}
					t.Errorf("chaos failure on %s seed=%d\nschedule: %s\nreplay: go test -run 'TestChaosSweep' -chaos.combo=%s -chaos.seed=%d .",
						combo, seed, res.schedule, combo, seed)
					for _, e := range res.errs {
						t.Errorf("  error: %s", e)
					}
					for _, v := range violations {
						t.Errorf("  violation: %s", v)
					}
				})
			}
		}
	}
}

// TestChaosLeaseSweep reruns the fault sweep with the lease extension on:
// the workload mount holds write leases and dirty data across bursts,
// crashes and partitions, and the leaseless verify mount must still find
// exactly the model's bytes — the eviction handshake, the expiry backstop
// and the post-crash no-grant window all get exercised under loss. UDP
// transports only: lease callbacks ride the UDP callback socket, and the
// sweep keeps the peer addressing a callback resolves to.
//
// Replay: go test -run 'TestChaosLeaseSweep' -chaos.combo=udp-dyn/ring -chaos.seed=5 .
func TestChaosLeaseSweep(t *testing.T) {
	for _, kind := range []renonfs.TransportKind{renonfs.UDPFixed, renonfs.UDPDynamic} {
		for _, tp := range chaosTopos {
			combo := fmt.Sprintf("%s/%s", kind, tp.name)
			if *chaosCombo != "" && combo != *chaosCombo {
				continue
			}
			kind, tp := kind, tp
			for _, seed := range chaosSeeds() {
				seed := seed
				t.Run(fmt.Sprintf("%s/seed=%d", combo, seed), func(t *testing.T) {
					t.Parallel()
					res, violations := runChaos(kind, tp.topo, seed, true)
					t.Logf("done=%v calls=%d replies=%d retransmits=%d lease_grants=%d evictions=%d",
						res.doneAt, res.counts["event.call_sent"], res.counts["event.reply"],
						res.counts["event.retransmit"], res.counts["event.lease_grant"],
						res.counts["event.lease_vacate"])
					if len(res.errs) == 0 && len(violations) == 0 {
						return
					}
					t.Errorf("lease chaos failure on %s seed=%d\nschedule: %s\nreplay: go test -run 'TestChaosLeaseSweep' -chaos.combo=%s -chaos.seed=%d .",
						combo, seed, res.schedule, combo, seed)
					for _, e := range res.errs {
						t.Errorf("  error: %s", e)
					}
					for _, v := range violations {
						t.Errorf("  violation: %s", v)
					}
				})
			}
		}
	}
}

// TestChaosDeterminism re-runs one combo and requires a bit-identical
// fingerprint: same schedule, same event counts, same final files, same
// completion time. This is what makes every sweep failure replayable.
func TestChaosDeterminism(t *testing.T) {
	cases := []struct {
		kind renonfs.TransportKind
		topo renonfs.Topology
		seed int64
	}{
		{renonfs.UDPDynamic, renonfs.TopoRing, 5},
	}
	if !testing.Short() {
		cases = append(cases,
			struct {
				kind renonfs.TransportKind
				topo renonfs.Topology
				seed int64
			}{renonfs.TCP, renonfs.TopoLAN, 3})
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("%s/seed=%d", c.kind, c.seed), func(t *testing.T) {
			t.Parallel()
			r1, v1 := runChaos(c.kind, c.topo, c.seed, false)
			r2, v2 := runChaos(c.kind, c.topo, c.seed, false)
			if f1, f2 := r1.fingerprint(), r2.fingerprint(); f1 != f2 {
				t.Fatalf("same seed diverged:\nrun1 %s (%d violations)\nrun2 %s (%d violations)\nschedule: %s",
					f1, len(v1), f2, len(v2), r1.schedule)
			}
		})
	}
}
