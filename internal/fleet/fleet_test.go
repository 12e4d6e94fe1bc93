package fleet

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"renonfs/internal/nfsproto"
)

// TestWheel pins the timing-wheel contract: entries fire exactly at their
// tick, delays longer than one revolution survive the intermediate
// rescans, and clear really empties everything.
func TestWheel(t *testing.T) {
	w := newWheel(8)
	w.schedule(1, 1)
	w.schedule(2, 3)
	w.schedule(3, 8+1) // one full revolution out: same slot as client 1
	var fired []uint32
	var due []uint32
	for tick := 0; tick < 12; tick++ {
		due = w.advance(due[:0])
		for _, ci := range due {
			fired = append(fired, uint32(tick)<<8|ci)
		}
	}
	want := []uint32{1<<8 | 1, 3<<8 | 2, 9<<8 | 3}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
	if w.pendingCount() != 0 {
		t.Errorf("wheel not drained: %d pending", w.pendingCount())
	}

	w.schedule(7, 2)
	w.schedule(8, 200) // stays resident across revolutions
	if w.pendingCount() != 2 {
		t.Errorf("pendingCount = %d, want 2", w.pendingCount())
	}
	w.clear()
	if w.pendingCount() != 0 {
		t.Errorf("clear left %d entries", w.pendingCount())
	}

	// Zero delay must not fire in the past (schedule clamps to 1 tick): the
	// current tick passes empty, the next one fires it.
	w.schedule(9, 0)
	if due = w.advance(due[:0]); len(due) != 0 {
		t.Errorf("zero-delay entry fired on the current tick: %v", due)
	}
	if due = w.advance(due[:0]); len(due) != 1 || due[0] != 9 {
		t.Errorf("zero-delay entry fired %v, want [9] on the next tick", due)
	}
}

// TestXIDRoundTrip: xids must be unique fleet-wide and attribute back to
// their client.
func TestXIDRoundTrip(t *testing.T) {
	sh := &shard{base: 137, clients: make([]clientState, 3)}
	seen := map[uint32]bool{}
	for ci := 0; ci < 3; ci++ {
		for k := 0; k < 4; k++ {
			xid := sh.xidOf(ci)
			if seen[xid] {
				t.Fatalf("duplicate xid %#x", xid)
			}
			seen[xid] = true
			if got := int(xid >> xidSeqBits); got != 137+ci {
				t.Errorf("xid %#x attributes to client %d, want %d", xid, got, 137+ci)
			}
		}
	}
}

// TestCompiledMix: the cumulative table must cover every procedure and
// respect rough proportions.
func TestCompiledMix(t *testing.T) {
	cm := compileMix(map[uint32]float64{
		nfsproto.ProcGetattr: 0.7, nfsproto.ProcLookup: 0.3,
	})
	counts := map[uint32]int{}
	rng := uint64(42)
	for i := 0; i < 10000; i++ {
		counts[cm.pick(randF(&rng))]++
	}
	if counts[nfsproto.ProcGetattr] < 6500 || counts[nfsproto.ProcGetattr] > 7500 {
		t.Errorf("getattr drawn %d/10000, want ~7000", counts[nfsproto.ProcGetattr])
	}
	if counts[nfsproto.ProcGetattr]+counts[nfsproto.ProcLookup] != 10000 {
		t.Errorf("draws escaped the mix: %v", counts)
	}
}

// TestSLOParse covers the flag syntax and its error cases (satellite: flag
// validation with clear errors).
func TestSLOParse(t *testing.T) {
	slo, err := ParseSLO("p50=5ms,p99=50ms,p999=250ms,timeouts=0.02")
	if err != nil {
		t.Fatal(err)
	}
	if slo.P50 != 5*time.Millisecond || slo.P99 != 50*time.Millisecond ||
		slo.P999 != 250*time.Millisecond || slo.MaxTimeoutFrac != 0.02 {
		t.Errorf("parsed %+v", slo)
	}
	// Omitted fields keep defaults.
	slo, err = ParseSLO("p99=100ms")
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultSLO()
	if slo.P99 != 100*time.Millisecond || slo.P50 != def.P50 || slo.MaxTimeoutFrac != def.MaxTimeoutFrac {
		t.Errorf("parsed %+v, want defaults elsewhere", slo)
	}
	for _, bad := range []string{"p42=1ms", "p50", "p50=notaduration", "timeouts=x",
		"timeouts=0.01x", "timeouts=NaN", "timeouts=-1", "timeouts=1.5", "timeouts=+Inf",
		"p50=-1ms", "p99=-5ms", "p999=-1s"} {
		if _, err := ParseSLO(bad); err == nil {
			t.Errorf("ParseSLO(%q) accepted", bad)
		}
	}
	for spec, want := range map[string]float64{"timeouts=0": 0, "timeouts=1": 1, "timeouts=1e-3": 0.001} {
		if slo, err := ParseSLO(spec); err != nil || slo.MaxTimeoutFrac != want {
			t.Errorf("ParseSLO(%q) = %v, %v; want timeouts %v", spec, slo.MaxTimeoutFrac, err, want)
		}
	}
	if slo, err := ParseSLO("p99=0s"); err != nil || slo.P99 != 0 {
		t.Errorf("ParseSLO(p99=0s) = %v, %v; want the clause disabled", slo.P99, err)
	}

	// 2,000 window replies, the slowest 30 at 600 ms: p50 passes, p99 is
	// violated, and p999 has 2 replies above its rank, too few to judge.
	r := &Result{WSent: 1000, WTimeouts: 50}
	for i := 0; i < 2000; i++ {
		d := 10 * time.Millisecond
		if i >= 1970 {
			d = 600 * time.Millisecond
		}
		r.Lat.Add(d)
	}
	want := []string{"p99 600.0ms > 500ms", "p999 unjudged (n=2000)", "timeouts 0.050 > 0.010"}
	if fails := DefaultSLO().Check(r); !slices.Equal(fails, want) {
		t.Errorf("Check = %q, want %q", fails, want)
	}
}

// quantile is r's exact window latency quantile in ms, defined or not.
func quantile(r *Result, p float64) float64 {
	v, _ := r.Lat.Quantile(p)
	return v
}

// TestParseKind: every generated name round-trips; junk is rejected.
func TestParseKind(t *testing.T) {
	for _, name := range Kinds() {
		k, err := ParseKind(name)
		if err != nil {
			t.Fatal(err)
		}
		if k.String() != name {
			t.Errorf("round trip %q -> %v", name, k)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Error("ParseKind accepted junk")
	}
}

// TestClientStateFootprint pins the compact-state claim: 10k mounts must
// cost well under 1 KB each (the states themselves are 16 bytes; the rest
// is shard fixtures — wheel slots, pending maps, latency samples).
func TestClientStateFootprint(t *testing.T) {
	if s := unsafe.Sizeof(clientState{}); s != 16 {
		t.Errorf("clientState is %d bytes, want 16", s)
	}
	const clients = 10000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fst := newFleetState(Config{Seed: 1, Clients: clients, Shards: 8,
		OfferedRPS: 1000, Horizon: 10 * time.Second}.withDefaults(), nil, &preload{})
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	perClient := grew / clients
	t.Logf("fleet state: %d KB total, %d B/client", grew/1024, perClient)
	if perClient > 1024 {
		t.Errorf("fleet state costs %d B/client, want < 1 KB", perClient)
	}
	total := 0
	for _, sh := range fst.shards {
		total += len(sh.clients)
		if sh.wheel.pendingCount() != len(sh.clients) {
			t.Errorf("shard %d: %d armed, want %d", sh.id, sh.wheel.pendingCount(), len(sh.clients))
		}
	}
	if total != clients {
		t.Errorf("shards hold %d clients, want %d", total, clients)
	}
	runtime.KeepAlive(fst)
}

// TestSimSteady is the smoke run: conservation exact, no auditor
// violations, sane percentiles, achieved rate near offered.
func TestSimSteady(t *testing.T) {
	r, err := RunSim(Config{Seed: 1, Clients: 500, Shards: 4, OfferedRPS: 400,
		Warmup: 500 * time.Millisecond, Horizon: 2 * time.Second,
		Timeout: 2 * time.Second, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sent=%d replies=%d timeouts=%d late=%d p50=%.2fms p99=%.2fms achieved=%.0f goodput=%.0f",
		r.Sent, r.Replies, r.Timeouts, r.Late, quantile(r, 50), quantile(r, 99), r.AchievedRPS, r.GoodputRPS)
	if r.Sent != r.Replies+r.Timeouts {
		t.Errorf("conservation: sent=%d != replies=%d + timeouts=%d", r.Sent, r.Replies, r.Timeouts)
	}
	if len(r.Violations) != 0 {
		t.Errorf("%d auditor violations; first: %v", len(r.Violations), r.Violations[0])
	}
	// Open loop: the rig must generate the offered load regardless of the
	// server (within sampling noise of the exponential draws).
	if r.AchievedRPS < 0.85*r.Offered || r.AchievedRPS > 1.15*r.Offered {
		t.Errorf("achieved %.0f rps, offered %.0f — open-loop pacing broken", r.AchievedRPS, r.Offered)
	}
	if p50, p99, p999 := quantile(r, 50), quantile(r, 99), quantile(r, 99.9); p50 <= 0 || p99 < p50 || p999 < p99 {
		t.Errorf("percentiles not monotone: p50=%.2f p99=%.2f p999=%.2f", p50, p99, p999)
	}
	if r.AuditCounts["event.call_sent"] == 0 || r.AuditCounts["event.server_call"] == 0 {
		t.Errorf("auditor saw no traffic: %v", r.AuditCounts)
	}
}

// TestSockSteady is TestSimSteady on the wall-clock engine: with no scenario,
// the open-loop contract holds over real sockets — the offered load is
// generated, every call resolves, almost none time out, and the strict
// auditor stays clean.
func TestSockSteady(t *testing.T) {
	r, err := RunSock(Config{Seed: 1, Clients: 500, Shards: 4, OfferedRPS: 400,
		Warmup: 500 * time.Millisecond, Horizon: 2 * time.Second,
		Timeout: time.Second, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sent=%d replies=%d timeouts=%d late=%d p50=%.2fms p99=%.2fms achieved=%.0f goodput=%.0f",
		r.Sent, r.Replies, r.Timeouts, r.Late, quantile(r, 50), quantile(r, 99), r.AchievedRPS, r.GoodputRPS)
	if r.AchievedRPS < 0.9*r.Offered || r.AchievedRPS > 1.1*r.Offered {
		t.Errorf("achieved %.0f rps, offered %.0f — open-loop pacing broken", r.AchievedRPS, r.Offered)
	}
	if r.Sent != r.Replies+r.Timeouts {
		t.Errorf("conservation: sent=%d != replies=%d + timeouts=%d", r.Sent, r.Replies, r.Timeouts)
	}
	if f := r.TimeoutFrac(); f > 0.01 {
		t.Errorf("%.1f%% of window calls timed out, want <= 1%%", 100*f)
	}
	if len(r.Violations) != 0 {
		t.Errorf("%d auditor violations; first: %v", len(r.Violations), r.Violations[0])
	}
}

// TestSockMechanismsEngage: every ingest mechanism of the real-socket
// frontend shows a count above zero under a 20,000/s open loop. Two readers
// on their own reuseport sockets drain several datagrams per wakeup, spill
// backlog to the nfsd pool and send replies in batches, and each reader
// gets traffic (32 shards, so no reader's hash bucket is empty); a lone
// reader serves everything itself. Each read is served exactly one way, and
// reads plus the kernel's receive drops never exceed the datagrams sent.
// It checks that a mechanism engages, never how much.
func TestSockMechanismsEngage(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skipf("no SO_REUSEPORT ingest on %s: readers share one socket and drain nothing", runtime.GOOS)
	}
	run := func(readers int) *Result {
		t.Helper()
		r, err := RunSock(Config{Seed: 1, Clients: 2000, Shards: 32, OfferedRPS: 20000,
			Warmup: 200 * time.Millisecond, Horizon: time.Second,
			Timeout: time.Second, Readers: readers})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("readers=%d sent=%d replies=%d timeouts=%d reads=%d wakeups=%d fast=%d inline=%d spilled=%d batches=%d msgs=%d kernel-drops=%d per-reader=%v",
			readers, r.Sent, r.Replies, r.Timeouts, r.ReaderReads, r.ReaderWakeups,
			r.ReaderFast, r.ReaderInline, r.NfsdCalls, r.SendBatches, r.SendMsgs, r.KernelDrops, r.PerReaderReads)
		if r.ReaderReads != r.NfsdCalls+r.ReaderFast+r.ReaderInline {
			t.Errorf("readers=%d: %d reads != %d spilled + %d fast + %d inline",
				readers, r.ReaderReads, r.NfsdCalls, r.ReaderFast, r.ReaderInline)
		}
		// No scenario, so no call is sent twice: every datagram was read,
		// dropped by the kernel or still queued at Close.
		if r.ReaderReads+r.KernelDrops > r.Sent {
			t.Errorf("readers=%d: %d reads + %d kernel drops > %d datagrams sent",
				readers, r.ReaderReads, r.KernelDrops, r.Sent)
		}
		return r
	}

	two := run(2)
	if two.NfsdCalls == 0 {
		t.Error("readers=2: nothing spilled to the nfsd pool")
	}
	if two.ReaderReads <= two.ReaderWakeups {
		t.Errorf("readers=2: %d reads in %d wakeups, want more than one per wakeup", two.ReaderReads, two.ReaderWakeups)
	}
	if two.SendMsgs <= two.SendBatches {
		t.Errorf("readers=2: %d replies in %d send batches, want more than one per batch", two.SendMsgs, two.SendBatches)
	}
	for i, n := range two.PerReaderReads {
		if n == 0 {
			t.Errorf("readers=2: reader %d read nothing %v", i, two.PerReaderReads)
		}
	}
	if two.Replies == 0 {
		t.Error("readers=2: no replies")
	}

	if one := run(1); one.NfsdCalls != 0 {
		t.Errorf("readers=1: %d calls spilled, want the lone reader to serve all", one.NfsdCalls)
	}
}

// TestClientBound: both engines refuse a fleet whose client ids spill out
// of the XID's client bits, where client MaxClients would reuse client 0's
// XIDs, and accept the largest one that fits.
func TestClientBound(t *testing.T) {
	engines := []struct {
		name string
		run  func(Config) (*Result, error)
	}{{"sim", RunSim}, {"sock", RunSock}}
	for _, c := range []struct {
		clients int
		ok      bool
	}{{MaxClients, true}, {MaxClients + 1, false}} {
		for _, e := range engines {
			_, err := e.run(Config{Clients: c.clients, Shards: 1,
				Horizon: 10 * time.Millisecond, Timeout: 10 * time.Millisecond})
			if (err == nil) != c.ok {
				t.Errorf("%s, %d clients: err = %v, want accepted=%v", e.name, c.clients, err, c.ok)
			}
		}
	}
	sh := &shard{base: MaxClients - 1, clients: make([]clientState, 1)}
	if got := sh.xidOf(0) >> xidSeqBits; got != MaxClients-1 {
		t.Errorf("the last client's XID attributes to client %d, want %d", got, MaxClients-1)
	}
}

// TestSimWarmupExcluded: window counters must only cover calls *scheduled*
// inside [Warmup, Warmup+Horizon).
func TestSimWarmupExcluded(t *testing.T) {
	r, err := RunSim(Config{Seed: 5, Clients: 200, Shards: 2, OfferedRPS: 300,
		Warmup: time.Second, Horizon: time.Second, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if r.WSent >= r.Sent {
		t.Errorf("window sends %d not a strict subset of total %d (warmup leaked in)", r.WSent, r.Sent)
	}
	// ~Half the run is warmup at constant rate; the window share should be
	// near half, never all.
	frac := float64(r.WSent) / float64(r.Sent)
	if frac < 0.3 || frac > 0.7 {
		t.Errorf("window holds %.0f%% of sends, want ~50%%", 100*frac)
	}
	if int64(r.Lat.Count) != r.WReplies {
		t.Errorf("%d latency samples, want one per window reply (%d)", r.Lat.Count, r.WReplies)
	}
}

// TestSimScenarios runs every hostile script end-to-end in the simulator
// under the strict exactly-once auditor.
func TestSimScenarios(t *testing.T) {
	for _, kind := range []Kind{FlashCrowd, RemountHerd, RetransmitStorm, MixedTenants, Stragglers} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			sc := GenerateScenario(kind, 7, 3*time.Second)
			r, err := RunSim(Config{Seed: 7, Clients: 400, Shards: 4, OfferedRPS: 400,
				Warmup: 500 * time.Millisecond, Horizon: 3 * time.Second,
				Timeout: 2 * time.Second, Scenario: sc, Strict: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("sent=%d replies=%d timeouts=%d late=%d mounts=%d p50=%.1f p99=%.1f fp=%s",
				r.Sent, r.Replies, r.Timeouts, r.Late, r.Mounts, quantile(r, 50), quantile(r, 99), r.Fingerprint())
			if r.Sent != r.Replies+r.Timeouts {
				t.Errorf("conservation: sent=%d replies=%d timeouts=%d", r.Sent, r.Replies, r.Timeouts)
			}
			if len(r.Violations) != 0 {
				t.Errorf("%d violations; first: %v", len(r.Violations), r.Violations[0])
			}
			switch kind {
			case RemountHerd:
				if r.Mounts != 400 {
					t.Errorf("herd produced %d MNT calls, want one per client (400)", r.Mounts)
				}
				if r.AuditCounts["event.server_crash"] == 0 {
					t.Error("no server crash recorded — the reboot script did not run")
				}
			case RetransmitStorm:
				if r.AuditCounts["event.retransmit"] == 0 {
					t.Error("storm produced no retransmissions")
				}
				if r.AuditCounts["event.dup_hit"] == 0 {
					t.Error("storm retransmits never hit the dupcache")
				}
			case Stragglers:
				if m := r.Lat.Max(); m < 500 {
					t.Errorf("slowest reply %.1fms too fast for 56 Kbit/s stragglers", m)
				}
			}
		})
	}
}

// TestFlashCrowdRaisesLoad: the rate steps must visibly raise the achieved
// send rate over the steady baseline. Per-client rate is kept high (3/s)
// so the rate change — which takes effect on each client's next
// interarrival draw — propagates quickly relative to the horizon.
func TestFlashCrowdRaisesLoad(t *testing.T) {
	base, err := RunSim(Config{Seed: 11, Clients: 200, Shards: 4, OfferedRPS: 600,
		Horizon: 3 * time.Second, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	crowd, err := RunSim(Config{Seed: 11, Clients: 200, Shards: 4, OfferedRPS: 600,
		Horizon: 3 * time.Second, Timeout: 2 * time.Second,
		Scenario: GenerateScenario(FlashCrowd, 11, 3*time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if crowd.AchievedRPS < 1.5*base.AchievedRPS {
		t.Errorf("flash crowd achieved %.0f rps vs steady %.0f — rate steps had no effect",
			crowd.AchievedRPS, base.AchievedRPS)
	}
}

func BenchmarkWheelAdvance(b *testing.B) {
	w := newWheel(wheelSlots)
	for i := 0; i < 10000; i++ {
		w.schedule(uint32(i), uint32(1+i%4096))
	}
	var due []uint32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		due = w.advance(due[:0])
		for _, ci := range due {
			w.schedule(ci, uint32(1+int(ci)%4096))
		}
	}
}

func ExampleParseSLO() {
	slo, _ := ParseSLO("p99=100ms")
	fmt.Println(slo.P99)
	// Output: 100ms
}
