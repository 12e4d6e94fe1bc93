package fleet

import (
	"runtime"
	"testing"
	"time"
)

// TestRemountHerdExactlyOnce extends the nfsnet storm tests to fleet
// scale: a real-socket run through the remountherd script — server crash,
// reboot, every client re-issuing MNT+LOOKUP inside the jitter window with
// its first ops retransmitted x3 — under the strict exactly-once auditor.
// NoReusePort forces shared-socket ingest, so the herd's duplicate sends
// land on whichever of the 4 readers wins the race: the dupcache must
// suppress cross-reader re-execution, and the spread assertion proves the
// duplicates really did cross readers (a single-reader run would pass the
// exactly-once check vacuously).
func TestRemountHerdExactlyOnce(t *testing.T) {
	horizon := 2 * time.Second
	cfg := Config{Seed: 31, Clients: 600, Shards: 8, OfferedRPS: 900,
		Warmup: 300 * time.Millisecond, Horizon: horizon,
		Timeout: time.Second, Strict: true,
		Readers: 4, NoReusePort: true,
		Scenario: GenerateScenario(RemountHerd, 31, horizon)}
	r, err := RunSock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sent=%d replies=%d timeouts=%d late=%d mounts=%d retrans=%d duphits=%d readers=%v",
		r.Sent, r.Replies, r.Timeouts, r.Late, r.Mounts,
		r.AuditCounts["event.retransmit"], r.AuditCounts["event.dup_hit"], r.PerReaderReads)

	if len(r.Violations) != 0 {
		t.Errorf("exactly-once violated %d times; first: %v", len(r.Violations), r.Violations[0])
	}
	if r.Sent != r.Replies+r.Timeouts {
		t.Errorf("conservation: sent=%d replies=%d timeouts=%d", r.Sent, r.Replies, r.Timeouts)
	}
	if r.Mounts != int64(cfg.Clients) {
		t.Errorf("herd produced %d MNT calls, want one per client (%d)", r.Mounts, cfg.Clients)
	}
	if r.AuditCounts["event.retransmit"] == 0 {
		t.Error("herd produced no retransmissions — the storm window did not fire")
	}
	if r.AuditCounts["event.server_crash"] == 0 {
		t.Error("no server crash recorded — the reboot script did not run")
	}

	// Per-reader spread: the herd must have landed on >= 2 readers for the
	// cross-reader dupcache path to have been exercised at all.
	active := 0
	for _, n := range r.PerReaderReads {
		if n > 0 {
			active++
		}
	}
	if len(r.PerReaderReads) != 4 {
		t.Fatalf("frontend ran %d readers, want 4", len(r.PerReaderReads))
	}
	if active < 2 {
		t.Errorf("herd traffic landed on %d reader(s) %v; want spread across >= 2",
			active, r.PerReaderReads)
	}
}

// TestRemountHerdFastPathBatching is the shallow-dispatch counterpart of the
// herd test above: same crash/reboot/re-mount script, but with reuseport
// ingest (the default), where each reader owns its socket and so the
// header-only fast path is enabled. The herd's MNT+LOOKUP burst is exactly
// the traffic the fast path exists for, and its back-to-back arrivals are
// what the coalescing reply writers exist for — so beyond the exactly-once
// audit this run must show (a) inline fast-path service actually firing and
// (b) replies leaving in fewer send syscalls than replies: the < 1.0
// syscalls/reply acceptance number (0.48 when the batching landed;
// EXPERIMENTS.md, "Shallow dispatch").
func TestRemountHerdFastPathBatching(t *testing.T) {
	horizon := 2 * time.Second
	cfg := Config{Seed: 47, Clients: 600, Shards: 8, OfferedRPS: 900,
		Warmup: 300 * time.Millisecond, Horizon: horizon,
		Timeout: time.Second, Strict: true,
		Readers:  4,
		Scenario: GenerateScenario(RemountHerd, 47, horizon)}
	r, err := RunSock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ratio := 0.0
	if r.SendMsgs > 0 {
		ratio = float64(r.SendBatches) / float64(r.SendMsgs)
	}
	t.Logf("sent=%d replies=%d timeouts=%d fast=%d batches=%d msgs=%d (%.3f syscalls/reply)",
		r.Sent, r.Replies, r.Timeouts, r.FastCalls, r.SendBatches, r.SendMsgs, ratio)

	if len(r.Violations) != 0 {
		t.Errorf("exactly-once violated %d times; first: %v", len(r.Violations), r.Violations[0])
	}
	if r.Sent != r.Replies+r.Timeouts {
		t.Errorf("conservation: sent=%d replies=%d timeouts=%d", r.Sent, r.Replies, r.Timeouts)
	}
	if r.ReaderReads != r.NfsdCalls+r.ReaderFast+r.ReaderInline {
		t.Errorf("drain counters diverge: readers read %d, nfsds dispatched %d, fast-serviced %d, inline %d",
			r.ReaderReads, r.NfsdCalls, r.ReaderFast, r.ReaderInline)
	}
	if r.FastCalls == 0 {
		// Without reuseport (or a single reader) the gate in nfsnet.Serve
		// turns the fast path off; that is the correct behavior there, but
		// it means this test only bites on platforms that can bind several
		// sockets to the port.
		if runtime.GOOS != "linux" {
			t.Skipf("fast path disabled (no reuseport on %s); nothing to assert", runtime.GOOS)
		}
		t.Error("herd produced no fast-path calls under reuseport ingest")
	}
	if r.SendMsgs == 0 {
		t.Fatal("no replies left through the coalescing writers")
	}
	if ratio >= 1.0 {
		t.Errorf("batched sends: %d syscalls for %d replies (%.3f/reply); want < 1.0",
			r.SendBatches, r.SendMsgs, ratio)
	}
}
