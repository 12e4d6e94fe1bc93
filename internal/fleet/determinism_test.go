package fleet

import (
	"fmt"
	"testing"
	"time"
)

// TestScenarioFingerprintDeterministic mirrors faultplan's
// TestGenerateDeterministic: the scenario schedule is a pure function of
// (kind, seed, horizon), so the same inputs must render — and hash — to
// the same script, and a different seed must not.
func TestScenarioFingerprintDeterministic(t *testing.T) {
	for _, name := range Kinds() {
		kind, err := ParseKind(name)
		if err != nil {
			t.Fatal(err)
		}
		a := GenerateScenario(kind, 42, 5*time.Second)
		b := GenerateScenario(kind, 42, 5*time.Second)
		if a.String() != b.String() {
			t.Errorf("%s: same seed, different schedules:\n  %s\n  %s", name, a, b)
		}
		if a.Fingerprint() != b.Fingerprint() {
			t.Errorf("%s: same seed, different fingerprints", name)
		}
		c := GenerateScenario(kind, 43, 5*time.Second)
		if a.Fingerprint() == c.Fingerprint() {
			t.Errorf("%s: seeds 42 and 43 collided on %s", name, a.Fingerprint())
		}
	}
}

// TestRunSimDeterministic: the whole run — not just the schedule — must be
// a pure function of the config in the simulator. Two runs must agree on
// every call total and every auditor tally (Result.Fingerprint covers
// both), for a hostile scenario with crashes, remounts and storms.
func TestRunSimDeterministic(t *testing.T) {
	cfg := Config{Seed: 99, Clients: 300, Shards: 4, OfferedRPS: 300,
		Warmup: 300 * time.Millisecond, Horizon: 2 * time.Second,
		Timeout: time.Second, Strict: true,
		Scenario: GenerateScenario(RemountHerd, 99, 2*time.Second)}
	a, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("same config, different fingerprints: %s vs %s\n a: sent=%d replies=%d timeouts=%d\n b: sent=%d replies=%d timeouts=%d",
			a.Fingerprint(), b.Fingerprint(), a.Sent, a.Replies, a.Timeouts, b.Sent, b.Replies, b.Timeouts)
	}
	// And a different seed must actually change the run.
	cfg.Seed = 100
	cfg.Scenario = GenerateScenario(RemountHerd, 100, 2*time.Second)
	c, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("seeds 99 and 100 produced identical runs")
	}
}

// TestRunSimPinned pins what TestRunSimDeterministic cannot see: a change
// that moves every run alike. Each scenario at that test's config must
// reproduce its pinned fingerprint and window quantiles. The quantiles
// catch a shifted latency origin, which moves no call total and so no
// fingerprint; a change that moves them on purpose re-pins them here.
func TestRunSimPinned(t *testing.T) {
	pins := map[string][4]string{ // fingerprint, p50, p99, p999 (ms)
		"flashcrowd":      {"89705a125db8e854", "130.026", "554.591", "554.591"},
		"mixedtenants":    {"c431382621941e15", "6.116", "24.889", "24.889"},
		"remountherd":     {"38bf74c4341eb4ca", "1191.655", "1554.193", "1554.193"},
		"retransmitstorm": {"38b87bc9fd6b2339", "58.308", "280.538", "280.538"},
		"steady":          {"234939ce9728294a", "9.464", "30.060", "30.060"},
		"stragglers":      {"24673717ed992538", "8.664", "603.640", "603.640"},
	}
	for _, name := range Kinds() {
		want, ok := pins[name]
		if !ok {
			t.Errorf("%s: no pin", name)
			continue
		}
		kind, err := ParseKind(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := RunSim(Config{Seed: 99, Clients: 300, Shards: 4, OfferedRPS: 300,
			Warmup: 300 * time.Millisecond, Horizon: 2 * time.Second,
			Timeout: time.Second, Strict: true,
			Scenario: GenerateScenario(kind, 99, 2*time.Second)})
		if err != nil {
			t.Fatal(err)
		}
		got := [4]string{r.Fingerprint(), fmt.Sprintf("%.3f", r.P50),
			fmt.Sprintf("%.3f", r.P99), fmt.Sprintf("%.3f", r.P999)}
		if got != want {
			t.Errorf("%s: got %q, want %q", name, got, want)
		}
	}
}
