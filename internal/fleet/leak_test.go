package fleet

import (
	"os"
	"runtime"
	"testing"
	"time"
)

func countFDs(t *testing.T) (int, bool) {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0, false // not Linux; goroutine check still runs
	}
	return len(ents), true
}

// TestFleetShutdownNoLeaks runs the two engines concurrently — a
// 10k-simulated-client fleet and a 4-reader real-socket fleet whose
// scenario crashes and reboots the server mid-run — then checks that
// teardown returned the process to its baseline: no leaked goroutines, no
// leaked file descriptors, and the frontend's drain counters equal (every
// datagram read was dispatched). Run under -race in CI.
func TestFleetShutdownNoLeaks(t *testing.T) {
	baseGo := runtime.NumGoroutine()
	baseFD, haveFD := countFDs(t)

	horizon := 2 * time.Second
	simCfg := Config{Seed: 21, Clients: 10000, Shards: 8, OfferedRPS: 1500,
		Warmup: 300 * time.Millisecond, Horizon: horizon, Timeout: time.Second}
	sockCfg := Config{Seed: 22, Clients: 1000, Shards: 8, OfferedRPS: 800,
		Warmup: 300 * time.Millisecond, Horizon: horizon, Timeout: time.Second,
		Readers: 4, Strict: true,
		Scenario: GenerateScenario(RemountHerd, 22, horizon)}

	type out struct {
		r   *Result
		err error
	}
	simCh := make(chan out, 1)
	sockCh := make(chan out, 1)
	go func() {
		r, err := RunSim(simCfg)
		simCh <- out{r, err}
	}()
	go func() {
		r, err := RunSock(sockCfg)
		sockCh <- out{r, err}
	}()
	simOut, sockOut := <-simCh, <-sockCh
	if simOut.err != nil {
		t.Fatalf("sim: %v", simOut.err)
	}
	if sockOut.err != nil {
		t.Fatalf("sock: %v", sockOut.err)
	}

	for name, r := range map[string]*Result{"sim": simOut.r, "sock": sockOut.r} {
		t.Logf("%s: sent=%d replies=%d timeouts=%d late=%d p50=%.2fms p99=%.2fms viol=%d",
			name, r.Sent, r.Replies, r.Timeouts, r.Late, quantile(r, 50), quantile(r, 99), len(r.Violations))
		if r.Sent != r.Replies+r.Timeouts {
			t.Errorf("%s: conservation broken: sent=%d replies=%d timeouts=%d",
				name, r.Sent, r.Replies, r.Timeouts)
		}
		if len(r.Violations) != 0 {
			t.Errorf("%s: %d auditor violations; first: %v", name, len(r.Violations), r.Violations[0])
		}
	}
	if simOut.r.Clients != 10000 {
		t.Errorf("sim fleet held %d clients, want 10000", simOut.r.Clients)
	}
	// Drain equality: everything read was either serviced inline on its
	// reader (shallow path or generic dispatch) or dispatched to a worker
	// before Close returned (the crash window drops datagrams *after* the
	// read counter, where the fast and inline counters also book them, so
	// the equality survives the reboot).
	if r := sockOut.r; r.ReaderReads != r.NfsdCalls+r.ReaderFast+r.ReaderInline {
		t.Errorf("drain counters diverge: readers read %d, nfsds dispatched %d, fast-serviced %d, inline %d",
			r.ReaderReads, r.NfsdCalls, r.ReaderFast, r.ReaderInline)
	}
	if sockOut.r.ReaderReads == 0 {
		t.Error("reader counters never advanced")
	}

	// Both engines tear everything down synchronously, but GC finalizers
	// and netpoller bookkeeping lag; poll briefly before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		goN := runtime.NumGoroutine()
		fdN, _ := countFDs(t)
		if goN <= baseGo && (!haveFD || fdN <= baseFD) {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Errorf("leak: goroutines %d -> %d, fds %d -> %d\n%s",
				baseGo, goN, baseFD, fdN, buf[:n])
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
}
