package renonfs_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// mutants are bugs this repository once had, or could easily have, each
// planted back by replacing a line (or a few) and paired with the test that
// must catch it. A mutant the test does not fail on is a finding: the check does
// not check what it claims to.
var mutants = []struct {
	file, anchor, repl string // anchor: source text, unique in file
	pkg, test          string
}{
	{"internal/stats/stats.go",
		"func Defined(p float64, n int) bool { return n > 0 && n-Rank(p, n) >= MinTail }",
		"func Defined(p float64, n int) bool { return n > 0 && n-Rank(p, n) > MinTail }",
		"./internal/stats", "TestDefinedBoundaries"},
	{"internal/fleet/fleet.go",
		"	if cfg.Clients > MaxClients {",
		"	if cfg.Clients >= MaxClients {",
		"./internal/fleet", "TestClientBound"},
	{"internal/fleet/fleet.go",
		`			fails = append(fails, fmt.Sprintf("%s unjudged (n=%d)", c.name, r.Lat.Count))`,
		"			_ = fmt.Sprint(r.Lat.Count)",
		"./internal/fleet", "TestSLOParse"},
	{"internal/client/lease.go",
		"		l := m.leases[k]\n		if l == nil {\n			continue\n		}\n",
		"		l := m.leases[k]\n",
		"./internal/client", "TestVacateAllSkipsSurrenderedLease"},
	{"internal/sim/sim.go",
		"		if e.queued.Load() > 0 {",
		"		if ev := e.peek(); e.queued.Load() > 0 && (ev == nil || ev.when > wall) {",
		"./internal/sim", "TestPostRunsWhileBehind"},
	{"internal/server/frontends.go",
		"				if !j.dg.Duplicated {",
		"				if j.req != nil {",
		"./internal/server", "TestDuplicatedRequestServedTwice"},
	{"internal/metrics/histogram.go",
		"	i := int64(math.Float64bits(v))>>histShift - histBase",
		"	i := int64(math.Float64bits(v))>>histShift - histBase + 1",
		"./internal/metrics", "TestHistogramQuantileBound"},
	{"internal/metrics/histogram.go",
		"	return math.Float64frombits(uint64(int64(i)+histBase)<<histShift | 1<<(histShift-1))",
		"	return math.Float64frombits(uint64(int64(i)+histBase) << histShift)",
		"./internal/metrics", "TestHistogramQuantileBound"},
	{"internal/stats/stats.go",
		"func Rank(p float64, n int) int { return min(max(int(math.Ceil(p*float64(n)/100)), 1), n) }",
		"func Rank(p float64, n int) int { return min(max(int(math.Round(p*float64(n)/100)), 1), n) }",
		"./internal/stats", "TestQuantileMatchesSort"},
	{"internal/nfsnet/kerndrops_linux.go",
		"	skMeminfoDrops = 8",
		"	skMeminfoDrops = 7",
		"./internal/nfsnet", "TestKernelDropsCounted"},
	{"internal/tcpsim/tcpsim.go",
		"		c.input(dg)\n",
		"		c.input(dg)\n		c.env.At(c.nextTick, c.tick)\n",
		".", "TestTCPLoopWork"},
	{"internal/tcpsim/tcpsim.go",
		"	c.nextTick += Tick\n	if c.delayAck {\n		c.delayAck = false\n		c.needAck = true\n	}\n",
		"	c.nextTick += Tick\n",
		"./internal/tcpsim", "TestSlowTimeoutFlushesDelayedAck"},
	{"internal/vfs/bufcache.go",
		"	if !b.Dirty && b.Data != nil {",
		"	if b.Data != nil {",
		"./internal/client", "TestSweepHintCoversDirtyBuffers"},
	{"internal/client/io.go",
		"			m.awaitBlock(p, vn, block)\n			if err := m.readRPC(p, vn, block); err != nil {\n				return int(got), err\n",
		"			if err := m.readRPC(p, vn, block); err != nil {\n				return int(got), err\n",
		"./internal/client", "TestRandomizedIOAgainstModel"},
	{"internal/client/client.go",
		"		if err != nil || proc == nfsproto.ProcLease || attempt >= 8 {",
		"		if err != nil || proc == nfsproto.ProcLease || attempt >= 0 {",
		"./internal/client", "TestPlainClientGetsTryLaterThenData"},
	// The header-only procedures' one wrapper: both server entries run it,
	// so the differential fuzz cannot see these; the simulated tables must.
	{"internal/server/fastpath.go",
		"		s.lookupCore(p, peer, fh, name, hint, sp, &res)",
		"		s.lookupCore(p, peer, fh, name, nil, sp, &res)",
		".", "TestQuickTablesGolden"},
	{"internal/server/procs.go",
		"	nfsproto.EncodeDirEndBytes(w, eof)",
		"	nfsproto.EncodeDirEndBytes(w, eof && false)",
		".", "TestQuickTablesGolden"},
	// The chain entry's reply layout: no table sends a long name through
	// page-remap transmit, so the pinned edge cases hold the clusters.
	{"internal/server/fastpath.go",
		"		if n > mbuf.MLen {",
		"		if n > mbuf.ClBytes {",
		"./internal/server", "TestHeaderOnlyEdgesPinned"},
	// Every header-only reply fits the room its caller passes: a TCP
	// connection's flat buffer one 4 KB slot long (what the byte entry's
	// READDIR decline once allowed) cannot hold a 9.4 KB READDIR reply.
	{"internal/nfsnet/nfsnet.go",
		"	flat := make([]byte, 4+server.FastReplyMax)",
		"	flat := make([]byte, 4+4096)",
		"./internal/nfsnet", "TestAllocBudgetTCP"},
	// A record's fragments together stay under MaxRecord, not each alone.
	{"internal/rpc/rpc.go",
		"		if m > MaxRecord-s.n {",
		"		if m > MaxRecord {",
		"./internal/rpc", "TestRecordTooBig"},
	// A recvmmsg fill is served out before the reader blocks again: a
	// datagram left in the probe would wait for the next arrival.
	{"internal/nfsnet/nfsnet.go",
		"			if probe.pending() == 0 && (!owned || nread >= maxBatch) {",
		"			if !owned || nread >= maxBatch {",
		"./internal/nfsnet", "TestSpanPipelineConcurrent"},
	// Recycled records: a reply handed back frees the message its decoder
	// reads, so it goes back only once the READ data is copied out; a
	// duplicated frame's copy holds the datagram; a recycled datagram comes
	// back clean.
	{"internal/client/io.go",
		"		res, n, err := nfsproto.DecodeReadResTo(d, page[off:])\n		m.tr.Release(d)\n",
		"		m.tr.Release(d)\n		res, n, err := nfsproto.DecodeReadResTo(d, page[off:])\n",
		"./internal/client", "TestRandomizedIOAgainstModel"},
	{"internal/netsim/link.go",
		"			pk.dg.refs++ // the copy may deliver the datagram a second time\n",
		"",
		"./internal/netsim", "TestDuplicateHoldsRecycledDatagram"},
	{"internal/netsim/net.go",
		"	*dg = Datagram{home: home}",
		"	*dg = Datagram{home: home, Corrupted: dg.Corrupted}",
		"./internal/netsim", "TestRecycledDatagramCarriesNoFault"},
}

// TestMutants plants each mutant through go test -overlay (the working
// tree is never written) and requires its test to run and fail. It is slow
// — every row recompiles a package and what depends on it — so it runs only
// with RENONFS_MUTANTS=1: make mutants.
func TestMutants(t *testing.T) {
	if os.Getenv("RENONFS_MUTANTS") != "1" {
		t.Skip("set RENONFS_MUTANTS=1 (make mutants) to run the mutation checks")
	}
	dir := t.TempDir()
	for i, m := range mutants {
		src, err := os.ReadFile(m.file)
		if err != nil {
			t.Fatal(err)
		}
		switch strings.Count(string(src), m.anchor) {
		case 0:
			t.Fatalf("%s: stale anchor %q: the code is gone, update the row", m.file, m.anchor)
		case 1:
		default:
			t.Fatalf("%s: anchor %q is not unique", m.file, m.anchor)
		}
		line := 1 + strings.Count(string(src[:strings.Index(string(src), m.anchor)]), "\n")
		abs, err := filepath.Abs(m.file)
		if err != nil {
			t.Fatal(err)
		}
		mutated := filepath.Join(dir, filepath.Base(m.file)+".mutant")
		overlay := filepath.Join(dir, "overlay.json")
		cfg, _ := json.Marshal(map[string]map[string]string{"Replace": {abs: mutated}})
		if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), m.anchor, m.repl, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(overlay, cfg, 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := exec.Command("go", "test", "-overlay", overlay, "-count=1", "-v",
			"-run", "^"+m.test+"$", m.pkg).CombinedOutput()
		switch {
		case strings.Contains(string(out), "[build failed]") || strings.Contains(string(out), "[setup failed]"):
			t.Errorf("mutant %d (%s) does not compile:\n%s", i, m.file, out)
		case !strings.Contains(string(out), "=== RUN   "+m.test):
			t.Errorf("mutant %d: %s did not run in %s:\n%s", i, m.test, m.pkg, out)
		case err == nil:
			t.Errorf("mutant %d survived: %s still passes with %s:%d as %q", i, m.test, m.file, line, m.repl)
		default:
			t.Logf("mutant %d killed by %s (%s:%d)", i, m.test, m.file, line)
		}
	}
}
