package main

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/iotest"

	"renonfs"
	"renonfs/internal/mbuf"
	"renonfs/internal/nfsproto"
)

func TestPercentileRefusesUnderSampled(t *testing.T) {
	sample := make([]uint32, 999)
	for i := range sample {
		sample[i] = uint32(i + 1)
	}
	if _, ok := percentile(sample, 0.99); ok {
		t.Error("p99 of 999 samples was reported; it needs 1000")
	}
	if v, ok := percentile(append(sample, 1000), 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if v, ok := percentile(sample[:20], 0.50); !ok || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10, true", v, ok)
	}
	if _, ok := percentile(sample[:19], 0.50); ok {
		t.Error("p50 of 19 samples was reported; it needs 20")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("a percentile of nothing was reported")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, med, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || med != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v %v %v", q1, med, q3)
	}
}

// fakeDataset stands in for populate: handles only need to be distinct.
func fakeDataset() *dataset {
	ds := &dataset{dir: nfsproto.MakeFH(1, 2, 1)}
	id := uint32(3)
	for _, n := range []struct {
		list *[]nfsproto.FH
		n    int
	}{{&ds.files, metaFiles}, {&ds.links, metaLinks}, {&ds.data, dataFiles}} {
		for i := 0; i < n.n; i++ {
			*n.list = append(*n.list, nfsproto.MakeFH(1, id, 1))
			id++
		}
	}
	return ds
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	ds := fakeDataset()
	for i := range workloads {
		w := &workloads[i]
		if w.mix == nil {
			continue
		}
		a, b, c := buildStream(w, ds, 1991), buildStream(w, ds, 1991), buildStream(w, ds, 4391)
		if a.sha256 != b.sha256 {
			t.Errorf("%s: one seed gave two streams", w.name)
		}
		if a.sha256 == c.sha256 {
			t.Errorf("%s: two seeds gave one stream", w.name)
		}
		if len(a.tmpl) != streamLen {
			t.Fatalf("%s: %d templates", w.name, len(a.tmpl))
		}
		// Every cycle must leave the directory as it found it.
		created := -1
		for j, tm := range a.tmpl {
			switch tm.kind {
			case opCreate:
				if created >= 0 {
					t.Fatalf("%s: template %d creates while %d is not removed", w.name, j, created)
				}
				created = j
			case opRemove:
				if created < 0 {
					t.Fatalf("%s: template %d removes nothing", w.name, j)
				}
				created = -1
			}
		}
		if created >= 0 {
			t.Errorf("%s: the CREATE at %d is never removed", w.name, created)
		}
	}
}

func TestProcParsers(t *testing.T) {
	stat := []byte("4242 (nfsd (x) y) S 1 4242 4242 0 -1 4194560 2617 0 0 0 1234 567 0 0 20 0 11 0 8736 1 2 3\n")
	ut, st, err := parseStat(stat)
	if err != nil || ut != 1234 || st != 567 {
		t.Errorf("parseStat = %d, %d, %v; want 1234, 567", ut, st, err)
	}
	if _, _, err := parseStat([]byte("4242 nfsd S 1")); err == nil {
		t.Error("parseStat accepted a line without a command field")
	}
	if _, _, err := parseStat([]byte("4242 (nfsd) S 1 2 3")); err == nil {
		t.Error("parseStat accepted a truncated line")
	}
	status := []byte("Name:\tnfsd\nVmPeak:\t 1749832 kB\nVmHWM:\t   47992 kB\nVmRSS:\t   40000 kB\nvoluntary_ctxt_switches:\t812\nnonvoluntary_ctxt_switches:\t9\n")
	for key, want := range map[string]int64{"VmHWM": 47992, "voluntary_ctxt_switches": 812, "nonvoluntary_ctxt_switches": 9} {
		if v, ok := statusField(status, key); !ok || v != want {
			t.Errorf("statusField(%s) = %d, %v; want %d", key, v, ok, want)
		}
	}
	if _, ok := statusField(status, "VmSwap"); ok {
		t.Error("statusField found a missing key")
	}
}

func TestReadRecordAcrossSplitReads(t *testing.T) {
	frag := func(last bool, p []byte) []byte {
		m := uint32(len(p))
		if last {
			m |= 1 << 31
		}
		return append(binary.BigEndian.AppendUint32(nil, m), p...)
	}
	big := bytes.Repeat([]byte("0123456789abcdef"), 600) // 9600 bytes, beyond one read of any buffer below
	var stream []byte
	stream = append(stream, frag(true, []byte("first"))...)
	stream = append(stream, frag(false, big[:5000])...) // one record in two fragments
	stream = append(stream, frag(true, big[5000:])...)
	stream = append(stream, frag(true, nil)...)
	stream = append(stream, frag(true, []byte("last"))...)
	for name, r := range map[string]*bytes.Reader{"whole": bytes.NewReader(stream), "bytewise": bytes.NewReader(stream)} {
		var src interface{ Read([]byte) (int, error) } = r
		if name == "bytewise" {
			src = iotest.OneByteReader(r) // every mark and every body split across reads
		}
		buf := make([]byte, 0, 64) // too small on purpose: readRecord must grow it
		for i, want := range [][]byte{[]byte("first"), big, nil, []byte("last")} {
			got, err := readRecord(src, buf)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: record %d = %d bytes, %v; want %d bytes", name, i, len(got), err, len(want))
			}
		}
		if _, err := readRecord(src, buf); err == nil {
			t.Errorf("%s: a record was read past the end of the stream", name)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	for _, c := range []struct {
		worse, iqr, bound float64
		want              string
	}{
		{0.12, 0.02, 0.10, "worse"},      // beyond the bound and the spread
		{-0.12, 0.02, 0.10, "better"},    // the same, the other way
		{0.05, 0.02, 0.10, "unchanged"},  // inside the bound, spread tight
		{0.12, 0.15, 0.10, "unresolved"}, // beyond the bound but inside the spread
		{0.02, 0.15, 0.10, "unresolved"}, // spread wider than the bound: nothing can be said
		{0.10, 0.02, 0.10, "unchanged"},  // exactly at the bound is not beyond it
		{0.30, 0.30, 0.10, "unresolved"}, // exactly at the spread is not beyond it
		{-0.001, 0.0, 0.10, "unchanged"},
	} {
		if got := verdict(c.worse, c.iqr, c.bound); got != c.want {
			t.Errorf("verdict(worse %v, iqr %v, bound %v) = %s, want %s", c.worse, c.iqr, c.bound, got, c.want)
		}
	}
	set := func(opsPerS ...float64) *runSet {
		s := &runSet{Comparable: true}
		for _, v := range opsPerS {
			s.Runs = append(s.Runs, runRecord{Workload: "w", Result: wireResult{Metrics: map[string]wireMetric{
				"ops_per_s": {Value: v, Unit: "ops/s"}, "lat_p50_us": {Value: 1e6 / v, Unit: "us"}}}})
		}
		return s
	}
	defs := map[string]specMetric{"ops_per_s": {Better: "higher", Bound: 0.10}, "lat_p50_us": {Better: "lower", Bound: 0.10}}
	cells := compareSets(set(100, 101, 99, 100, 102), set(80, 81, 79, 80, 82), defs)
	if len(cells) != 2 {
		t.Fatalf("%d cells, want 2", len(cells))
	}
	for _, c := range cells {
		// A fifth fewer ops/s is worse; so is the latency that goes with it.
		if c.verdict != "worse" || c.worse < 0.15 || c.na != 5 || c.nb != 5 {
			t.Errorf("%s: %+v", c.metric, c)
		}
	}
}

// TestSpecMatchesCode holds BENCHMARK.json to the tables the program reports
// from, so the driver never asks for a metric the program does not print.
func TestSpecMatchesCode(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	check := func(list string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", list, len(got), len(want))
			return
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", list, i, g, w)
			}
			if bounded != (g.Bound > 0) || g.Bound > 0.25 {
				t.Errorf("%s[%d] %s: bound %v", list, i, g.Name, g.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eMetrics, true)
	check("per_layer", spec.PerLayer, layerMetrics, false)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the program", i, spec.Workloads[i].Name, w.name)
		}
	}
	exps := renonfs.Experiments()
	if len(exps) != len(simExperimentIDs) {
		t.Fatalf("%d experiments registered, %d listed", len(exps), len(simExperimentIDs))
	}
	for i, e := range exps {
		if e.ID != simExperimentIDs[i] {
			t.Errorf("experiment %d: %s registered, %s listed", i, e.ID, simExperimentIDs[i])
		}
	}
}

// TestVerifyCatchesWrongReplies runs real replies from an in-process server
// through the generator's checks, then damages them.
func TestVerifyCatchesWrongReplies(t *testing.T) {
	w := findWorkload("read8k_udp")
	srv, _ := newLadderServer()
	ds, err := populate(&localCaller{srv: srv}, srv.RootFH(), w, 7)
	if err != nil {
		t.Fatal(err)
	}
	g := newLoadgen(buildStream(w, ds, 7), w.window, nil)
	tm := &g.s.tmpl[0]
	sl := &slot{xid: xidBase, tmpl: 0, gen: uint32(tm.block), live: true}
	binary.BigEndian.PutUint32(tm.wire, sl.xid)
	rep := srv.HandleCall(nil, "test", mbuf.FromBytes(tm.wire)).Bytes()
	if why := g.verify(rep, sl); why != "" {
		t.Fatalf("a correct READ reply failed: %s", why)
	}
	damage := func(name string, off int) {
		bad := append([]byte(nil), rep...)
		bad[off] ^= 1
		if g.verify(bad, sl) == "" {
			t.Errorf("a reply with a wrong %s passed", name)
		}
	}
	damage("accept stat", 23)
	damage("NFS status", replyHdr+3)
	damage("first payload byte", replyHdr+4+fattrBytes+4)
	damage("last payload byte", len(rep)-1)
	damage("middle payload byte (xid 0 is CRC-checked)", replyHdr+4+fattrBytes+4+4096)
	sl.gen++
	if g.verify(rep, sl) == "" {
		t.Error("a reply holding another generation of the block passed")
	}
}
