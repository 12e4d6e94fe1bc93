package renonfs

import (
	"reflect"
	"testing"
	"time"

	"renonfs/internal/nfsproto"
	"renonfs/internal/sim"
	"renonfs/internal/stats"
	"renonfs/internal/workload"
)

func TestRigSmoke(t *testing.T) {
	r := NewRig(RigConfig{Seed: 1})
	defer r.Close()
	var got string
	r.Env.Spawn("smoke", func(p *sim.Proc) {
		m, err := r.Mount(p, TCP, RenoClient())
		if err != nil {
			t.Errorf("mount: %v", err)
			return
		}
		f, err := m.Create(p, "hello.txt", 0644)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		f.Write(p, []byte("hello over tcp"))
		f.Close(p)
		g, err := m.Open(p, "hello.txt")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		buf := make([]byte, 64)
		n, _ := g.Read(p, buf)
		got = string(buf[:n])
		g.Close(p)
	})
	r.Env.Run(5 * time.Minute)
	if got != "hello over tcp" {
		t.Fatalf("got %q", got)
	}
}

func TestExperimentRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("malformed experiment: %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
	}
	want := []string{"graph1", "graph2", "graph3", "graph4", "graph5", "table1",
		"graph6", "graph7", "graph8", "graph9", "profile3",
		"table2", "table3", "table4", "table5", "appendixA", "ablations",
		"futurework", "saturation"}
	for _, id := range want {
		if !seen[id] {
			t.Fatalf("missing experiment %q", id)
		}
	}
	if _, err := RunExperiment("no-such", ExpConfig{}); err == nil {
		t.Fatal("unknown experiment did not error")
	}
}

// quick is the configuration the shape and knob tests run at (seed 1991).
var quick = ExpConfig{Quick: true}

func TestGraph1QuickShape(t *testing.T) {
	c := expGraphRTT(TopoLAN, workload.DefaultLookupMix(), nfsproto.ProcLookup, lanLookupLoads)(quick)
	tb := c.tables()[0]
	if len(c.Points) != 3 {
		t.Fatalf("points = %d:\n%s", len(c.Points), tb)
	}
	// At the lowest load on a clean LAN: TCP lookups should cost a few ms
	// more than UDP (the paper: ~+7ms fixed offset).
	udpDyn, tcp := c.Points[0][1], c.Points[0][2]
	if udpDyn.N == 0 || tcp.N == 0 {
		t.Fatalf("lowest load: udp-dyn %d, tcp %d lookups\n%s", udpDyn.N, tcp.N, tb)
	}
	if tcp.Mean <= udpDyn.Mean {
		t.Errorf("LAN lookup RTT: tcp %.2f <= udp-dyn %.2f; paper shows a TCP premium\n%s", tcp.Mean, udpDyn.Mean, tb)
	}
	if tcp.Mean-udpDyn.Mean > 40 {
		t.Errorf("TCP premium %.2f ms implausibly large\n%s", tcp.Mean-udpDyn.Mean, tb)
	}
}

func TestGraph6QuickShape(t *testing.T) {
	c := expGraph6(quick)
	if len(c) != 3 {
		t.Fatalf("points = %d\n%s", len(c), c.tables()[0])
	}
	// Averaged over the load points, TCP must cost more server CPU than
	// UDP, in the ballpark of the paper's ~20%.
	sum := 0.0
	for _, p := range c {
		sum += p.Ratio()
	}
	if ratio := sum / float64(len(c)); ratio < 1.05 || ratio > 1.6 {
		t.Errorf("mean tcp/udp server CPU ratio = %.2f, want ~1.2\n%s", ratio, c.tables()[0])
	}
}

func TestProfile3QuickShape(t *testing.T) {
	n := expProfile3(quick)
	if len(n.Profile[0]) == 0 || len(n.Profile[1]) == 0 {
		t.Fatalf("profile buckets: %d before, %d after", len(n.Profile[0]), len(n.Profile[1]))
	}
	// The top pre-tuning bucket must be the NIC copy path (§3: over a
	// third of CPU cycles in low-level network interface handling).
	if top := n.Profile[0][0].Name; top != "nic_copy" {
		t.Errorf("top bucket before tuning = %q, want nic_copy\n%s", top, n.tables()[0])
	}
	// Saving within a plausible band around the paper's ~12%.
	if saving := n.Saving(); saving < 5 || saving > 30 {
		t.Errorf("tuning saving = %.1f%%, want 5-30%%\n%s", saving, n.tables()[2])
	}
}

func TestGraph8QuickShape(t *testing.T) {
	c := expServerCompare(workload.DefaultLookupMix(), nfsproto.ProcLookup)(quick)
	tb := c.tables()[0]
	if len(c.Points) != 3 {
		t.Fatalf("points = %d\n%s", len(c.Points), tb)
	}
	// The Ultrix server must be slower for lookups at every load.
	for i, p := range c.Points {
		if p.Reno.N == 0 || p.Ultrix.N == 0 {
			t.Errorf("load %.0f: reno %d, ultrix %d lookups\n%s", p.Load, p.Reno.N, p.Ultrix.N, tb)
		} else if p.Ultrix.Mean <= p.Reno.Mean {
			t.Errorf("row %d: ultrix %.2f <= reno %.2f\n%s", i, p.Ultrix.Mean, p.Reno.Mean, tb)
		}
	}
}

func TestTable5QuickShape(t *testing.T) {
	cd := expTable5(quick)
	tb := cd.tables()[0]
	if len(cd) != 6 {
		t.Fatalf("rows = %d\n%s", len(cd), tb)
	}
	for _, r := range cd {
		for _, run := range r.Runs {
			if !run.OK {
				t.Fatalf("%s: a run did not finish\n%s", r.Name, tb)
			}
		}
	}
	// 100KB column: local < write-thru; noconsist dramatically faster
	// than every consistent NFS config (Table 5's headline).
	local, wthru, noc := cd[0].Runs[2].MeanMS, cd[1].Runs[2].MeanMS, cd[5].Runs[2].MeanMS
	if !(local < wthru) {
		t.Errorf("local %.0f >= write-thru %.0f\n%s", local, wthru, tb)
	}
	if !(noc*3 < wthru) {
		t.Errorf("noconsist %.0f not << write-thru %.0f\n%s", noc, wthru, tb)
	}
	// No-data column: all NFS configs within the same ballpark.
	for _, r := range cd[1:] {
		if v := r.Runs[0].MeanMS; v <= 0 || v > 3000 {
			t.Errorf("%s no-data = %.0f ms\n%s", r.Name, v, tb)
		}
	}
}

func TestFutureWorkQuickShape(t *testing.T) {
	f := expFutureWork(quick)
	if len(f.Leases) != 3 || len(f.CD) != 3 || len(f.Ls) != 2 || len(f.Adaptive) != 2 {
		t.Fatalf("runs: %d leases, %d create-delete, %d ls, %d adaptive",
			len(f.Leases), len(f.CD), len(f.Ls), len(f.Adaptive))
	}
	// Create-Delete 100K: leases must land near the noconsist bound and
	// far below push-on-close Reno.
	reno, leases, bound := f.CD[0], f.CD[1], f.CD[2]
	if !reno.OK || !leases.OK || !bound.OK {
		t.Fatalf("a Create-Delete run did not finish\n%s", f.tables()[1])
	}
	if !(leases.MeanMS < reno.MeanMS/2) {
		t.Errorf("leases %.0f not well below push-on-close %.0f\n%s", leases.MeanMS, reno.MeanMS, f.tables()[1])
	}
	if leases.MeanMS > 2*bound.MeanMS {
		t.Errorf("leases %.0f far from the noconsist bound %.0f\n%s", leases.MeanMS, bound.MeanMS, f.tables()[1])
	}
	// ls -lR: the extension must collapse the per-file lookup storm.
	std, ext := f.Ls[0], f.Ls[1]
	if !std.OK || !ext.OK {
		t.Fatalf("an ls -lR run did not finish\n%s", f.tables()[2])
	}
	if !(ext.RPC.TotalCalls()*5 < std.RPC.TotalCalls()) {
		t.Errorf("readdirlook total %d not <<5x standard %d\n%s", ext.RPC.TotalCalls(), std.RPC.TotalCalls(), f.tables()[2])
	}
}

func TestTable3QuickShape(t *testing.T) {
	a := expTable3(quick)
	for _, run := range a {
		if !run.OK {
			t.Fatalf("%s: the run did not finish", run.Name)
		}
	}
	reno, noconsist, ultrix := a[0].RPC.Calls, a[1].RPC.Calls, a[2].RPC.Calls
	lk, rd, wr := nfsproto.ProcLookup, nfsproto.ProcRead, nfsproto.ProcWrite
	if !(float64(ultrix[lk]) > 1.5*float64(reno[lk])) {
		t.Errorf("lookups: Ultrix should be >1.5x Reno\n%s", a.tables()[0])
	}
	if !(reno[rd] > ultrix[rd]) {
		t.Errorf("reads: Reno should exceed Ultrix\n%s", a.tables()[0])
	}
	if !(ultrix[wr] > reno[wr]) || !(noconsist[wr] < reno[wr]) {
		t.Errorf("writes: want Ultrix > Reno > noconsist\n%s", a.tables()[0])
	}
}

func TestSaturationQuickShape(t *testing.T) {
	sat := expSaturation(quick)
	tb := sat.tables()[0]
	if len(sat) != 3 {
		t.Fatalf("points = %d\n%s", len(sat), tb)
	}
	// At the lowest load the server keeps up; at the highest it is
	// CPU-saturated and the achieved rate has plateaued well below offered.
	low, hi := sat[0], sat[2]
	// Quick windows undercount window-edge operations; 70% is plenty to
	// distinguish "keeping up" from the saturated plateau.
	if low.Achieved < 0.7*low.Offered {
		t.Errorf("under light load achieved %.1f << offered %.1f\n%s", low.Achieved, low.Offered, tb)
	}
	if hi.Achieved > 0.75*hi.Offered {
		t.Errorf("no saturation: achieved %.1f at offered %.1f\n%s", hi.Achieved, hi.Offered, tb)
	}
	if hi.CPU < 0.6 {
		t.Errorf("server CPU %.0f%% at saturation; should be CPU bound\n%s", 100*hi.CPU, tb)
	}
	// Response time degrades across the sweep.
	if !(hi.LookupRTT > 2*low.LookupRTT) {
		t.Errorf("RTT did not degrade with load\n%s", tb)
	}
}

// TestRenderMissingCells renders runs that did not finish. No seed the
// goldens pin prints a "-", so these rows are the only check on those
// paths; each wanted row is what the renderer printed before the typed
// results, one AddRow argument per cell.
func TestRenderMissingCells(t *testing.T) {
	for _, c := range []struct {
		name string
		r    interface{ tables() []*stats.Table }
		want [][]string
	}{
		{"graphs 1-5", rttCurve{Loads: []float64{10}, Points: [][3]rttPoint{{{N: 4, Mean: 6.44, P99: 8.2, Retries: 1}, {}, {N: 9, Mean: 7.5, P99: 11.46}}}},
			[][]string{{"10.0", "6.4", "-", "7.5", "8.2", "-", "11.5", "1/0/0"}}},
		{"table 1", readRates{{Topo: TopoSlow, Offered: 4, Rate: [3]float64{0.157, 0, 0.4}, OK: [3]bool{true, false, true}}},
			[][]string{{"56kbps-link", "4.0", "0.16", "-", "0.40"}}},
		{"graphs 8-9: a failed run drops its load", serverCurve{Points: []serverPoint{{Load: 10, Reno: rttPoint{N: 3, Mean: 5}}}}, nil},
		{"tables 2 and 4", andrewTimes{Runs: []andrewRun{{Name: "Reno", OK: true, AndrewResult: workload.AndrewResult{PhaseTimes: [5]time.Duration{100 * time.Second, 51600 * time.Millisecond, 0, 0, 40 * time.Second}}}, {Name: "Ultrix2.2"}}},
			[][]string{{"Reno", "152", "40"}, {"Ultrix2.2", "-", "-"}}},
		{"table 5", cdTable{{Name: "write thru", Runs: [3]cdRun{{OK: true, MeanMS: 250.4}, {}, {OK: true, MeanMS: 1600.6}}}},
			[][]string{{"write thru", "250", "-", "1601"}}},
		{"ablations", ablations{LAN: []ablationRow{{Name: "A+2D for big RPCs"}}},
			[][]string{{"A+2D for big RPCs", "-", "-", "-", "-"}}},
		{"future work", futureWork{
			Leases:   []andrewRun{{Name: "Reno (push-on-close)"}},
			CD:       []cdRun{{}},
			Ls:       []lsRun{{Name: "Reno + readdirlook"}},
			Adaptive: []adaptiveRun{{Name: "adaptive reads"}},
		}, [][]string{
			{"Reno (push-on-close)", "-", "-", "-", "yes"},
			{"Reno (push-on-close)", "-"},
			{"Reno + readdirlook", "-", "-", "-", "-"},
			{"adaptive reads", "-", "-", "-"},
		}},
	} {
		var got [][]string
		for _, tb := range c.r.tables() {
			got = append(got, tb.Rows...)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: rows %q, want %q", c.name, got, c.want)
		}
	}
}
