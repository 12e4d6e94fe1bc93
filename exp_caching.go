package renonfs

import (
	"time"

	"renonfs/internal/client"
	"renonfs/internal/memfs"
	"renonfs/internal/nfsproto"
	"renonfs/internal/server"
	"renonfs/internal/sim"
	"renonfs/internal/stats"
	"renonfs/internal/workload"
)

// andrewRun is one Modified Andrew Benchmark run; OK is false when it did
// not finish.
type andrewRun struct {
	Name string
	OK   bool
	workload.AndrewResult
}

// runAndrew runs the Modified Andrew Benchmark against a fresh rig.
// clientMIPS selects the client host speed, srvOpts the server
// personality, kind the transport, and opts the client personality.
func runAndrew(seed int64, clientMIPS float64, srvOpts server.Options, kind TransportKind, opts client.Options) andrewRun {
	r := NewRig(RigConfig{
		Seed: seed, Topology: TopoLAN,
		ServerOpts: srvOpts, ClientMIPS: clientMIPS, ServerDisk: true,
	})
	defer r.Close()
	files := workload.AndrewTree()
	var run andrewRun
	if err := workload.PreloadServerTree(r.FS, files); err != nil {
		return run
	}
	runWorkload(r.Env, "mab", 12*time.Hour, func(p *sim.Proc) {
		m, err := r.Mount(p, kind, opts)
		if err != nil {
			return
		}
		if res, err := workload.RunAndrew(p, m, files); err == nil && res != nil {
			run.OK, run.AndrewResult = true, *res
		}
	})
	return run
}

// andrewConfig is one Andrew benchmark row: its name, transport, and
// server and client personalities.
type andrewConfig struct {
	name string
	kind TransportKind
	srv  server.Options
	opts client.Options
}

// andrewRuns runs the Andrew benchmark once per row, at seeds counting up
// from the experiment's, on a client of the given MIPS.
func andrewRuns(cfg ExpConfig, mips float64, rows []andrewConfig) []andrewRun {
	runs := make([]andrewRun, len(rows))
	for i, row := range rows {
		runs[i] = runAndrew(cfg.seed()+int64(i), mips, row.srv, row.kind, row.opts)
		runs[i].Name = row.name
	}
	return runs
}

// andrewTimes is Table 2 or 4: an Andrew run per client or server
// configuration.
type andrewTimes struct {
	title string
	Runs  []andrewRun
}

func (a andrewTimes) tables() []*stats.Table {
	t := stats.NewTable(a.title, "OS/Phase", "I-IV", "V")
	for _, r := range a.Runs {
		t.AddRow(r.Name, fixed(float64(r.PhaseI_IV())/1e9, 0, r.OK), fixed(float64(r.PhaseTimes[4])/1e9, 0, r.OK))
	}
	return []*stats.Table{t}
}

// expTable2 reproduces Table #2: MAB elapsed times on a MicroVAXII client
// for the four client configurations, against the Reno server.
func expTable2(cfg ExpConfig) andrewTimes {
	nopush := client.Reno()
	nopush.Name = "reno-nopush"
	nopush.PushOnClose = false
	return andrewTimes{"Table #2: Mod Andrew Bench, MicroVAXII client (sec)", andrewRuns(cfg, 0 /* MicroVAXII default */, []andrewConfig{
		{"Reno", UDPDynamic, server.Reno(), client.Reno()},
		{"Reno-TCP", TCP, server.Reno(), client.Reno()},
		{"Reno-nopush", UDPDynamic, server.Reno(), nopush},
		{"Ultrix2.2", UDPDynamic, server.Reno(), client.Ultrix()},
	})}
}

// andrewCounts is Table 3: one Andrew run each for Reno, Reno-noconsist
// and Ultrix clients; the table prints their RPC counts if all finished.
type andrewCounts []andrewRun

// table3Procs are Table 3's rows before Other and Total.
var table3Procs = []struct {
	name string
	proc uint32
}{
	{"Getattr", nfsproto.ProcGetattr},
	{"Setattr", nfsproto.ProcSetattr},
	{"Read", nfsproto.ProcRead},
	{"Write", nfsproto.ProcWrite},
	{"Lookup", nfsproto.ProcLookup},
	{"Readdir", nfsproto.ProcReaddir},
}

// Other counts column i's RPCs outside table3Procs.
func (a andrewCounts) Other(i int) int {
	n := a[i].RPC.TotalCalls()
	for _, row := range table3Procs {
		n -= a[i].RPC.Calls[row.proc]
	}
	return n
}

// expTable3 reproduces Table #3: MAB RPC counts for Reno, Reno-noconsist
// and Ultrix clients.
func expTable3(cfg ExpConfig) andrewCounts {
	return andrewRuns(cfg, 0, []andrewConfig{
		{"Reno", UDPDynamic, server.Reno(), client.Reno()},
		{"Reno-noconsist", UDPDynamic, server.Reno(), client.RenoNoConsist()},
		{"Ultrix2.2", UDPDynamic, server.Reno(), client.Ultrix()},
	})
}

func (a andrewCounts) tables() []*stats.Table {
	t := stats.NewTable("Table #3: Mod Andrew Bench RPC counts, MicroVAXII client",
		"RPC", "Reno", "Reno-noconsist", "Ultrix2.2")
	if !a[0].OK || !a[1].OK || !a[2].OK {
		return []*stats.Table{t}
	}
	for _, row := range table3Procs {
		t.AddRow(row.name, a[0].RPC.Calls[row.proc], a[1].RPC.Calls[row.proc], a[2].RPC.Calls[row.proc])
	}
	t.AddRow("Other", a.Other(0), a.Other(1), a.Other(2))
	t.AddRow("Total", a[0].RPC.TotalCalls(), a[1].RPC.TotalCalls(), a[2].RPC.TotalCalls())
	return []*stats.Table{t}
}

// expTable4 reproduces Table #4: MAB on a DS3100-class client against the
// Reno and Ultrix servers. The DS3100 runs DEC's own client (Ultrix), as
// it did in the paper; only the server varies.
func expTable4(cfg ExpConfig) andrewTimes {
	return andrewTimes{"Table #4: Mod Andrew Bench, DS3100 client (sec)", andrewRuns(cfg, 12.0 /* DS3100 MIPS */, []andrewConfig{
		{"Reno", UDPDynamic, server.Reno(), client.Ultrix()},
		{"Ultrix2.2", UDPDynamic, server.Ultrix(), client.Ultrix()},
	})}
}

// cdRun is one Create-Delete run: the mean ms per file and the client's
// RPCs; OK is false when it did not finish.
type cdRun struct {
	OK     bool
	MeanMS float64
	RPC    client.Stats
}

// runCreateDelete runs iters Create-Deletes of size-byte files named after
// config on a fresh rig: over NFS with opts, or on the client's own disk
// when local.
func runCreateDelete(rig RigConfig, local bool, opts client.Options, config string, size, iters int) cdRun {
	r := NewRig(rig)
	defer r.Close()
	var run cdRun
	runWorkload(r.Env, "cd", 8*time.Hour, func(p *sim.Proc) {
		var fs workload.BenchFS
		if local {
			fs = workload.NewLocalFS(r.Env, memfs.New(2, memfs.NewRD53(r.Env, "client.rd53"), nil))
		} else {
			m, err := r.Mount(p, UDPDynamic, opts)
			if err != nil {
				return
			}
			defer func() { run.RPC = m.Stats }()
			fs = workload.MountFS{M: m}
		}
		if res, err := workload.RunCreateDelete(p, fs, config, size, iters); err == nil {
			run.OK, run.MeanMS = true, res.MeanMS
		}
	})
	return run
}

// cdTable is Table 5: a Create-Delete run per configuration and file size
// (0, 10 KB, 100 KB).
type cdTable []struct {
	Name string
	Runs [3]cdRun
}

// expTable5 reproduces Table #5: the Create-Delete benchmark across write
// policies and file sizes, including the local-filesystem baseline.
func expTable5(cfg ExpConfig) cdTable {
	sizes := []int{0, 10 * 1024, 100 * 1024}
	iters := 10
	if cfg.Quick {
		iters = 4
	}
	type rowSpec struct {
		name  string
		local bool
		opts  client.Options
	}
	policy := func(name string, pol client.WritePolicy, biods int) client.Options {
		o := client.Reno()
		o.Name, o.Policy, o.Biods = name, pol, biods
		return o
	}
	biods := client.Reno().Biods
	rows := []rowSpec{
		{name: "Local", local: true},
		{name: "write thru", opts: policy("write-thru", client.WriteThrough, biods)},
		{name: "async,4biod", opts: policy("async-4biod", client.WriteAsync, 4)},
		{name: "async,16biod", opts: policy("async-16biod", client.WriteAsync, 16)},
		{name: "delay wrt.", opts: policy("delay-wrt", client.WriteDelayed, biods)},
		{name: "no consist", opts: client.RenoNoConsist()},
	}
	t := make(cdTable, len(rows))
	for ri, row := range rows {
		t[ri].Name = row.name
		for si, size := range sizes {
			rig := RigConfig{Seed: cfg.seed() + int64(ri*10+si), Topology: TopoLAN, ServerDisk: true}
			t[ri].Runs[si] = runCreateDelete(rig, row.local, row.opts, row.name, size, iters)
		}
	}
	return t
}

func (t cdTable) tables() []*stats.Table {
	tb := stats.NewTable("Table #5: Create-Delete Bench, 4.3BSD Reno client (msec)",
		"Config", "No data", "10Kbytes", "100Kbytes")
	for _, r := range t {
		row := []any{r.Name}
		for _, run := range r.Runs {
			row = append(row, fixed(run.MeanMS, 0, run.OK))
		}
		tb.AddRow(row...)
	}
	return []*stats.Table{tb}
}

// caveats is the appendix: caveat 1's lookup runs per name length and server
// name cache setting, caveat 2's read runs on empty and preloaded files.
type caveats struct {
	NameCache []nameCacheRun
	Preload   []preloadRun
}

type nameCacheRun struct {
	Names, Cache string
	LookupRTT    float64
	Hits         int
}

type preloadRun struct {
	Subtree string
	ReadRTT float64
}

// expAppendixA reproduces the two Nhfsstone caveats from the appendix:
// long names defeating the server name cache, and the empty-file read
// bias.
func expAppendixA(cfg ExpConfig) caveats {
	var c caveats
	// Caveat 1: lookup benchmark with short vs long names against a
	// server with the name cache on and off.
	for _, names := range []string{"short", "long(>31)"} {
		for _, cache := range []string{"on", "off"} {
			srv := server.Reno()
			srv.NameCache = cache == "on"
			run := nameCacheRun{Names: names, Cache: cache}
			res := runNhfsstone(cfg, TopoLAN, UDPDynamic, workload.DefaultLookupMix(), 25, RigConfig{Seed: cfg.seed(), ServerOpts: srv},
				func(nc *workload.NhfsstoneConfig) { nc.FileSize, nc.LongNames = 2048, names != "short" },
				func(r *Rig) { run.Hits = r.Server.NameCacheStats().Hits })
			if res != nil {
				run.LookupRTT = res.RTT[nfsproto.ProcLookup].Mean()
			}
			c.NameCache = append(c.NameCache, run)
		}
	}
	// Caveat 2: reads against empty vs preloaded files.
	for _, subtree := range []string{"empty files", "preloaded 8K files"} {
		run := preloadRun{Subtree: subtree}
		res := runNhfsstone(cfg, TopoLAN, UDPDynamic, workload.ReadLookupMix(), 12, RigConfig{Seed: cfg.seed()},
			func(nc *workload.NhfsstoneConfig) {
				nc.NumFiles, nc.FileSize = 30, 1 // non-empty handles but ~empty data
				if subtree != "empty files" {
					nc.FileSize = 8192
				}
			}, nil)
		if res != nil {
			run.ReadRTT = res.RTT[nfsproto.ProcRead].Mean()
		}
		c.Preload = append(c.Preload, run)
	}
	return c
}

func (c caveats) tables() []*stats.Table {
	t1 := stats.NewTable("Appendix caveat 1: server name cache vs Nhfsstone name length",
		"names", "server cache", "lookup RTT(ms)", "cache hits")
	for _, r := range c.NameCache {
		t1.AddRow(r.Names, r.Cache, r.LookupRTT, r.Hits)
	}
	t2 := stats.NewTable("Appendix caveat 2: read RTT vs file preloading",
		"subtree", "read RTT(ms)")
	for _, r := range c.Preload {
		t2.AddRow(r.Subtree, r.ReadRTT)
	}
	return []*stats.Table{t1, t2}
}
