package renonfs

import (
	"fmt"
	"time"

	"renonfs/internal/client"
	"renonfs/internal/memfs"
	"renonfs/internal/nfsproto"
	"renonfs/internal/server"
	"renonfs/internal/sim"
	"renonfs/internal/stats"
	"renonfs/internal/workload"
)

// runAndrew runs the Modified Andrew Benchmark against a fresh rig and
// returns the result. clientMIPS selects the client host speed, srvOpts
// the server personality, kind the transport, and opts the client
// personality.
func runAndrew(seed int64, clientMIPS float64, srvOpts server.Options, kind TransportKind, opts client.Options) (*workload.AndrewResult, error) {
	r := NewRig(RigConfig{
		Seed: seed, Topology: TopoLAN,
		ServerOpts: srvOpts, ClientMIPS: clientMIPS, ServerDisk: true,
	})
	defer r.Close()
	files := workload.AndrewTree()
	if err := workload.PreloadServerTree(r.FS, files); err != nil {
		return nil, err
	}
	var res *workload.AndrewResult
	var runErr error
	runWorkload(r.Env, "mab", 12*time.Hour, func(p *sim.Proc) {
		m, err := r.Mount(p, kind, opts)
		if err != nil {
			runErr = err
			return
		}
		res, runErr = workload.RunAndrew(p, m, files)
	})
	if runErr != nil {
		return nil, runErr
	}
	if res == nil {
		return nil, fmt.Errorf("renonfs: andrew benchmark did not complete")
	}
	return res, nil
}

func secs(d sim.Time) string { return fmt.Sprintf("%.0f", float64(d)/1e9) }

// expTable2 reproduces Table #2: MAB elapsed times on a MicroVAXII client
// for the four client configurations, against the Reno server.
func expTable2(cfg ExpConfig) []*stats.Table {
	t := stats.NewTable("Table #2: Mod Andrew Bench, MicroVAXII client (sec)",
		"OS/Phase", "I-IV", "V")
	nopush := client.Reno()
	nopush.Name = "reno-nopush"
	nopush.PushOnClose = false
	rows := []struct {
		name string
		kind TransportKind
		opts client.Options
	}{
		{"Reno", UDPDynamic, client.Reno()},
		{"Reno-TCP", TCP, client.Reno()},
		{"Reno-nopush", UDPDynamic, nopush},
		{"Ultrix2.2", UDPDynamic, client.Ultrix()},
	}
	for i, row := range rows {
		res, err := runAndrew(cfg.seed()+int64(i), 0 /* MicroVAXII default */, server.Reno(), row.kind, row.opts)
		if err != nil {
			t.AddRow(row.name, "-", "-")
			continue
		}
		t.AddRow(row.name, secs(res.PhaseI_IV()), secs(res.PhaseTimes[4]))
	}
	return []*stats.Table{t}
}

// expTable3 reproduces Table #3: MAB RPC counts for Reno, Reno-noconsist
// and Ultrix clients.
func expTable3(cfg ExpConfig) []*stats.Table {
	t := stats.NewTable("Table #3: Mod Andrew Bench RPC counts, MicroVAXII client",
		"RPC", "Reno", "Reno-noconsist", "Ultrix2.2")
	configs := []client.Options{client.Reno(), client.RenoNoConsist(), client.Ultrix()}
	var results []*workload.AndrewResult
	for i, opts := range configs {
		res, err := runAndrew(cfg.seed()+int64(i), 0, server.Reno(), UDPDynamic, opts)
		if err != nil {
			return []*stats.Table{t}
		}
		results = append(results, res)
	}
	rows := []struct {
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
	other := make([]int, len(results))
	total := make([]int, len(results))
	counted := map[uint32]bool{}
	for _, row := range rows {
		counted[row.proc] = true
	}
	for i, res := range results {
		for proc, n := range res.RPC.Calls {
			total[i] += n
			if !counted[uint32(proc)] {
				other[i] += n
			}
		}
	}
	for _, row := range rows {
		t.AddRow(row.name,
			results[0].RPC.Calls[row.proc],
			results[1].RPC.Calls[row.proc],
			results[2].RPC.Calls[row.proc])
	}
	t.AddRow("Other", other[0], other[1], other[2])
	t.AddRow("Total", total[0], total[1], total[2])
	return []*stats.Table{t}
}

// expTable4 reproduces Table #4: MAB on a DS3100-class client against the
// Reno and Ultrix servers.
func expTable4(cfg ExpConfig) []*stats.Table {
	t := stats.NewTable("Table #4: Mod Andrew Bench, DS3100 client (sec)",
		"OS/Phase", "I-IV", "V")
	for i, srv := range []struct {
		name string
		opts server.Options
	}{
		{"Reno", server.Reno()},
		{"Ultrix2.2", server.Ultrix()},
	} {
		// The DS3100 runs DEC's own client (Ultrix), as it did in the
		// paper; only the server varies.
		res, err := runAndrew(cfg.seed()+int64(i), 12.0 /* DS3100 MIPS */, srv.opts, UDPDynamic, client.Ultrix())
		if err != nil {
			t.AddRow(srv.name, "-", "-")
			continue
		}
		t.AddRow(srv.name, secs(res.PhaseI_IV()), secs(res.PhaseTimes[4]))
	}
	return []*stats.Table{t}
}

// expTable5 reproduces Table #5: the Create-Delete benchmark across write
// policies and file sizes, including the local-filesystem baseline.
func expTable5(cfg ExpConfig) []*stats.Table {
	sizes := []int{0, 10 * 1024, 100 * 1024}
	iters := 10
	if cfg.Quick {
		iters = 4
	}
	t := stats.NewTable("Table #5: Create-Delete Bench, 4.3BSD Reno client (msec)",
		"Config", "No data", "10Kbytes", "100Kbytes")

	type rowSpec struct {
		name  string
		local bool
		opts  client.Options
	}
	wt := client.Reno()
	wt.Name = "write-thru"
	wt.Policy = client.WriteThrough
	async4 := client.Reno()
	async4.Name = "async-4biod"
	async4.Policy = client.WriteAsync
	async4.Biods = 4
	async16 := client.Reno()
	async16.Name = "async-16biod"
	async16.Policy = client.WriteAsync
	async16.Biods = 16
	delayed := client.Reno()
	delayed.Name = "delay-wrt"
	delayed.Policy = client.WriteDelayed
	rows := []rowSpec{
		{name: "Local", local: true},
		{name: "write thru", opts: wt},
		{name: "async,4biod", opts: async4},
		{name: "async,16biod", opts: async16},
		{name: "delay wrt.", opts: delayed},
		{name: "no consist", opts: client.RenoNoConsist()},
	}
	for ri, row := range rows {
		cells := []any{row.name}
		for si, size := range sizes {
			r := NewRig(RigConfig{Seed: cfg.seed() + int64(ri*10+si), Topology: TopoLAN, ServerDisk: true})
			var mean float64
			ok := false
			runWorkload(r.Env, "cd", 8*time.Hour, func(p *sim.Proc) {
				var fs workload.BenchFS
				if row.local {
					disk := memfs.NewRD53(r.Env, "client.rd53")
					lfs := workload.NewLocalFS(r.Env, memfs.New(2, disk, nil))
					fs = lfs
				} else {
					m, err := r.Mount(p, UDPDynamic, row.opts)
					if err != nil {
						return
					}
					fs = workload.MountFS{M: m}
				}
				res, err := workload.RunCreateDelete(p, fs, row.name, size, iters)
				if err != nil {
					return
				}
				mean = res.MeanMS
				ok = true
			})
			r.Close()
			if ok {
				cells = append(cells, fmt.Sprintf("%.0f", mean))
			} else {
				cells = append(cells, "-")
			}
		}
		t.AddRow(cells...)
	}
	return []*stats.Table{t}
}

// expAppendixA reproduces the two Nhfsstone caveats from the appendix:
// long names defeating the server name cache, and the empty-file read
// bias.
func expAppendixA(cfg ExpConfig) []*stats.Table {
	// Caveat 1: lookup benchmark with short vs long names against a
	// server with the name cache on and off.
	t1 := stats.NewTable("Appendix caveat 1: server name cache vs Nhfsstone name length",
		"names", "server cache", "lookup RTT(ms)", "cache hits")
	for _, long := range []bool{false, true} {
		for _, cacheOn := range []bool{true, false} {
			r := NewRig(RigConfig{Seed: cfg.seed(), Topology: TopoLAN})
			if !cacheOn {
				r.Server.SetNameCache(false)
			}
			var rtt float64
			hits := 0
			runWorkload(r.Env, "bench", cfg.warmup()+cfg.window()+20*time.Minute, func(p *sim.Proc) {
				tr, _ := r.DialTransport(p, UDPDynamic)
				nh := &workload.Nhfsstone{
					Cfg: workload.NhfsstoneConfig{
						Mix: workload.DefaultLookupMix(), Rate: 25, Procs: 4,
						Duration: cfg.window(), Warmup: cfg.warmup(),
						NumFiles: 40, FileSize: 2048, LongNames: long,
					},
					Tr:   tr,
					Root: r.Server.RootFH(),
				}
				if err := nh.Preload(p); err != nil {
					return
				}
				res := nh.Run(p)
				rtt = res.RTT[nfsproto.ProcLookup].Mean()
				hits = r.Server.NameCacheStats().Hits
			})
			r.Close()
			names := "short"
			if long {
				names = "long(>31)"
			}
			cache := "on"
			if !cacheOn {
				cache = "off"
			}
			t1.AddRow(names, cache, rtt, hits)
		}
	}

	// Caveat 2: reads against empty vs preloaded files.
	t2 := stats.NewTable("Appendix caveat 2: read RTT vs file preloading",
		"subtree", "read RTT(ms)")
	for _, preload := range []bool{false, true} {
		r := NewRig(RigConfig{Seed: cfg.seed(), Topology: TopoLAN})
		var rtt float64
		runWorkload(r.Env, "bench", cfg.warmup()+cfg.window()+20*time.Minute, func(p *sim.Proc) {
			tr, _ := r.DialTransport(p, UDPDynamic)
			size := 0
			if preload {
				size = 8192
			}
			nh := &workload.Nhfsstone{
				Cfg: workload.NhfsstoneConfig{
					Mix: workload.ReadLookupMix(), Rate: 12, Procs: 4,
					Duration: cfg.window(), Warmup: cfg.warmup(),
					NumFiles: 30, FileSize: size,
				},
				Tr:   tr,
				Root: r.Server.RootFH(),
			}
			if size == 0 {
				nh.Cfg.FileSize = 1 // create non-empty handles but ~empty data
			}
			if err := nh.Preload(p); err != nil {
				return
			}
			res := nh.Run(p)
			rtt = res.RTT[nfsproto.ProcRead].Mean()
		})
		r.Close()
		name := "empty files"
		if preload {
			name = "preloaded 8K files"
		}
		t2.AddRow(name, rtt)
	}
	return []*stats.Table{t1, t2}
}
