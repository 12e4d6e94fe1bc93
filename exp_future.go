package renonfs

import (
	"fmt"
	"time"

	"renonfs/internal/client"
	"renonfs/internal/memfs"
	"renonfs/internal/netsim"
	"renonfs/internal/nfsproto"
	"renonfs/internal/server"
	"renonfs/internal/sim"
	"renonfs/internal/stats"
	"renonfs/internal/transport"
	"renonfs/internal/workload"
)

// LeaseClient is the Reno client with the NQNFS-style lease extension:
// delayed writes without push-on-close, made safe by server leases.
func LeaseClient() client.Options {
	o := client.Reno()
	o.Name = "reno-leases"
	o.UseLeases = true
	return o
}

// LeaseServer is the Reno server with the lease and readdirlook
// extensions enabled.
func LeaseServer() server.Options {
	o := server.Reno()
	o.Leases = true
	o.ReaddirLook = true
	return o
}

// expFutureWork quantifies the three Future Directions features built on
// top of the paper's system:
//
//  1. NQNFS-style leases: the write-RPC bill of the Andrew benchmark with
//     full consistency, compared against plain Reno (push-on-close) and
//     the unsafe noconsist bound the paper measured;
//  2. readdir_and_lookup_files: the RPC bill of an ls -lR;
//  3. adaptive transfer sizing: read success over a lossy link.
func expFutureWork(cfg ExpConfig) []*stats.Table {
	return []*stats.Table{
		futureLeases(cfg),
		futureCreateDelete(cfg),
		futureReaddirLook(cfg),
		futureAdaptive(cfg),
	}
}

// futureLeases runs the Andrew benchmark under the three consistency
// regimes.
func futureLeases(cfg ExpConfig) *stats.Table {
	t := stats.NewTable("Future work: leases vs push-on-close (Andrew benchmark, MicroVAXII)",
		"client", "write RPCs", "total RPCs", "I-IV (s)", "coherent?")
	rows := []struct {
		name     string
		srv      server.Options
		opts     client.Options
		coherent string
	}{
		{"Reno (push-on-close)", server.Reno(), client.Reno(), "yes"},
		{"Reno + leases", LeaseServer(), LeaseClient(), "yes (lease protocol)"},
		{"Reno-noconsist (bound)", server.Reno(), client.RenoNoConsist(), "NO"},
	}
	for i, row := range rows {
		res, err := runAndrew(cfg.seed()+int64(i), 0, row.srv, UDPDynamic, row.opts)
		if err != nil {
			t.AddRow(row.name, "-", "-", "-", row.coherent)
			continue
		}
		t.AddRow(row.name,
			res.RPC.Calls[nfsproto.ProcWrite],
			res.RPC.TotalCalls(),
			secs(res.PhaseI_IV()),
			row.coherent)
	}
	return t
}

// futureCreateDelete shows leases approaching the noconsist bound on the
// paper's most dramatic number: Create-Delete of a 100 KB file.
func futureCreateDelete(cfg ExpConfig) *stats.Table {
	t := stats.NewTable("Future work: Create-Delete 100KB (msec)", "client", "mean ms")
	iters := 8
	if cfg.Quick {
		iters = 4
	}
	rows := []struct {
		name string
		srv  server.Options
		opts client.Options
	}{
		{"Reno (push-on-close)", server.Reno(), client.Reno()},
		{"Reno + leases", LeaseServer(), LeaseClient()},
		{"Reno-noconsist (bound)", server.Reno(), client.RenoNoConsist()},
	}
	for i, row := range rows {
		r := NewRig(RigConfig{Seed: cfg.seed() + int64(i), Topology: TopoLAN,
			ServerOpts: row.srv, ServerDisk: true})
		var mean float64
		ok := false
		runWorkload(r.Env, "cd", 4*time.Hour, func(p *sim.Proc) {
			m, err := r.Mount(p, UDPDynamic, row.opts)
			if err != nil {
				return
			}
			res, err := workload.RunCreateDelete(p, workload.MountFS{M: m}, row.opts.Name, 100*1024, iters)
			if err != nil {
				return
			}
			mean = res.MeanMS
			ok = true
		})
		r.Close()
		if ok {
			t.AddRow(row.name, fmt.Sprintf("%.0f", mean))
		} else {
			t.AddRow(row.name, "-")
		}
	}
	return t
}

// futureReaddirLook measures an ls -lR (list + stat every file) with and
// without the readdir_and_lookup_files RPC.
func futureReaddirLook(cfg ExpConfig) *stats.Table {
	t := stats.NewTable("Future work: ls -lR RPC bill, 120 files in 4 directories",
		"client", "lookup", "getattr", "readdir(+look)", "total")
	for _, useExt := range []bool{false, true} {
		r := NewRig(RigConfig{Seed: cfg.seed(), Topology: TopoLAN, ServerOpts: LeaseServer()})
		opts := client.Reno()
		opts.ReaddirLook = useExt
		name := "Reno (lookup per file)"
		if useExt {
			name = "Reno + readdirlook"
		}
		var st client.Stats
		ok := false
		runWorkload(r.Env, "ls", time.Hour, func(p *sim.Proc) {
			m, err := r.Mount(p, UDPDynamic, opts)
			if err != nil {
				return
			}
			// Build the tree.
			for d := 0; d < 4; d++ {
				dir := fmt.Sprintf("d%d", d)
				if err := m.Mkdir(p, dir, 0755); err != nil {
					return
				}
				for i := 0; i < 30; i++ {
					f, err := m.Create(p, fmt.Sprintf("%s/file%02d", dir, i), 0644)
					if err != nil {
						return
					}
					f.Write(p, []byte("contents"))
					f.Close(p)
				}
			}
			p.Sleep(6 * time.Second) // age every cache
			base := m.Stats
			for d := 0; d < 4; d++ {
				dir := fmt.Sprintf("d%d", d)
				ents, err := m.ReadDirLook(p, dir)
				if err != nil {
					return
				}
				for _, ent := range ents {
					if ent.Name == "." || ent.Name == ".." {
						continue
					}
					if _, err := m.Getattr(p, dir+"/"+ent.Name); err != nil {
						return
					}
				}
			}
			for i := range st.Calls {
				st.Calls[i] = m.Stats.Calls[i] - base.Calls[i]
			}
			ok = true
		})
		r.Close()
		if !ok {
			t.AddRow(name, "-", "-", "-", "-")
			continue
		}
		total := 0
		for _, c := range st.Calls {
			total += c
		}
		t.AddRow(name,
			st.Calls[nfsproto.ProcLookup],
			st.Calls[nfsproto.ProcGetattr],
			st.Calls[nfsproto.ProcReaddir]+st.Calls[nfsproto.ProcReaddirLook],
			total)
	}
	return t
}

// futureAdaptive measures sequential read throughput over a lossy link
// with and without dynamic transfer sizing.
func futureAdaptive(cfg ExpConfig) *stats.Table {
	t := stats.NewTable("Future work: adaptive read size on a lossy Ethernet (8% frame loss)",
		"client", "elapsed (s)", "read RPCs", "final rsize")
	for _, adaptive := range []bool{false, true} {
		env := sim.New(cfg.seed())
		nt := netsim.New(env)
		cl := nt.AddNode(netsim.NodeConfig{Name: "client"})
		sv := nt.AddNode(netsim.NodeConfig{Name: "server"})
		lk := netsim.Ethernet("eth")
		lk.LossProb = 0.08
		nt.Connect(cl, sv, lk)
		nt.ComputeRoutes()
		fs := memfs.New(1, nil, nil)
		srv := server.New(fs, server.Reno())
		srv.AttachNode(sv)
		srv.ServeUDP(server.NFSPort)
		// Preload a 256 KB file directly.
		ino, _ := fs.Create(nil, fs.Root(), "big", 0644)
		fs.WriteAt(nil, ino, 0, make([]byte, 256*1024), 0)

		opts := client.Reno()
		opts.AdaptiveRsize = adaptive
		opts.ReadAhead = 0
		name := "fixed 8K reads"
		if adaptive {
			name = "adaptive reads"
		}
		tr := transport.NewUDP(cl, 9100, sv.ID, server.NFSPort, transport.DynamicUDP())
		m := client.NewMount(cl, tr, srv.RootFH(), opts)
		var elapsed sim.Time
		ok := false
		runWorkload(env, "reader", time.Hour, func(p *sim.Proc) {
			start := p.Now()
			f, err := m.Open(p, "big")
			if err != nil {
				return
			}
			buf := make([]byte, 8192)
			total := 0
			for {
				n, err := f.Read(p, buf)
				if err != nil {
					return
				}
				if n == 0 {
					break
				}
				total += n
			}
			if total != 256*1024 {
				return
			}
			elapsed = p.Now() - start
			ok = true
		})
		env.Close()
		if !ok {
			t.AddRow(name, "-", "-", "-")
			continue
		}
		rsize := 8192
		if adaptive {
			rsize = m.Rsize()
		}
		t.AddRow(name, fmt.Sprintf("%.1f", float64(elapsed)/1e9),
			m.Stats.RPCCount(nfsproto.ProcRead), rsize)
	}
	return t
}
