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
func expFutureWork(cfg ExpConfig) futureWork {
	return futureWork{andrewRuns(cfg, 0, regimes), futureCreateDelete(cfg), futureReaddirLook(cfg), futureAdaptive(cfg)}
}

// futureWork holds the four Future Directions tables' runs; the lease and
// Create-Delete runs are in regimes order. In each, OK is false for a run
// that did not finish.
type futureWork struct {
	Leases   []andrewRun
	CD       []cdRun
	Ls       []lsRun
	Adaptive []adaptiveRun
}

func (f futureWork) tables() []*stats.Table {
	leases := stats.NewTable("Future work: leases vs push-on-close (Andrew benchmark, MicroVAXII)",
		"client", "write RPCs", "total RPCs", "I-IV (s)", "coherent?")
	for i, r := range f.Leases {
		if !r.OK {
			leases.AddRow(r.Name, "-", "-", "-", coherent[i])
			continue
		}
		leases.AddRow(r.Name, r.RPC.Calls[nfsproto.ProcWrite], r.RPC.TotalCalls(),
			fmt.Sprintf("%.0f", float64(r.PhaseI_IV())/1e9), coherent[i])
	}
	cd := stats.NewTable("Future work: Create-Delete 100KB (msec)", "client", "mean ms")
	for i, r := range f.CD {
		cd.AddRow(regimes[i].name, stats.Fixed(r.MeanMS, 0, r.OK))
	}
	ls := stats.NewTable("Future work: ls -lR RPC bill, 120 files in 4 directories",
		"client", "lookup", "getattr", "readdir(+look)", "total")
	for _, r := range f.Ls {
		if !r.OK {
			ls.AddRow(r.Name, "-", "-", "-", "-")
			continue
		}
		c := &r.RPC.Calls
		ls.AddRow(r.Name, c[nfsproto.ProcLookup], c[nfsproto.ProcGetattr],
			c[nfsproto.ProcReaddir]+c[nfsproto.ProcReaddirLook], r.RPC.TotalCalls())
	}
	adaptive := stats.NewTable("Future work: adaptive read size on a lossy Ethernet (8% frame loss)",
		"client", "elapsed (s)", "read RPCs", "final rsize")
	for _, r := range f.Adaptive {
		if !r.OK {
			adaptive.AddRow(r.Name, "-", "-", "-")
			continue
		}
		adaptive.AddRow(r.Name, fmt.Sprintf("%.1f", float64(r.Elapsed)/1e9), r.ReadRPCs, r.Rsize)
	}
	return []*stats.Table{leases, cd, ls, adaptive}
}

// regimes are the three consistency regimes of the lease tables, and
// coherent says whether each keeps the clients' caches consistent.
var (
	regimes = []andrewConfig{
		{"Reno (push-on-close)", UDPDynamic, server.Reno(), client.Reno()},
		{"Reno + leases", UDPDynamic, LeaseServer(), LeaseClient()},
		{"Reno-noconsist (bound)", UDPDynamic, server.Reno(), client.RenoNoConsist()},
	}
	coherent = []string{"yes", "yes (lease protocol)", "NO"}
)

// futureCreateDelete shows leases approaching the noconsist bound on the
// paper's most dramatic number: Create-Delete of a 100 KB file.
func futureCreateDelete(cfg ExpConfig) []cdRun {
	iters := 8
	if cfg.Quick {
		iters = 4
	}
	var runs []cdRun
	for i, row := range regimes {
		rig := RigConfig{Seed: cfg.seed() + int64(i), Topology: TopoLAN, ServerOpts: row.srv, ServerDisk: true}
		runs = append(runs, runCreateDelete(rig, false, row.opts, row.opts.Name, 100*1024, iters))
	}
	return runs
}

// lsRun is the client RPCs of one ls -lR.
type lsRun struct {
	Name string
	OK   bool
	RPC  client.Stats
}

// futureReaddirLook measures an ls -lR (list + stat every file) with and
// without the readdir_and_lookup_files RPC.
func futureReaddirLook(cfg ExpConfig) []lsRun {
	var runs []lsRun
	for i, name := range []string{"Reno (lookup per file)", "Reno + readdirlook"} {
		r := NewRig(RigConfig{Seed: cfg.seed(), Topology: TopoLAN, ServerOpts: LeaseServer()})
		opts := client.Reno()
		opts.ReaddirLook = i == 1
		run := lsRun{Name: name}
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
			for i := range run.RPC.Calls {
				run.RPC.Calls[i] = m.Stats.Calls[i] - base.Calls[i]
			}
			run.OK = true
		})
		r.Close()
		runs = append(runs, run)
	}
	return runs
}

// adaptiveRun is one sequential read of a 256 KB file: its elapsed time,
// read RPCs and the client's final read size.
type adaptiveRun struct {
	Name            string
	OK              bool
	Elapsed         sim.Time
	ReadRPCs, Rsize int
}

// futureAdaptive measures sequential read throughput over a lossy link
// with and without dynamic transfer sizing.
func futureAdaptive(cfg ExpConfig) []adaptiveRun {
	var runs []adaptiveRun
	for i, name := range []string{"fixed 8K reads", "adaptive reads"} {
		adaptive := i == 1
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
		tr := transport.NewUDP(cl, 9100, sv.ID, server.NFSPort, transport.DynamicUDP())
		m := client.NewMount(cl, tr, srv.RootFH(), opts)
		run := adaptiveRun{Name: name}
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
			run.OK, run.Elapsed = true, p.Now()-start
		})
		env.Close()
		run.ReadRPCs, run.Rsize = m.Stats.RPCCount(nfsproto.ProcRead), 8192
		if adaptive {
			run.Rsize = m.Rsize()
		}
		runs = append(runs, run)
	}
	return runs
}
