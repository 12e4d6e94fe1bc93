package renonfs

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"renonfs/internal/client"
	"renonfs/internal/server"
	"renonfs/internal/sim"
	"renonfs/internal/transport"
	"renonfs/internal/workload"
)

// knob is one behavioural option and the run that defends it: run(false)
// is the run as an experiment, a bench or a unit test sets it up, run(true)
// the same run with only that option flipped. Each returns the run's numbers
// as text, or "" if the run did not finish.
type knob struct {
	name, defendedBy string
	run              func(flip bool) string
}

// TestEveryKnobMovesACount flips each behavioural option alone at seed 1991
// and fails unless at least one number of the run that defends it changes.
// An option that moves nothing is a bug in the model or a deletion.
func TestEveryKnobMovesACount(t *testing.T) {
	if testing.Short() {
		t.Skip("two simulated runs per knob")
	}
	for _, k := range knobs() {
		t.Run(k.name, func(t *testing.T) {
			base, flipped := k.run(false), k.run(true)
			if base == "" || flipped == "" {
				t.Fatalf("%s did not finish: %q, flipped %q", k.defendedBy, base, flipped)
			}
			if base == flipped {
				t.Fatalf("flipping %s moves no number in %s: both read %s", k.name, k.defendedBy, base)
			}
			t.Logf("%s\n  as set up: %s\n  flipped:   %s", k.defendedBy, base, flipped)
		})
	}
}

func knobs() []knob {
	seed := quick.seed()

	// The loaded-LAN ablation row, from the paper's transport.
	udp := func(f func(*transport.UDPConfig)) func(bool) string {
		return func(flip bool) string {
			c := transport.DynamicUDP()
			if flip {
				f(&c)
			}
			if r := ablationRun(quick, TopoLAN, ablationRow{ucfg: c}, 28, 8); r.OK {
				return fmt.Sprint(r.ReadRTT, r.ReadRate, r.ReadRetries, r.Retries)
			}
			return ""
		}
	}
	// An Andrew benchmark row of Tables 2-3 or of the lease table.
	andrew := func(seed int64, srv server.Options, opts client.Options, f func(*server.Options, *client.Options)) func(bool) string {
		return func(flip bool) string {
			s, o := srv, opts
			if flip {
				f(&s, &o)
			}
			if run := runAndrew(seed, 0, s, UDPDynamic, o); run.OK {
				return fmt.Sprint(run.PhaseTimes, run.RPC.Calls)
			}
			return ""
		}
	}
	// An Nhfsstone point on the LAN, on the paper's transport.
	nhfs := func(mix map[uint32]float64, rate float64, files int, f func(*RigConfig)) func(bool) string {
		return func(flip bool) string {
			c := RigConfig{ServerOpts: server.Reno()}
			if flip {
				f(&c)
			}
			var cpu float64
			res := runNhfsstone(quick, TopoLAN, UDPDynamic, mix, rate, c,
				func(nc *workload.NhfsstoneConfig) { nc.NumFiles = files },
				func(r *Rig) { cpu = r.Net.Server.CPU.Utilization() })
			return nhfsNumbers(res, cpu)
		}
	}
	graph8 := func(f func(*RigConfig)) func(bool) string { return nhfs(workload.DefaultLookupMix(), 30, 120, f) }
	graph9 := func(f func(*RigConfig)) func(bool) string { return nhfs(workload.ReadLookupMix(), 12, 120, f) }
	readMix := func(f func(*RigConfig)) func(bool) string { return nhfs(workload.ReadLookupMix(), 16, 30, f) } // §3's load
	// A Table 5 Create-Delete run under a write policy, 100 KB files, on a
	// server with a disk.
	cd := func(pol client.WritePolicy, f func(*RigConfig, *client.Options)) func(bool) string {
		return func(flip bool) string {
			rig := RigConfig{Seed: seed, Topology: TopoLAN, ServerOpts: server.Reno(), ServerDisk: true}
			opts := client.Reno()
			opts.Policy = pol
			if flip {
				f(&rig, &opts)
			}
			return createDelete(rig, opts)
		}
	}
	reno, ultrix, noconsist := client.Reno(), client.Ultrix(), client.RenoNoConsist()

	return []knob{
		{"UDPConfig.Dynamic", "the loaded-LAN ablation's paper row", udp(func(c *transport.UDPConfig) { c.Dynamic = false })},
		{"UDPConfig.BigFactor", "the loaded-LAN ablation's paper row", udp(func(c *transport.UDPConfig) { c.BigFactor = 2 })},
		{"UDPConfig.RecalcAtSendOnly", "the loaded-LAN ablation's paper row", udp(func(c *transport.UDPConfig) { c.RecalcAtSendOnly = true })},

		{"server.NameCache", "Graph 8's Reno server at 30 RPC/s", graph8(func(c *RigConfig) { c.ServerOpts.NameCache = false })},
		{"server.ChainedBufs", "Graph 9's Reno server at 12 RPC/s", graph9(func(c *RigConfig) { c.ServerOpts.ChainedBufs = false })},
		{"server.XDRCopyLayer", "Graph 8's Reno server at 30 RPC/s", graph8(func(c *RigConfig) { c.ServerOpts.XDRCopyLayer = true })},
		{"server.LendPages", "§3's read mix", readMix(func(c *RigConfig) { c.ServerOpts.LendPages = true })},
		{"server.WriteGathering", "a Table 5 async,4biod run", cd(client.WriteAsync,
			func(r *RigConfig, _ *client.Options) { r.ServerOpts.WriteGathering = true })},
		{"server.Leases", "the lease table's Reno + leases row", andrew(seed+1, LeaseServer(), LeaseClient(),
			func(s *server.Options, _ *client.Options) { s.Leases = false })},
		{"server.ReaddirLook", "the ls -lR table's readdirlook run",
			lsBill(func(s *server.Options, _ *client.Options) { s.ReaddirLook = false })},

		{"client.NameCache", "Table 3's Reno column", andrew(seed, server.Reno(), reno,
			func(_ *server.Options, o *client.Options) { o.NameCache = false })},
		{"client.NameCacheCap", "Table 3's Ultrix column", andrew(seed+2, server.Reno(), ultrix,
			func(_ *server.Options, o *client.Options) { o.NameCacheCap = 0 })},
		{"client.SelfMtimeValid", "Table 3's Ultrix column", andrew(seed+2, server.Reno(), ultrix,
			func(_ *server.Options, o *client.Options) { o.SelfMtimeValid = false })},
		{"client.EagerWriteBack", "Table 3's Ultrix column", andrew(seed+2, server.Reno(), ultrix,
			func(_ *server.Options, o *client.Options) { o.EagerWriteBack = false })},
		{"client.DirtyRegionTracking", "a partial overwrite of an uncached block", partialWrite},
		{"client.PushOnClose", "Table 2's Reno row", andrew(seed, server.Reno(), reno,
			func(_ *server.Options, o *client.Options) { o.PushOnClose = false })},
		{"client.Consistency", "Table 3's Reno column", andrew(seed, server.Reno(), reno,
			func(_ *server.Options, o *client.Options) { o.Consistency = false })},
		{"client.UpdateFlush", "Table 3's Reno-noconsist column", andrew(seed+1, server.Reno(), noconsist,
			func(_ *server.Options, o *client.Options) { o.UpdateFlush = false })},
		{"client.Policy", "a Table 5 delay wrt. run", cd(client.WriteDelayed,
			func(_ *RigConfig, o *client.Options) { o.Policy = client.WriteThrough })},
		{"client.Biods", "a Table 5 async,4biod run", cd(client.WriteAsync,
			func(_ *RigConfig, o *client.Options) { o.Biods = 16 })},
		{"client.ReadAhead", "Table 3's Reno column", andrew(seed, server.Reno(), reno,
			func(_ *server.Options, o *client.Options) { o.ReadAhead = 0 })},
		{"client.UseLeases", "the lease table's Reno + leases row", andrew(seed+1, LeaseServer(), LeaseClient(),
			func(_ *server.Options, o *client.Options) { o.UseLeases = false })},
		{"client.AdaptiveRsize", "the adaptive read size table", func(flip bool) string {
			row := 0 // the table's two rows differ in this option alone
			if flip {
				row = 1
			}
			if r := futureAdaptive(quick)[row]; r.OK {
				return fmt.Sprint(r.Elapsed, r.ReadRPCs)
			}
			return ""
		}},
		{"client.ReaddirLook", "the ls -lR table's readdirlook run",
			lsBill(func(_ *server.Options, o *client.Options) { o.ReaddirLook = false })},

		{"RigConfig.ServerPageRemap", "§3's read mix", readMix(func(c *RigConfig) { c.ServerPageRemap = true })},
		{"RigConfig.ServerNoTxIntr", "§3's read mix", readMix(func(c *RigConfig) { c.ServerNoTxIntr = true })},
		{"RigConfig.ServerDisk", "a Table 5 delay wrt. run", cd(client.WriteDelayed,
			func(r *RigConfig, _ *client.Options) { r.ServerDisk = false })},
	}
}

// nhfsNumbers prints an Nhfsstone result: per-procedure RTT count and mean,
// retries, failures, achieved rate and server CPU.
func nhfsNumbers(res *workload.NhfsstoneResult, cpu float64) string {
	if res == nil {
		return ""
	}
	var b strings.Builder
	procs := make([]uint32, 0, len(res.RTT))
	for p := range res.RTT {
		procs = append(procs, p)
	}
	slices.Sort(procs)
	for _, p := range procs {
		fmt.Fprintf(&b, "%d:%d/%g ", p, res.RTT[p].Count, res.RTT[p].Mean())
	}
	fmt.Fprintf(&b, "retries %d failures %d rate %g cpu %g", res.Retries, res.Failures, res.Achieved, cpu)
	return b.String()
}

// createDelete is a Table 5 cell's run: the mean ms of four Create-Deletes
// of a 100 KB file, with the client's RPC counts.
func createDelete(rig RigConfig, opts client.Options) string {
	if run := runCreateDelete(rig, false, opts, "knob", 100*1024, 4); run.OK {
		return fmt.Sprint(run.MeanMS, run.RPC.Calls)
	}
	return ""
}

// lsBill is the Future Work table's ls -lR, over one directory of ten files,
// by a Reno client with readdir_and_lookup_files: its RPC counts.
func lsBill(f func(*server.Options, *client.Options)) func(bool) string {
	return func(flip bool) string {
		srv, opts := LeaseServer(), client.Reno()
		opts.ReaddirLook = true
		if flip {
			f(&srv, &opts)
		}
		r := NewRig(RigConfig{Seed: 1991, Topology: TopoLAN, ServerOpts: srv})
		defer r.Close()
		out := ""
		r.Env.Spawn("ls", func(p *sim.Proc) {
			m, err := r.Mount(p, UDPDynamic, opts)
			if err != nil || m.Mkdir(p, "d", 0755) != nil {
				return
			}
			for i := 0; i < 10; i++ {
				f, err := m.Create(p, fmt.Sprintf("d/file%02d", i), 0644)
				if err != nil {
					return
				}
				f.Close(p)
			}
			p.Sleep(6 * time.Second) // age every cache
			ents, err := m.ReadDirLook(p, "d")
			if err != nil {
				return
			}
			for _, ent := range ents {
				if ent.Name == "." || ent.Name == ".." {
					continue
				}
				if _, err := m.Getattr(p, "d/"+ent.Name); err != nil {
					return
				}
			}
			out = fmt.Sprint(m.Stats.Calls)
		})
		r.Env.Run(time.Hour)
		return out
	}
}

// partialWrite overwrites 5 bytes in the middle of an 8 KB file the Ultrix
// client has never cached: without dirty-region tracking it prereads the
// block first (TestUltrixPrereadsPartialWrites in internal/client).
func partialWrite(flip bool) string {
	r := NewRig(RigConfig{Seed: 1991, Topology: TopoLAN})
	defer r.Close()
	ino, _ := r.FS.Create(nil, r.FS.Root(), "f", 0644)
	r.FS.WriteAt(nil, ino, 0, make([]byte, 8192), 0)
	opts := client.Ultrix()
	opts.DirtyRegionTracking = flip
	out := ""
	r.Env.Spawn("w", func(p *sim.Proc) {
		m, err := r.Mount(p, UDPDynamic, opts)
		if err != nil {
			return
		}
		f, err := m.Open(p, "f")
		if err != nil {
			return
		}
		f.Seek(1000)
		if _, err := f.Write(p, []byte("patch")); err != nil {
			return
		}
		f.Close(p)
		out = fmt.Sprint(m.Stats.Prereads, m.Stats.Calls)
	})
	r.Env.Run(time.Hour)
	return out
}
