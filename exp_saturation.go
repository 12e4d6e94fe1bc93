package renonfs

import (
	"fmt"
	"time"

	"renonfs/internal/memfs"
	"renonfs/internal/metrics"
	"renonfs/internal/netsim"
	"renonfs/internal/nfsproto"
	"renonfs/internal/server"
	"renonfs/internal/sim"
	"renonfs/internal/stats"
	"renonfs/internal/transport"
	"renonfs/internal/workload"
)

// saturation is the server characterization curve, per offered load: calls/s
// achieved, the mean of the clients' mean lookup RTTs and the pooled lookup
// p99 (ms), and server CPU and disk utilization (fractions).
type saturation []satPoint

type satPoint struct {
	Offered, Achieved    float64
	LookupRTT, LookupP99 float64
	CPU, Disk            float64
}

// expSaturation characterizes the server the way [Keith90] (which the
// paper's intro cites) does: several clients offer an aggregate load of
// the full nhfsstone mix and the curve of achieved throughput, response
// time and server CPU shows where the CPU-bound server saturates — the
// premise of §3's "most current NFS servers tend to be CPU bound".
func expSaturation(cfg ExpConfig) saturation {
	loads := []float64{40, 80, 120, 160, 200, 240}
	if cfg.Quick {
		loads = []float64{40, 120, 240}
	}
	const nClients = 4
	var sat saturation
	for _, load := range loads {
		env := sim.New(cfg.seed() + int64(load))
		mt := netsim.BuildMulti(env, nClients, netsim.NodeConfig{}, netsim.NodeConfig{})
		disk := memfs.NewRD53(env, "server.rd53")
		fs := memfs.New(1, disk, func() nfsproto.Time {
			now := env.Now()
			return nfsproto.Time{Sec: uint32(now / time.Second), USec: uint32(now % time.Second / time.Microsecond)}
		})
		srv := server.New(fs, server.Reno())
		srv.AttachNode(mt.Server)
		srv.ServeUDP(server.NFSPort)

		results := make([]*workload.NhfsstoneResult, nClients)
		done := sim.NewEvent(env)
		remaining := nClients
		for ci, c := range mt.Clients {
			ci, c := ci, c
			env.Spawn(fmt.Sprintf("load%d", ci), func(p *sim.Proc) {
				defer func() {
					remaining--
					if remaining == 0 {
						done.Set()
					}
				}()
				tr := transport.NewUDP(c, 1001, mt.Server.ID, server.NFSPort, transport.DynamicUDP())
				nh := &workload.Nhfsstone{
					Cfg: workload.NhfsstoneConfig{
						Mix:  workload.FullMix(),
						Rate: load / nClients, Procs: 12,
						Duration: cfg.window(), Warmup: cfg.warmup(),
						NumFiles: 30, FileSize: 8192,
						OnMeasure: func() {
							if ci == 0 {
								mt.Server.ResetProfile()
								disk.ResetStats()
							}
						},
					},
					Tr:   tr,
					Root: srv.RootFH(),
				}
				if err := nh.Preload(p); err != nil {
					return
				}
				results[ci] = nh.Run(p)
			})
		}
		// Read utilizations the moment the load ends, not after the idle
		// run-out (which would dilute the window).
		pt := satPoint{Offered: load}
		runWorkload(env, "wait", cfg.warmup()+cfg.window()+30*time.Minute, func(p *sim.Proc) {
			done.Wait(p)
			pt.CPU, pt.Disk = mt.Server.CPU.Utilization(), disk.Utilization()
		})
		var rtt stats.Summary
		var lookupHist metrics.HistogramSnapshot
		for _, res := range results {
			if res == nil {
				continue
			}
			pt.Achieved += res.Achieved
			if s := res.RTT[nfsproto.ProcLookup]; s != nil && s.Count > 0 {
				rtt.Add(s.Mean())
			}
			if h := res.Hist[nfsproto.ProcLookup]; h != nil {
				lookupHist = lookupHist.Add(h.Snapshot())
			}
		}
		pt.LookupRTT, pt.LookupP99 = rtt.Mean(), lookupHist.Quantile(99)
		sat = append(sat, pt)
		env.Close()
	}
	return sat
}

func (sat saturation) tables() []*stats.Table {
	t := stats.NewTable("Server characterization: 4 clients, full nhfsstone mix (Reno server)",
		"offered/s", "achieved/s", "lookup RTT(ms)", "lookup p99(ms)", "server CPU %", "disk util %")
	for _, p := range sat {
		t.AddRow(p.Offered, fmt.Sprintf("%.1f", p.Achieved), p.LookupRTT, p.LookupP99,
			fmt.Sprintf("%.0f", p.CPU*100), fmt.Sprintf("%.0f", p.Disk*100))
	}
	return []*stats.Table{t}
}
