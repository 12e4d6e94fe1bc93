// Transports: the paper's headline experiment in miniature. Run the same
// lookup workload over the 56 Kbit/s internetwork with all three RPC
// transports and watch fixed-RTO UDP fall apart while TCP and dynamic-RTO
// UDP hold up — "the notion that TCP transport would provide unacceptable
// performance for NFS RPCs is shown to be unfounded."
package main

import (
	"fmt"
	"time"

	"renonfs"
	"renonfs/internal/nfsproto"
	"renonfs/internal/sim"
	"renonfs/internal/stats"
	"renonfs/internal/workload"
)

func main() {
	fmt.Println("Nhfsstone 100% lookup mix across the 56Kbps link (3 IP routers)")
	table := stats.NewTable("", "transport", "offered/s", "achieved/s", "mean RTT(ms)", "p95(ms)", "retries")
	for _, kind := range []renonfs.TransportKind{renonfs.UDPFixed, renonfs.UDPDynamic, renonfs.TCP} {
		r := renonfs.NewRig(renonfs.RigConfig{Seed: 7, Topology: renonfs.TopoSlow})
		var res *workload.NhfsstoneResult
		r.Env.Spawn("load", func(p *sim.Proc) {
			tr, err := r.DialTransport(p, kind)
			if err != nil {
				return
			}
			nh := &workload.Nhfsstone{
				Cfg: workload.NhfsstoneConfig{
					Mix:  workload.DefaultLookupMix(),
					Rate: 4, Procs: 4,
					Duration: 60 * time.Second, Warmup: 10 * time.Second,
					NumFiles: 10, FileSize: 2048,
				},
				Tr:   tr,
				Root: r.Server.RootFH(),
			}
			if err := nh.Preload(p); err != nil {
				return
			}
			res = nh.Run(p)
		})
		r.Env.Run(30 * time.Minute)
		if res != nil {
			s := res.RTT[nfsproto.ProcLookup]
			p95, ok := s.Quantile(95)
			table.AddRow(kind.String(), 4.0, fmt.Sprintf("%.1f", res.Achieved), s.Mean(), stats.Fixed(p95, 1, ok), res.Retries)
		}
		r.Close()
	}
	fmt.Println(table.String())
	fmt.Println("The paper's §4: with a fixed 1s RTO, every lost fragment costs a")
	fmt.Println("full timeout; dynamic RTO estimation plus a congestion window — or")
	fmt.Println("simply running over TCP — keeps the slow path usable.")
}
