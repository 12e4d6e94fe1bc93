// Leases: the paper's Future Directions, running. §5 ends by asking
// whether NFS needs full cache coherency "or simply a mechanism for doing
// a delayed write without push on close policy safely" — this example runs
// that mechanism (NQNFS-style leases) and shows it reaching the unsafe
// no-consistency bound while staying coherent under sharing.
package main

import (
	"fmt"
	"time"

	"renonfs"
	"renonfs/internal/client"
	"renonfs/internal/nfsproto"
	"renonfs/internal/sim"
	"renonfs/internal/stats"
	"renonfs/internal/workload"
)

func createDelete(name string, srvOpts renonfs.RigConfig, opts client.Options) (float64, int) {
	r := renonfs.NewRig(srvOpts)
	defer r.Close()
	var mean float64
	writes := 0
	r.Env.Spawn("cd", func(p *sim.Proc) {
		m, err := r.Mount(p, renonfs.UDPDynamic, opts)
		if err != nil {
			return
		}
		res, err := workload.RunCreateDelete(p, workload.MountFS{M: m}, name, 100*1024, 6)
		if err != nil {
			return
		}
		mean = res.MeanMS
		writes = m.Stats.RPCCount(nfsproto.ProcWrite)
	})
	r.Env.Run(2 * time.Hour)
	return mean, writes
}

func main() {
	fmt.Println("Create-Delete of a 100KB file, three consistency regimes:")
	table := stats.NewTable("", "client", "mean ms", "write RPCs", "coherent under sharing?")

	plainRig := renonfs.RigConfig{Seed: 1, ServerDisk: true}
	leaseRig := renonfs.RigConfig{Seed: 1, ServerDisk: true, ServerOpts: renonfs.LeaseServer()}

	mean, wr := createDelete("reno", plainRig, renonfs.RenoClient())
	table.AddRow("Reno (push-on-close)", fmt.Sprintf("%.0f", mean), wr, "yes")
	mean, wr = createDelete("leases", leaseRig, renonfs.LeaseClient())
	table.AddRow("Reno + leases", fmt.Sprintf("%.0f", mean), wr, "yes (evict on conflict)")
	mean, wr = createDelete("noconsist", plainRig, renonfs.NoConsistClient())
	table.AddRow("noconsist (unsafe)", fmt.Sprintf("%.0f", mean), wr, "NO")
	fmt.Println(table.String())

	// And the coherence proof: a second client always sees leased writes.
	fmt.Println("sharing check: writer holds a write lease, reader opens the file...")
	r := renonfs.NewRig(renonfs.RigConfig{Seed: 2, ServerOpts: renonfs.LeaseServer()})
	defer r.Close()
	r.Env.Spawn("share", func(p *sim.Proc) {
		writer, err := r.Mount(p, renonfs.UDPDynamic, renonfs.LeaseClient())
		if err != nil {
			return
		}
		reader, err := r.Mount(p, renonfs.UDPDynamic, renonfs.LeaseClient())
		if err != nil {
			return
		}
		f, err := writer.Create(p, "notes.txt", 0644)
		if err != nil {
			return
		}
		f.Write(p, []byte("written under a lease, never pushed at close"))
		f.Close(p)
		fmt.Printf("  writer: %d write RPCs after close (delayed, leased)\n",
			writer.Stats.RPCCount(nfsproto.ProcWrite))
		g, err := reader.Open(p, "notes.txt")
		if err != nil {
			fmt.Println("  reader open:", err)
			return
		}
		buf := make([]byte, 128)
		n, _ := g.Read(p, buf)
		g.Close(p)
		fmt.Printf("  reader sees: %q\n", buf[:n])
		fmt.Printf("  writer was evicted %d time(s); server sent %d notice(s)\n",
			writer.Stats.LeaseEvictions, r.Server.Metrics.Counter("lease.evictions").Value())
	})
	r.Env.Run(10 * time.Minute)
}
