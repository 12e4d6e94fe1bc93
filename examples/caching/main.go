// Caching: make §5's client-side caching effects visible. The same
// edit-and-rebuild style workload (write files, read them back) runs under
// the Reno, Ultrix and no-consistency client personalities, and the RPC
// bill is printed for each — the mechanism behind Table #3.
package main

import (
	"fmt"
	"time"

	"renonfs"
	"renonfs/internal/client"
	"renonfs/internal/nfsproto"
	"renonfs/internal/sim"
	"renonfs/internal/stats"
)

// workset edits 8 files and then "rebuilds": reads every file twice.
func workset(p *sim.Proc, m *client.Mount) error {
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("mod%d.c", i)
		f, err := m.Create(p, name, 0644)
		if err != nil {
			return err
		}
		// Edited in four 3 KB pieces, like a text editor's save.
		for j := 0; j < 4; j++ {
			if _, err := f.Write(p, make([]byte, 3072)); err != nil {
				return err
			}
		}
		if err := f.Close(p); err != nil {
			return err
		}
	}
	buf := make([]byte, 4096)
	for round := 0; round < 2; round++ {
		for i := 0; i < 8; i++ {
			f, err := m.Open(p, fmt.Sprintf("mod%d.c", i))
			if err != nil {
				return err
			}
			for {
				n, err := f.Read(p, buf)
				if err != nil {
					return err
				}
				if n == 0 {
					break
				}
			}
			f.Close(p)
		}
	}
	return nil
}

func main() {
	fmt.Println("edit-and-rebuild workload: 8 files x 12KB written, then read twice")
	table := stats.NewTable("", "client", "lookup", "getattr", "read", "write", "total RPCs")
	for _, opts := range []client.Options{
		renonfs.RenoClient(),
		renonfs.UltrixClient(),
		renonfs.NoConsistClient(),
	} {
		r := renonfs.NewRig(renonfs.RigConfig{Seed: 42})
		ok := false
		var st client.Stats
		r.Env.Spawn("work", func(p *sim.Proc) {
			m, err := r.Mount(p, renonfs.UDPDynamic, opts)
			if err != nil {
				return
			}
			if err := workset(p, m); err != nil {
				return
			}
			st = m.Stats
			ok = true
		})
		r.Env.Run(time.Hour)
		r.Close()
		if !ok {
			continue
		}
		table.AddRow(opts.Name,
			st.Calls[nfsproto.ProcLookup],
			st.Calls[nfsproto.ProcGetattr],
			st.Calls[nfsproto.ProcRead],
			st.Calls[nfsproto.ProcWrite],
			st.TotalCalls())
	}
	fmt.Println(table.String())
	fmt.Println("reno:       name cache cuts lookups; the mtime check re-fetches")
	fmt.Println("            its own writes (the client can't tell whose mtime moved)")
	fmt.Println("ultrix:     a tiny name cache (more lookups); eager write-back sends")
	fmt.Println("            every editor save chunk (more writes); trusts its own")
	fmt.Println("            mtime changes (fewer reads)")
	fmt.Println("noconsist:  the optimistic bound a cache consistency protocol chases")
}
