// Fragloss: watch the paper's central transport argument happen, packet by
// packet. An 8 KB NFS read over the 56 Kbit/s path is ~9 IP fragments;
// lose any one and the whole datagram is gone, and a fixed-RTO client just
// sits through a full timeout before resending all of it ("fragmentation
// considered harmful", [Kent87b]). The simulated network's packet events —
// tcpdump-style lines delivered on the same metrics.Tracer the transports
// use — show the fragments, the loss, the silence, and the retransmission.
package main

import (
	"fmt"
	"time"

	"renonfs"
	"renonfs/internal/mbuf"
	"renonfs/internal/metrics"
	"renonfs/internal/netsim"
	"renonfs/internal/nfsproto"
	"renonfs/internal/sim"
	"renonfs/internal/transport"
	"renonfs/internal/xdr"
)

func main() {
	r := renonfs.NewRig(renonfs.RigConfig{Seed: 11, Topology: renonfs.TopoSlow})
	defer r.Close()

	var trace, events []netsim.TraceEvent
	r.Env.Spawn("demo", func(p *sim.Proc) {
		cfg := transport.FixedUDP() // the classic client: 1s RTO
		tr := r.DialUDPConfig(cfg)
		root := r.Server.RootFH()
		// Create an 8 KB file first (untraced).
		attr := nfsproto.NewSattr()
		attr.Mode = 0644
		d, err := tr.Call(p, nfsproto.ProcCreate, func(e *xdr.Encoder) {
			(&nfsproto.CreateArgs{Where: nfsproto.DiropArgs{Dir: root, Name: "big"}, Attr: attr}).Encode(e)
		})
		if err != nil {
			fmt.Println("create:", err)
			return
		}
		res, _ := nfsproto.DecodeDiropRes(d)
		tr.Call(p, nfsproto.ProcWrite, func(e *xdr.Encoder) {
			(&nfsproto.WriteArgs{File: res.File, Offset: 0, Data: chain8K()}).Encode(e)
		})

		// Now trace 8K reads until we catch one that loses a fragment.
		r.Net.Net.SetTracer(metrics.FuncTracer(func(ev metrics.Event) {
			trace = append(trace, ev.(netsim.TraceEvent))
		}))
		for attempt := 0; attempt < 60; attempt++ {
			before := len(trace)
			retriesBefore := tr.Stats().Retries
			tr.Call(p, nfsproto.ProcRead, func(e *xdr.Encoder) {
				(&nfsproto.ReadArgs{File: res.File, Offset: 0, Count: 8192}).Encode(e)
			})
			if tr.Stats().Retries > retriesBefore {
				events = trace[before:]
				break
			}
		}
	})
	r.Env.Run(30 * time.Minute)

	if len(events) == 0 {
		fmt.Println("no fragment loss observed this run (try another seed)")
		return
	}
	fmt.Println("one unlucky 8K read over the 56Kbps path, as the wire saw it:")
	fmt.Println()
	losses := 0
	shown := 0
	for _, ev := range events {
		// Show the serial-link hops and any losses; elide the quiet
		// Ethernet/router legs so the story stays readable.
		if ev.Op == netsim.TraceLoss || ev.Op == netsim.TraceQDrop ||
			ev.Where == "serial" || ev.Where == "client" || ev.Where == "server" {
			fmt.Println(" ", ev)
			shown++
		}
		if ev.Op == netsim.TraceLoss || ev.Op == netsim.TraceQDrop {
			losses++
		}
		if shown > 60 {
			fmt.Println("  ...")
			break
		}
	}
	fmt.Println()
	fmt.Printf("%d fragment(s) lost; every surviving fragment of that datagram was wasted,\n", losses)
	fmt.Println("and the fixed-RTO client waited out a full 1s timeout before resending the")
	fmt.Println("entire 8K read — the §4 case for congestion control or TCP.")
}

func chain8K() *mbuf.Chain { return mbuf.FromBytes(make([]byte, 8192)) }
