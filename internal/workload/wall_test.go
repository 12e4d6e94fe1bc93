package workload

import (
	"context"
	"testing"
	"time"

	"renonfs/internal/memfs"
	"renonfs/internal/nfsnet"
	"renonfs/internal/nfsproto"
	"renonfs/internal/server"
	"renonfs/internal/sim"
	"renonfs/internal/transport"
)

// TestNhfsstoneRealSocket runs the generator and the tuned UDP transport on
// the wall clock against a loopback nfsnet server, at the top loads of
// Graph 1 (lookups, 50 RPC/s) and Graph 2 (read/lookup, 20 RPC/s). The
// bounds are loose: shared CI runners stall goroutines for tens of
// milliseconds.
func TestNhfsstoneRealSocket(t *testing.T) {
	for _, c := range []struct {
		name string
		mix  map[uint32]float64
		rate float64
	}{{"graph1-lookup", DefaultLookupMix(), 50}, {"graph2-read", ReadLookupMix(), 20}} {
		t.Run(c.name, func(t *testing.T) {
			srv, err := nfsnet.Serve(server.New(memfs.New(1, nil, nil), server.Reno()), "127.0.0.1:0", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			env := sim.New(1)
			defer env.Close()
			tr, err := transport.DialUDP(env, srv.UDPAddr(), transport.DynamicUDP())
			if err != nil {
				t.Fatal(err)
			}
			var res *NhfsstoneResult
			env.Spawn("bench", func(p *sim.Proc) {
				defer env.Stop()
				defer tr.Close()
				nh := &Nhfsstone{
					Cfg: NhfsstoneConfig{
						Mix: c.mix, Rate: c.rate, Procs: 4,
						Duration: 2 * time.Second, Warmup: 200 * time.Millisecond,
						NumFiles: 20, FileSize: 8192,
					},
					Tr:   tr,
					Root: srv.Core().RootFH(),
				}
				if err := nh.Preload(p); err != nil {
					t.Errorf("preload: %v", err)
					return
				}
				res = nh.Run(p)
			})
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			env.RunWall(ctx)
			if res == nil {
				t.Fatal("run did not complete")
			}
			if res.Failures != 0 {
				t.Errorf("%d failed calls", res.Failures)
			}
			if res.Achieved < c.rate/2 {
				t.Errorf("achieved %.1f RPC/s of %.0f offered", res.Achieved, c.rate)
			}
			if c.mix[nfsproto.ProcRead] > 0 && res.RTT[nfsproto.ProcRead].Count == 0 {
				t.Error("no READ samples")
			}
		})
	}
}
