package renonfs_test

import (
	"runtime"
	"testing"
	"time"

	"renonfs"
	"renonfs/internal/mbuf"
	"renonfs/internal/nfsproto"
	"renonfs/internal/rpc"
	"renonfs/internal/sim"
	"renonfs/internal/xdr"
)

// rigGetattrs runs warm+n GETATTRs of the root through a fresh Rig's
// dynamic-UDP transport, one after another in one simulated process, and
// returns the rig (for its server registry) and the mean heap allocations
// of the last n round trips: client transport, simulated network and
// server core together.
func rigGetattrs(t *testing.T, warm, n int) (*renonfs.Rig, float64) {
	t.Helper()
	r := renonfs.NewRig(renonfs.RigConfig{Seed: 1})
	t.Cleanup(r.Close)
	root := r.Server.RootFH()
	args := func(e *xdr.Encoder) { (&nfsproto.GetattrArgs{File: root}).Encode(e) }
	var ms runtime.MemStats
	var before uint64
	done := 0
	r.Env.Spawn("getattr", func(p *sim.Proc) {
		tr, err := r.DialTransport(p, renonfs.UDPDynamic)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		defer tr.Close()
		for i := 0; i < warm+n; i++ {
			if i == warm {
				runtime.ReadMemStats(&ms)
				before = ms.Mallocs
			}
			if _, err := tr.Call(p, nfsproto.ProcGetattr, args); err != nil {
				t.Errorf("GETATTR %d: %v", i, err)
				return
			}
			done++
		}
		runtime.ReadMemStats(&ms)
	})
	r.Env.Run(time.Hour)
	if done != warm+n {
		t.Fatalf("%d of %d GETATTRs completed", done, warm+n)
	}
	return r, float64(ms.Mallocs-before) / float64(n)
}

// TestRigCountsEachCallOnce pins the rule that the server core is the one
// place a call is counted — once, as a sample of its procedure's
// service-time histogram: a Rig adds no second count of the same call or
// the same duplicate-cache hit to the server registry.
func TestRigCountsEachCallOnce(t *testing.T) {
	const n = 10
	r, _ := rigGetattrs(t, 0, n)
	reg := r.Server.Metrics
	if c := reg.Histogram("nfs.service_ms.getattr").Snapshot().Count; c != n {
		t.Errorf("nfs.service_ms.getattr holds %d samples after %d GETATTRs", c, n)
	}
	if calls := r.Server.Calls(); calls != n {
		t.Errorf("server counted %d calls after %d GETATTRs", calls, n)
	}

	// The same CREATE twice from the same peer: the second is answered from
	// the duplicate request cache, and that hit is counted once.
	root := r.Server.RootFH()
	attr := nfsproto.NewSattr()
	attr.Mode = 0644
	for i := 0; i < 2; i++ {
		req := &mbuf.Chain{}
		rpc.EncodeCall(req, &rpc.Call{XID: 77, Prog: nfsproto.Program, Vers: nfsproto.Version, Proc: nfsproto.ProcCreate})
		(&nfsproto.CreateArgs{Where: nfsproto.DiropArgs{Dir: root, Name: "once"}, Attr: attr}).Encode(xdr.NewEncoder(req))
		if rep := r.Server.HandleCall(nil, "dup-peer", req); rep == nil {
			t.Fatalf("CREATE %d: no reply", i)
		}
	}
	if hits := reg.Counter("nfs.dup_hits").Value(); hits != 1 {
		t.Errorf("nfs.dup_hits = %d after one retransmitted CREATE, want 1", hits)
	}
}
