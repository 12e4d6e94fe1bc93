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

// rigCall is one kind of back-to-back call loop through a Rig.
type rigCall struct {
	kind  renonfs.TransportKind
	read  bool // an 8 KB READ of a preloaded file
	write bool // an 8 KB WRITE over it; neither: a GETATTR of the root
}

// rigLoop is what rigCalls measured over its last n calls.
type rigLoop struct {
	allocs            float64 // heap allocations per call
	events, switches  float64 // the kernel's events and process switches per call
	queued, maxQueued int     // events queued at the end, and at most after a call
}

// rigCalls runs warm+n calls of one kind through a fresh Rig, one after
// another in one simulated process, and returns the rig (for its server
// registry) and what the last n cost: client transport, simulated network
// and server core together. Each reply is handed back once it arrives, as
// the simulated clients do.
func rigCalls(t *testing.T, c rigCall, warm, n int) (*renonfs.Rig, rigLoop) {
	t.Helper()
	r := renonfs.NewRig(renonfs.RigConfig{Seed: 1})
	t.Cleanup(r.Close)
	root := r.Server.RootFH()
	proc, args := uint32(nfsproto.ProcGetattr), (&nfsproto.GetattrArgs{File: root}).Encode
	if c.read || c.write {
		f, err := r.FS.Create(nil, r.FS.Root(), "data", 0644)
		if err == nil {
			err = r.FS.WriteAt(nil, f, 0, make([]byte, 8192), 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		fh := r.FS.FH(f)
		proc, args = nfsproto.ProcRead, (&nfsproto.ReadArgs{File: fh, Count: 8192}).Encode
		if data := make([]byte, 8192); c.write {
			proc, args = nfsproto.ProcWrite, func(e *xdr.Encoder) {
				(&nfsproto.WriteArgs{File: fh, Data: mbuf.FromBytes(data)}).Encode(e)
			}
		}
	}
	var ms runtime.MemStats
	var before uint64
	var w0 sim.Counts
	var loop rigLoop
	done := 0
	r.Env.Spawn("caller", func(p *sim.Proc) {
		tr, err := r.DialTransport(p, c.kind)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		defer tr.Close()
		for i := 0; i < warm+n; i++ {
			if i == warm {
				runtime.ReadMemStats(&ms)
				before = ms.Mallocs
				w0 = r.Env.Counts()
			}
			d, err := tr.Call(p, proc, args)
			if err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
			tr.Release(d)
			done++
			loop.maxQueued = max(loop.maxQueued, r.Env.Counts().Queued)
		}
		runtime.ReadMemStats(&ms)
		w := r.Env.Counts()
		loop.events = float64(w.Events-w0.Events) / float64(n)
		loop.switches = float64(w.Switches-w0.Switches) / float64(n)
		loop.queued = w.Queued
	})
	r.Env.Run(time.Hour)
	if done != warm+n {
		t.Fatalf("%d of %d calls completed", done, warm+n)
	}
	loop.allocs = float64(ms.Mallocs-before) / float64(n)
	return r, loop
}

// TestRigCountsEachCallOnce pins the rule that the server core is the one
// place a call is counted — once, as a sample of its procedure's
// service-time histogram: a Rig adds no second count of the same call or
// the same duplicate-cache hit to the server registry.
func TestRigCountsEachCallOnce(t *testing.T) {
	const n = 10
	r, _ := rigCalls(t, rigCall{kind: renonfs.UDPDynamic}, 0, n)
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

// TestTCPLoopWork pins what simulated TCP costs the kernel, in its own
// units: over 1,000 back-to-back calls a GETATTR or an 8 KB READ switches
// into a process at most 3 times (the caller's wake-up, an nfsd's), and
// the event queue holds no more than a handful of events per connection
// (its slow-timeout timer, the transport watchdog's sleep, the call in
// flight) — against 9 and 42 switches, and 108–285 queued events of stale
// timeouts, while connections, listener and readers were processes.
func TestTCPLoopWork(t *testing.T) {
	const perConn, conns, maxSwitches = 3, 2, 3.0
	for _, read := range []bool{false, true} {
		_, loop := rigCalls(t, rigCall{kind: renonfs.TCP, read: read}, 100, 1000)
		t.Logf("read=%v: %.1f events and %.2f switches per call; %d events queued at the end, at most %d after a call",
			read, loop.events, loop.switches, loop.queued, loop.maxQueued)
		if loop.switches > maxSwitches {
			t.Errorf("read=%v: %.2f process switches per call, budget %.0f", read, loop.switches, maxSwitches)
		}
		if loop.maxQueued > perConn*conns {
			t.Errorf("read=%v: %d events queued after a call, budget %d per connection", read, loop.maxQueued, perConn)
		}
	}
}
