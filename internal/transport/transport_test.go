package transport

import (
	"fmt"
	"testing"
	"time"

	"renonfs/internal/memfs"
	"renonfs/internal/metrics"
	"renonfs/internal/netsim"
	"renonfs/internal/nfsproto"
	"renonfs/internal/server"
	"renonfs/internal/sim"
	"renonfs/internal/tcpsim"
	"renonfs/internal/xdr"
)

// rig is a client/server testbed with a running NFS server.
type rig struct {
	env *sim.Env
	tb  *netsim.Testbed
	srv *server.Server
}

func newRig(t *testing.T, seed int64, topo netsim.Topology, mutateLinks func(*netsim.Net)) *rig {
	t.Helper()
	env := sim.New(seed)
	t.Cleanup(env.Close)
	tb := netsim.Build(env, topo, netsim.NodeConfig{}, netsim.NodeConfig{})
	if mutateLinks != nil {
		mutateLinks(tb.Net)
	}
	fs := memfs.New(1, nil, nil)
	for i := 0; i < 20; i++ {
		f, _ := fs.Create(nil, fs.Root(), fmt.Sprintf("file-%02d", i), 0644)
		fs.WriteAt(nil, f, 0, make([]byte, 8192), 1)
	}
	srv := server.New(fs, server.Reno())
	srv.AttachNode(tb.Server)
	srv.ServeUDP(server.NFSPort)
	srv.ServeTCP(tcpsim.NewStack(tb.Server), server.NFSPort)
	return &rig{env: env, tb: tb, srv: srv}
}

func lookupCall(r *rig, name string) (uint32, func(e *xdr.Encoder)) {
	root := r.srv.RootFH()
	return nfsproto.ProcLookup, func(e *xdr.Encoder) {
		(&nfsproto.DiropArgs{Dir: root, Name: name}).Encode(e)
	}
}

func readCall(r *rig, fh nfsproto.FH) (uint32, func(e *xdr.Encoder)) {
	return nfsproto.ProcRead, func(e *xdr.Encoder) {
		(&nfsproto.ReadArgs{File: fh, Offset: 0, Count: 8192}).Encode(e)
	}
}

func TestUDPFixedRoundTrip(t *testing.T) {
	r := newRig(t, 1, netsim.TopoLAN, nil)
	tr := NewUDP(r.tb.Client, 1001, r.tb.Server.ID, server.NFSPort, FixedUDP())
	var res *nfsproto.DiropRes
	r.env.Spawn("client", func(p *sim.Proc) {
		proc, args := lookupCall(r, "file-00")
		d, err := tr.Call(p, proc, args)
		if err != nil {
			t.Errorf("call: %v", err)
			return
		}
		res, err = nfsproto.DecodeDiropRes(d)
		if err != nil {
			t.Errorf("decode: %v", err)
		}
	})
	r.env.Run(30 * time.Second)
	if res == nil || res.Status != nfsproto.OK {
		t.Fatalf("res = %+v", res)
	}
	if tr.Stats().Calls != 1 || tr.Stats().Replies != 1 {
		t.Fatalf("stats = %+v", tr.Stats())
	}
}

func TestUDPReadAcrossTopologies(t *testing.T) {
	for _, topo := range []netsim.Topology{netsim.TopoLAN, netsim.TopoRing} {
		r := newRig(t, 2, topo, nil)
		tr := NewUDP(r.tb.Client, 1001, r.tb.Server.ID, server.NFSPort, DynamicUDP())
		got := 0
		r.env.Spawn("client", func(p *sim.Proc) {
			proc, args := lookupCall(r, "file-01")
			d, err := tr.Call(p, proc, args)
			if err != nil {
				t.Errorf("%v lookup: %v", topo, err)
				return
			}
			lres, _ := nfsproto.DecodeDiropRes(d)
			proc, args = readCall(r, lres.File)
			d, err = tr.Call(p, proc, args)
			if err != nil {
				t.Errorf("%v read: %v", topo, err)
				return
			}
			rres, err := nfsproto.DecodeReadRes(d)
			if err != nil || rres.Status != nfsproto.OK {
				t.Errorf("%v read res: %v %v", topo, rres, err)
				return
			}
			got = rres.Data.Len()
		})
		r.env.Run(2 * time.Minute)
		if got != 8192 {
			t.Fatalf("%v: read %d bytes", topo, got)
		}
	}
}

func TestUDPRetransmitsOnLoss(t *testing.T) {
	r := newRig(t, 3, netsim.TopoLAN, func(nt *netsim.Net) {})
	// Rebuild with loss: use a fresh rig whose LAN drops 30% of frames.
	env := sim.New(3)
	defer env.Close()
	nt := netsim.New(env)
	client := nt.AddNode(netsim.NodeConfig{Name: "client"})
	srvNode := nt.AddNode(netsim.NodeConfig{Name: "server"})
	cfg := netsim.Ethernet("eth")
	cfg.LossProb = 0.3
	cfg.BgUtil = 0
	nt.Connect(client, srvNode, cfg)
	nt.ComputeRoutes()
	fs := memfs.New(1, nil, nil)
	fs.Create(nil, fs.Root(), "f", 0644)
	srv := server.New(fs, server.Reno())
	srv.AttachNode(srvNode)
	srv.ServeUDP(server.NFSPort)
	tr := NewUDP(client, 1001, srvNode.ID, server.NFSPort, FixedUDP())
	okCalls := 0
	env.Spawn("client", func(p *sim.Proc) {
		root := srv.RootFH()
		for i := 0; i < 20; i++ {
			d, err := tr.Call(p, nfsproto.ProcLookup, func(e *xdr.Encoder) {
				(&nfsproto.DiropArgs{Dir: root, Name: "f"}).Encode(e)
			})
			if err != nil {
				continue
			}
			if res, _ := nfsproto.DecodeDiropRes(d); res != nil && res.Status == nfsproto.OK {
				okCalls++
			}
		}
	})
	env.Run(10 * time.Minute)
	if okCalls != 20 {
		t.Fatalf("okCalls = %d", okCalls)
	}
	if tr.Stats().Retries == 0 {
		t.Fatal("no retries under 30% loss")
	}
	_ = r
}

func TestDynamicEstimatorConverges(t *testing.T) {
	r := newRig(t, 5, netsim.TopoLAN, nil)
	tr := NewUDP(r.tb.Client, 1001, r.tb.Server.ID, server.NFSPort, DynamicUDP())
	r.env.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			proc, args := lookupCall(r, fmt.Sprintf("file-%02d", i%20))
			tr.Call(p, proc, args)
			p.Sleep(100 * time.Millisecond)
		}
	})
	r.env.Run(2 * time.Minute)
	srtt, _, rto := tr.Estimator(ClassLookup)
	if srtt == 0 {
		t.Fatal("no RTT samples accumulated")
	}
	if srtt > 200*time.Millisecond {
		t.Fatalf("LAN lookup srtt = %v, implausibly high", srtt)
	}
	if rto < MinRTO || rto > 2*time.Second {
		t.Fatalf("rto = %v", rto)
	}
	// The 'other' class must still use the mount constant.
	if _, _, o := tr.Estimator(ClassOther); o != time.Second {
		t.Fatalf("other-class rto = %v, want the 1s mount constant", o)
	}
}

func TestCongestionWindowDynamics(t *testing.T) {
	// Replies grow the window (TestCwndHalvesOnRealTimeout covers the halving).
	env := sim.New(7)
	defer env.Close()
	nt := netsim.New(env)
	client := nt.AddNode(netsim.NodeConfig{Name: "client"})
	srvNode := nt.AddNode(netsim.NodeConfig{Name: "server"})
	cfg := netsim.Ethernet("eth")
	cfg.LossProb = 0
	cfg.BgUtil = 0
	nt.Connect(client, srvNode, cfg)
	nt.ComputeRoutes()
	fs := memfs.New(1, nil, nil)
	fs.Create(nil, fs.Root(), "f", 0644)
	srv := server.New(fs, server.Reno())
	srv.AttachNode(srvNode)
	srv.ServeUDP(server.NFSPort)
	tr := NewUDP(client, 1001, srvNode.ID, server.NFSPort, DynamicUDP())
	start := tr.Cwnd()
	env.Spawn("client", func(p *sim.Proc) {
		root := srv.RootFH()
		for i := 0; i < 30; i++ {
			tr.Call(p, nfsproto.ProcLookup, func(e *xdr.Encoder) {
				(&nfsproto.DiropArgs{Dir: root, Name: "f"}).Encode(e)
			})
		}
	})
	env.Run(time.Minute)
	grown := tr.Cwnd()
	if grown <= start {
		t.Fatalf("cwnd did not grow: %v -> %v", start, grown)
	}
}

func TestCwndHalvesOnRealTimeout(t *testing.T) {
	env := sim.New(9)
	defer env.Close()
	nt := netsim.New(env)
	client := nt.AddNode(netsim.NodeConfig{Name: "client"})
	srvNode := nt.AddNode(netsim.NodeConfig{Name: "server"})
	cfg := netsim.Ethernet("eth")
	cfg.LossProb = 1.0 // black hole
	nt.Connect(client, srvNode, cfg)
	nt.ComputeRoutes()
	ucfg := DynamicUDP()
	ucfg.Retrans = 2
	tr := NewUDP(client, 1001, srvNode.ID, server.NFSPort, ucfg)
	var err error
	env.Spawn("client", func(p *sim.Proc) {
		_, err = tr.Call(p, nfsproto.ProcLookup, func(e *xdr.Encoder) {
			(&nfsproto.DiropArgs{Dir: nfsproto.MakeFH(1, 2, 1), Name: "x"}).Encode(e)
		})
	})
	env.Run(5 * time.Minute)
	if err != ErrCallTimeout {
		t.Fatalf("err = %v, want ErrCallTimeout", err)
	}
	if tr.Cwnd() >= 4 {
		t.Fatalf("cwnd = %v, should have been halved", tr.Cwnd())
	}
	if tr.Stats().Failures != 1 {
		t.Fatalf("failures = %d", tr.Stats().Failures)
	}
}

// TestUDPTimerParksWhileIdle checks that the NFS client timer stops waking
// while no call is pending, and that its ticks afterwards fall on the grid the
// last retransmission left behind. Each retransmission charges the send to
// the timer, shifting its grid by that CPU time c; c is read off the first
// retransmission, whose tick is known because nothing has shifted the grid
// since the timer was spawned at time 0.
func TestUDPTimerParksWhileIdle(t *testing.T) {
	env := sim.New(5)
	defer env.Close()
	nt := netsim.New(env)
	client := nt.AddNode(netsim.NodeConfig{Name: "client"})
	srvNode := nt.AddNode(netsim.NodeConfig{Name: "server"})
	link := netsim.Ethernet("eth")
	link.LossProb = 1.0 // black hole
	nt.Connect(client, srvNode, link)
	nt.ComputeRoutes()
	cfg := FixedUDP()
	cfg.Retrans = 1
	type stamped struct {
		at sim.Time
		ev metrics.Event
	}
	var evs []stamped
	cfg.Tracer = metrics.FuncTracer(func(ev metrics.Event) {
		switch ev.(type) {
		case metrics.Retransmit, metrics.CallFailed:
			evs = append(evs, stamped{env.Now(), ev})
		}
	})
	tr := NewUDP(client, 1001, srvNode.ID, server.NFSPort, cfg)

	// Part one: with nothing pending the timer parks after its first tick
	// and the event queue drains.
	if end := env.RunAll(); end != NFSTick {
		t.Fatalf("idle transport drained at %v, want %v", end, NFSTick)
	}

	// Part two: two calls to the black hole, separated by an idle stretch
	// that is not a whole number of ticks.
	const callA, idleGap = 1234 * time.Millisecond, 7310 * time.Millisecond
	var callB sim.Time
	env.Spawn("client", func(p *sim.Proc) {
		lookup := func(e *xdr.Encoder) {
			(&nfsproto.DiropArgs{Dir: nfsproto.MakeFH(1, 2, 1), Name: "x"}).Encode(e)
		}
		p.Sleep(callA - p.Now())
		if _, err := tr.Call(p, nfsproto.ProcLookup, lookup); err != ErrCallTimeout {
			t.Errorf("first call: err = %v, want ErrCallTimeout", err)
		}
		p.Sleep(idleGap)
		callB = p.Now()
		if _, err := tr.Call(p, nfsproto.ProcLookup, lookup); err != ErrCallTimeout {
			t.Errorf("second call: err = %v, want ErrCallTimeout", err)
		}
	})
	env.RunAll()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want retransmit+failure for each of 2 calls: %+v", len(evs), evs)
	}

	// nextTick is the first tick at or after d on the grid through anchor.
	nextTick := func(anchor, d sim.Time) sim.Time {
		return anchor + (d-anchor+NFSTick-1)/NFSTick*NFSTick
	}
	timeo := cfg.Timeo
	// The first call's timeout expires on the spawn grid, and its
	// retransmission is emitted once the send has been charged. Every later
	// tick, the idle stretch included, is on the grid through that emission.
	retxA := evs[0].at
	c := retxA - nextTick(0, callA+timeo)
	if c <= 0 || c >= NFSTick {
		t.Fatalf("send charge c = %v, want in (0, %v)", c, NFSTick)
	}
	if callB != retxA+2*timeo+idleGap {
		t.Fatalf("second call issued at %v, want %v", callB, retxA+2*timeo+idleGap)
	}
	retxB := nextTick(retxA, callB+timeo) + c
	want := []sim.Time{retxA, retxA + 2*timeo, retxB, retxB + 2*timeo}
	for i, e := range evs {
		_, isRetx := e.ev.(metrics.Retransmit)
		if e.at != want[i] || isRetx != (i%2 == 0) {
			t.Errorf("event %d: %T at %v, want a %s at %v on the timer grid",
				i, e.ev, e.at, []string{"retransmission", "failure"}[i%2], want[i])
		}
	}
}

func TestTCPTransportRoundTrip(t *testing.T) {
	for _, topo := range []netsim.Topology{netsim.TopoLAN, netsim.TopoSlow} {
		r := newRig(t, 11, topo, nil)
		stack := tcpsim.NewStack(r.tb.Client)
		var got int
		var callErr error
		r.env.Spawn("client", func(p *sim.Proc) {
			tr, err := NewTCP(p, stack, r.tb.Server.ID, server.NFSPort)
			if err != nil {
				callErr = err
				return
			}
			proc, args := lookupCall(r, "file-02")
			d, err := tr.Call(p, proc, args)
			if err != nil {
				callErr = err
				return
			}
			lres, _ := nfsproto.DecodeDiropRes(d)
			proc, args = readCall(r, lres.File)
			d, err = tr.Call(p, proc, args)
			if err != nil {
				callErr = err
				return
			}
			rres, err := nfsproto.DecodeReadRes(d)
			if err != nil {
				callErr = err
				return
			}
			got = rres.Data.Len()
		})
		r.env.Run(5 * time.Minute)
		if callErr != nil {
			t.Fatalf("%v: %v", topo, callErr)
		}
		if got != 8192 {
			t.Fatalf("%v: read %d bytes", topo, got)
		}
	}
}

func TestConcurrentCallersMatchedCorrectly(t *testing.T) {
	r := newRig(t, 13, netsim.TopoLAN, nil)
	tr := NewUDP(r.tb.Client, 1001, r.tb.Server.ID, server.NFSPort, DynamicUDP())
	results := make([]uint32, 8)
	for i := 0; i < 8; i++ {
		i := i
		r.env.Spawn(fmt.Sprintf("caller%d", i), func(p *sim.Proc) {
			name := fmt.Sprintf("file-%02d", i)
			proc, args := lookupCall(r, name)
			d, err := tr.Call(p, proc, args)
			if err != nil {
				return
			}
			res, err := nfsproto.DecodeDiropRes(d)
			if err != nil || res.Status != nfsproto.OK {
				return
			}
			_, fileid, _ := res.File.Parts()
			results[i] = fileid
		})
	}
	r.env.Run(time.Minute)
	seen := map[uint32]bool{}
	for i, id := range results {
		if id == 0 {
			t.Fatalf("caller %d got no result", i)
		}
		if seen[id] {
			t.Fatalf("two callers got the same file id %d: replies were cross-matched", id)
		}
		seen[id] = true
	}
}

// TestTraceRecording reads the Graph 7 trace off the event stream: each READ
// Reply carries its RTT and the RTO its transmission went out with. The
// expected RTO is taken when the call is sent (the first transmission uses
// the class timeout the estimator holds then) and moved by any Retransmit.
func TestTraceRecording(t *testing.T) {
	r := newRig(t, 17, netsim.TopoLAN, nil)
	cfg := DynamicUDP()
	var tr *UDP
	var reads []metrics.Reply
	txRTO := map[uint32]sim.Time{}
	cfg.Tracer = metrics.FuncTracer(func(ev metrics.Event) {
		switch ev := ev.(type) {
		case metrics.CallSent:
			txRTO[ev.XID] = tr.rtoFor(ClassOf(ev.Proc))
		case metrics.Retransmit:
			txRTO[ev.XID] = ev.RTO
		case metrics.Reply:
			if ev.Proc == nfsproto.ProcRead {
				reads = append(reads, ev)
				if ev.RTO != txRTO[ev.XID] {
					t.Errorf("read xid %d: reply RTO %v, its transmission used %v", ev.XID, ev.RTO, txRTO[ev.XID])
				}
			}
		}
	})
	tr = NewUDP(r.tb.Client, 1001, r.tb.Server.ID, server.NFSPort, cfg)
	r.env.Spawn("client", func(p *sim.Proc) {
		proc, args := lookupCall(r, "file-03")
		d, err := tr.Call(p, proc, args)
		if err != nil {
			return
		}
		lres, _ := nfsproto.DecodeDiropRes(d)
		for i := 0; i < 5; i++ {
			proc, args := readCall(r, lres.File)
			tr.Call(p, proc, args)
		}
	})
	r.env.Run(time.Minute)
	if len(reads) != 5 {
		t.Fatalf("trace points = %d, want 5 (reads only)", len(reads))
	}
	for _, rep := range reads {
		if rep.RTT <= 0 || rep.RTO <= 0 {
			t.Fatalf("bad trace point: %+v", rep)
		}
	}
}

// TestTCPReconnectAfterConnLoss: when the connection dies, the transport
// redials and later calls keep working (pending ones are replayed; the
// server's duplicate request cache absorbs any repeats).
func TestTCPReconnectAfterConnLoss(t *testing.T) {
	r := newRig(t, 19, netsim.TopoLAN, nil)
	var firstOK, secondOK bool
	r.env.Spawn("client", func(p *sim.Proc) {
		tr, err := NewTCP(p, tcpsim.NewStack(r.tb.Client), r.tb.Server.ID, server.NFSPort)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		proc, args := lookupCall(r, "file-00")
		if d, err := tr.Call(p, proc, args); err == nil {
			if res, _ := nfsproto.DecodeDiropRes(d); res != nil && res.Status == nfsproto.OK {
				firstOK = true
			}
		}
		// Kill the connection out from under the transport.
		tr.conn.Abort()
		p.Sleep(5 * time.Second) // let the rx loop notice and redial
		if d, err := tr.Call(p, proc, args); err == nil {
			if res, _ := nfsproto.DecodeDiropRes(d); res != nil && res.Status == nfsproto.OK {
				secondOK = true
			}
		}
	})
	r.env.Run(5 * time.Minute)
	if !firstOK || !secondOK {
		t.Fatalf("firstOK=%v secondOK=%v", firstOK, secondOK)
	}
}

// TestTCPReplyTimeoutRecoversSilentOutage models the one loss TCP cannot
// recover on its own: the server acks our request bytes, then reboots and
// its connection state — and any RST it might have sent — is gone. With no
// unacked data on either side, nothing would ever be transmitted again.
// The transport's reply-timeout watchdog must abort, redial and replay
// until the server answers.
func TestTCPReplyTimeoutRecoversSilentOutage(t *testing.T) {
	r := newRig(t, 23, netsim.TopoLAN, nil)
	var ok bool
	var retries int
	r.env.Spawn("client", func(p *sim.Proc) {
		tr, err := NewTCP(p, tcpsim.NewStack(r.tb.Client), r.tb.Server.ID, server.NFSPort)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		// Server goes down hard: frontends drop every request and its
		// connections die silently.
		r.srv.SetDown(true)
		r.srv.AbortTCPConns()
		r.env.At(p.Now()+60*time.Second, func() { r.srv.SetDown(false) })
		proc, args := lookupCall(r, "file-00")
		d, err := tr.Call(p, proc, args)
		if err != nil {
			t.Errorf("call: %v", err)
			return
		}
		res, _ := nfsproto.DecodeDiropRes(d)
		ok = res != nil && res.Status == nfsproto.OK
		retries = tr.Stats().Retries
	})
	r.env.Run(10 * time.Minute)
	if !ok {
		t.Fatal("call never completed after the server came back")
	}
	if retries == 0 {
		t.Fatal("expected watchdog-driven replays across the outage")
	}
}
