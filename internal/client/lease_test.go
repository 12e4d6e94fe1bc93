package client

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"renonfs/internal/memfs"
	"renonfs/internal/netsim"
	"renonfs/internal/nfsproto"
	"renonfs/internal/server"
	"renonfs/internal/sim"
	"renonfs/internal/transport"
)

// leaseRig builds a LAN testbed with the extension-enabled server.
type leaseRig struct {
	env *sim.Env
	tb  *netsim.Testbed
	srv *server.Server
}

func newLeaseRig(t *testing.T, seed int64, mutate func(*server.Options)) *leaseRig {
	t.Helper()
	env := sim.New(seed)
	t.Cleanup(env.Close)
	tb := netsim.Build(env, netsim.TopoLAN, netsim.NodeConfig{}, netsim.NodeConfig{})
	opts := server.Reno()
	opts.Leases = true
	opts.ReaddirLook = true
	opts.LeaseDuration = 30 * time.Second
	if mutate != nil {
		mutate(&opts)
	}
	fs := memfs.New(1, nil, func() nfsproto.Time {
		now := env.Now()
		return nfsproto.Time{Sec: uint32(now / time.Second), USec: uint32(now % time.Second / time.Microsecond)}
	})
	srv := server.New(fs, opts)
	srv.AttachNode(tb.Server)
	srv.ServeUDP(server.NFSPort)
	return &leaseRig{env: env, tb: tb, srv: srv}
}

func (r *leaseRig) mount(opts Options) *Mount {
	tr := transport.NewUDP(r.tb.Client, r.tb.Client.EphemeralPort(), r.tb.Server.ID, server.NFSPort, transport.DynamicUDP())
	return NewMount(r.tb.Client, tr, r.srv.RootFH(), opts)
}

func leaseClient() Options {
	o := Reno()
	o.Name = "reno-leases"
	o.UseLeases = true
	o.LeaseDuration = 30 * time.Second
	return o
}

func (r *leaseRig) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	done := false
	r.env.Spawn("test", func(p *sim.Proc) {
		fn(p)
		done = true
	})
	r.env.Run(30 * time.Minute)
	if !done {
		t.Fatal("test process did not finish")
	}
}

func TestWriteLeaseSkipsPushOnClose(t *testing.T) {
	r := newLeaseRig(t, 1, nil)
	m := r.mount(leaseClient())
	r.run(t, func(p *sim.Proc) {
		data := pattern(2 * 8192)
		writeFile(t, p, m, "f", data)
		if got := m.Stats.RPCCount(nfsproto.ProcWrite); got != 0 {
			t.Errorf("write RPCs after leased close = %d, want 0", got)
		}
		if m.Stats.LeasesGranted == 0 {
			t.Error("no lease was granted")
		}
		// The file reads back from the local cache, coherently.
		if got := readFile(t, p, m, "f"); !bytes.Equal(got, data) {
			t.Error("leased readback corrupted")
		}
		if got := m.Stats.RPCCount(nfsproto.ProcRead); got != 0 {
			t.Errorf("read RPCs under lease = %d, want 0", got)
		}
	})
}

func TestPiggybackGrantsSkipExplicitLease(t *testing.T) {
	r := newLeaseRig(t, 11, nil)
	m := r.mount(leaseClient())
	r.run(t, func(p *sim.Proc) {
		// Create carries a write-lease hint, so the whole create-write-close
		// sequence needs no explicit LEASE RPC and no write push.
		data := pattern(2 * 8192)
		writeFile(t, p, m, "f", data)
		if got := m.Stats.RPCCount(nfsproto.ProcLease); got != 0 {
			t.Errorf("explicit LEASE RPCs = %d, want 0 (grant should piggyback on CREATE)", got)
		}
		if m.Stats.LeasePiggyGrants == 0 {
			t.Error("no piggybacked grant absorbed")
		}
		if got := m.Stats.RPCCount(nfsproto.ProcWrite); got != 0 {
			t.Errorf("write RPCs = %d, want 0 under the piggybacked write lease", got)
		}
		// Re-stat the file long after the attribute timeout: the live lease
		// serves its attributes RPC-free. (A path walk would still refresh
		// the parent directory — directories are deliberately unleased — so
		// probe the file vnode itself.)
		vn, err := m.walk(p, "f")
		if err != nil {
			t.Fatalf("walk: %v", err)
		}
		p.Sleep(8 * time.Second)
		base := m.Stats.RPCCount(nfsproto.ProcGetattr)
		if err := m.freshAttrs(p, vn); err != nil {
			t.Fatalf("freshAttrs: %v", err)
		}
		if got := m.Stats.RPCCount(nfsproto.ProcGetattr) - base; got != 0 {
			t.Errorf("getattr RPCs under live lease = %d, want 0", got)
		}
	})
}

func TestGetattrPiggybackGrantsReadLease(t *testing.T) {
	// A plain stat of a foreign file on a lease mount picks up a read
	// lease from the GETATTR piggyback; repeat stats are then RPC-free
	// even past the attribute timeout.
	r := newLeaseRig(t, 12, nil)
	writerOpts := Reno()
	writer := r.mount(writerOpts)
	m := r.mount(leaseClient())
	r.run(t, func(p *sim.Proc) {
		writeFile(t, p, writer, "f", []byte("v1"))
		if _, err := m.Getattr(p, "f"); err != nil {
			t.Fatalf("getattr: %v", err)
		}
		if m.Stats.LeasePiggyGrants == 0 {
			t.Fatal("stat absorbed no piggybacked read lease")
		}
		vn, err := m.walk(p, "f")
		if err != nil {
			t.Fatalf("walk: %v", err)
		}
		p.Sleep(8 * time.Second) // well past the 5s attribute timeout
		base := m.Stats.TotalCalls()
		if err := m.freshAttrs(p, vn); err != nil {
			t.Fatalf("freshAttrs: %v", err)
		}
		if got := m.Stats.TotalCalls() - base; got != 0 {
			t.Errorf("repeat stat under read lease cost %d RPCs, want 0", got)
		}
	})
}

func TestLeaseSharingEvictsWriter(t *testing.T) {
	r := newLeaseRig(t, 2, nil)
	writer := r.mount(leaseClient())
	reader := r.mount(leaseClient())
	r.run(t, func(p *sim.Proc) {
		writeFile(t, p, writer, "shared", []byte("leased-version-1"))
		if writer.Stats.RPCCount(nfsproto.ProcWrite) != 0 {
			t.Fatal("writer pushed despite write lease")
		}
		// A second client opens the file: the server must evict the
		// writer (who flushes) before the reader's lease is granted.
		got := readFile(t, p, reader, "shared")
		if string(got) != "leased-version-1" {
			t.Errorf("reader saw %q", got)
		}
		if writer.Stats.LeaseEvictions == 0 {
			t.Error("writer was never evicted")
		}
		if writer.Stats.RPCCount(nfsproto.ProcWrite) == 0 {
			t.Error("eviction did not flush the writer's dirty data")
		}
		if r.srv.Metrics.Counter("lease.evictions").Value() == 0 {
			t.Error("server sent no eviction notices")
		}
	})
}

func TestLeaseWriteAfterReaderEvicted(t *testing.T) {
	r := newLeaseRig(t, 3, nil)
	a := r.mount(leaseClient())
	b := r.mount(leaseClient())
	r.run(t, func(p *sim.Proc) {
		writeFile(t, p, a, "f", []byte("v1"))
		// b reads (lease conflict evicts a's write lease; read leases can
		// then be shared).
		if got := readFile(t, p, b, "f"); string(got) != "v1" {
			t.Fatalf("b read %q", got)
		}
		// a rewrites: needs the write lease back, which evicts b.
		writeFile(t, p, a, "f", []byte("v2"))
		p.Sleep(2 * time.Second)
		if got := readFile(t, p, b, "f"); string(got) != "v2" {
			t.Errorf("b read %q after rewrite, want v2", got)
		}
	})
}

func TestPlainClientGetsTryLaterThenData(t *testing.T) {
	r := newLeaseRig(t, 4, nil)
	leased := r.mount(leaseClient())
	plain := r.mount(Reno())
	r.run(t, func(p *sim.Proc) {
		writeFile(t, p, leased, "f", pattern(8192))
		if leased.Stats.RPCCount(nfsproto.ProcWrite) != 0 {
			t.Fatal("leased writer pushed at close")
		}
		// The plain client's read RPC hits the write lease: TRYLATER,
		// eviction, retry — and then coherent data.
		got := readFile(t, p, plain, "f")
		if !bytes.Equal(got, pattern(8192)) {
			t.Error("plain client read incoherent data")
		}
		if leased.Stats.LeaseEvictions == 0 {
			t.Error("write lease survived a foreign read")
		}
	})
}

// TestSetattrRetriesTryLater: a SETATTR on a file another mount holds under
// a write lease, with dirty data, is answered TRYLATER while the server
// evicts the holder. The plain mount retries it like every other call; the
// holder is evicted once and its writes reach the server.
func TestSetattrRetriesTryLater(t *testing.T) {
	r := newLeaseRig(t, 14, nil)
	plain := r.mount(Reno())
	leased := r.mount(leaseClient())
	r.run(t, func(p *sim.Proc) {
		writeFile(t, p, plain, "f", []byte("v0")) // plain caches f's name and attributes
		data := pattern(8192)
		writeFile(t, p, leased, "f", data)
		vn, err := leased.walk(p, "f")
		if err != nil {
			t.Fatalf("walk: %v", err)
		}
		if leased.leaseFor(vn, nfsproto.LeaseWrite) == nil || len(leased.bufc.DirtyBufs(vn.fileid, vn.gen)) == 0 {
			t.Fatal("the leased writer holds no write lease over dirty data")
		}
		attr := nfsproto.NewSattr()
		attr.Mode = 0600
		if err := plain.Setattr(p, "f", attr); err != nil {
			t.Fatalf("setattr against a foreign write lease: %v", err)
		}
		if got := leased.Stats.LeaseEvictions; got != 1 {
			t.Errorf("holder evicted %d times, want 1", got)
		}
		if got := readFile(t, p, plain, "f"); !bytes.Equal(got, data) {
			t.Error("the evicted holder's writes did not reach the server")
		}
	})
}

func TestLeaseRenewalProtectsDirtyData(t *testing.T) {
	r := newLeaseRig(t, 5, func(o *server.Options) {
		o.LeaseDuration = 10 * time.Second
	})
	opts := leaseClient()
	opts.LeaseDuration = 10 * time.Second
	opts.UpdateFlush = false // isolate the lease machinery from the 30s push
	m := r.mount(opts)
	r.run(t, func(p *sim.Proc) {
		f, err := m.Create(p, "f", 0644)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		f.Write(p, pattern(8192))
		f.Close(p)
		vn := f.vn
		// Long after several lease terms, the data must be safe on the
		// server: either still leased (renewals) or flushed before lapse.
		p.Sleep(60 * time.Second)
		dirty := m.bufc.DirtyBufs(vn.fileid, vn.gen)
		stillLeased := m.leaseFor(vn, nfsproto.LeaseWrite) != nil
		if len(dirty) > 0 && !stillLeased {
			t.Error("dirty data with no live lease: unsafe")
		}
		if !stillLeased && m.Stats.RPCCount(nfsproto.ProcWrite) == 0 {
			t.Error("lease lapsed without flushing")
		}
	})
}

func TestLeaseFallbackOnOldServer(t *testing.T) {
	// Server without the extension: the client must degrade to ordinary
	// consistency, transparently.
	r := newLeaseRig(t, 6, func(o *server.Options) {
		o.Leases = false
		o.ReaddirLook = false
	})
	m := r.mount(leaseClient())
	r.run(t, func(p *sim.Proc) {
		data := pattern(8192)
		writeFile(t, p, m, "f", data)
		if m.Stats.RPCCount(nfsproto.ProcWrite) == 0 {
			t.Error("no push-on-close despite lease fallback")
		}
		if got := readFile(t, p, m, "f"); !bytes.Equal(got, data) {
			t.Error("fallback roundtrip corrupted")
		}
		if !m.leasesBroken {
			t.Error("client did not notice the missing extension")
		}
	})
}

func TestReadDirLookPrimesCaches(t *testing.T) {
	rpcsFor := func(useExt bool) (int, int) {
		r := newLeaseRig(t, 7, nil)
		opts := Reno()
		opts.ReaddirLook = useExt
		m := r.mount(opts)
		var getattrs, lookups int
		r.run(t, func(p *sim.Proc) {
			m.Mkdir(p, "d", 0755)
			for i := 0; i < 20; i++ {
				writeFile(t, p, m, fmt.Sprintf("d/f%02d", i), []byte("x"))
			}
			p.Sleep(6 * time.Second) // age the attribute caches
			base := m.Stats
			// ls -l: list, then stat every entry.
			ents, err := m.ReadDirLook(p, "d")
			if err != nil {
				t.Errorf("readdirlook: %v", err)
				return
			}
			for _, ent := range ents {
				if ent.Name == "." || ent.Name == ".." {
					continue
				}
				if _, err := m.Getattr(p, "d/"+ent.Name); err != nil {
					t.Errorf("getattr %s: %v", ent.Name, err)
				}
			}
			getattrs = m.Stats.RPCCount(nfsproto.ProcGetattr) - base.Calls[nfsproto.ProcGetattr]
			lookups = m.Stats.RPCCount(nfsproto.ProcLookup) - base.Calls[nfsproto.ProcLookup]
		})
		return getattrs, lookups
	}
	gExt, lExt := rpcsFor(true)
	gStd, lStd := rpcsFor(false)
	if gExt+lExt >= gStd+lStd {
		t.Fatalf("readdirlook did not reduce RPCs: ext=%d+%d std=%d+%d", gExt, lExt, gStd, lStd)
	}
	// Directory-level attribute refreshes remain (the walk validates the
	// parent), but per-entry getattrs must be gone.
	if gExt > 3 {
		t.Errorf("ls -l after readdirlook issued %d getattrs, want <= 3 (dir-level only)", gExt)
	}
}

func TestAdaptiveRsizeShrinksUnderLoss(t *testing.T) {
	env := sim.New(8)
	defer env.Close()
	nt := netsim.New(env)
	clientNode := nt.AddNode(netsim.NodeConfig{Name: "client"})
	serverNode := nt.AddNode(netsim.NodeConfig{Name: "server"})
	cfg := netsim.Ethernet("eth")
	cfg.LossProb = 0.08 // 8K reads (6 fragments) rarely survive
	nt.Connect(clientNode, serverNode, cfg)
	nt.ComputeRoutes()
	fs := memfs.New(1, nil, nil)
	srv := server.New(fs, server.Reno())
	srv.AttachNode(serverNode)
	srv.ServeUDP(server.NFSPort)

	opts := Reno()
	opts.AdaptiveRsize = true
	opts.ReadAhead = 0
	tr := transport.NewUDP(clientNode, 9001, serverNode.ID, server.NFSPort, transport.DynamicUDP())
	m := NewMount(clientNode, tr, srv.RootFH(), opts)
	done := false
	env.Spawn("test", func(p *sim.Proc) {
		data := pattern(8 * 8192)
		f, err := m.Create(p, "big", 0644)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		f.Write(p, data)
		f.Close(p)
		m.invalidate(f.vn)
		g, err := m.Open(p, "big")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		buf := make([]byte, 4096)
		var got []byte
		for {
			n, err := g.Read(p, buf)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		if !bytes.Equal(got, data) {
			t.Error("adaptive read corrupted data")
		}
		done = true
	})
	env.Run(30 * time.Minute)
	if !done {
		t.Fatal("did not finish")
	}
	if m.rsize >= 8192 {
		t.Errorf("rsize = %d; should have shrunk under fragment loss", m.rsize)
	}
}

func TestAdaptiveRsizeStaysFullOnCleanLAN(t *testing.T) {
	r := newLeaseRig(t, 9, nil)
	opts := Reno()
	opts.AdaptiveRsize = true
	m := r.mount(opts)
	r.run(t, func(p *sim.Proc) {
		data := pattern(6 * 8192)
		writeFile(t, p, m, "big", data)
		got := readFile(t, p, m, "big")
		if !bytes.Equal(got, data) {
			t.Error("roundtrip corrupted")
		}
	})
	if m.rsize != 8192 {
		t.Errorf("rsize = %d on a clean LAN, want 8192", m.rsize)
	}
}

func TestServerLeaseTableExpiry(t *testing.T) {
	r := newLeaseRig(t, 10, func(o *server.Options) {
		o.LeaseDuration = 5 * time.Second
	})
	opts := leaseClient()
	opts.LeaseDuration = 5 * time.Second
	opts.UpdateFlush = false
	m := r.mount(opts)
	r.run(t, func(p *sim.Proc) {
		f, _ := m.Create(p, "f", 0644)
		f.Write(p, []byte("x"))
		f.Close(p)
		if r.srv.Leases() == 0 {
			t.Error("no lease on the server after leased write")
		}
		// Stop renewing (drop the client's lease record) and let it lapse.
		m.flushVnode(p, f.vn, true)
		m.dropLease(f.vn)
		p.Sleep(20 * time.Second)
		if r.srv.Leases() != 0 {
			t.Errorf("%d leases survive long past expiry", r.srv.Leases())
		}
	})
}

// TestLeaseRenewSkipsRemovedFile: a Remove that drops a lease while the
// renewal sweep is parked renewing an earlier file leaves a key the sweep
// has not reached yet; the sweep must skip it, not dereference it.
func TestLeaseRenewSkipsRemovedFile(t *testing.T) {
	r := newLeaseRig(t, 15, func(o *server.Options) {
		o.LeaseDuration = 10 * time.Second
	})
	opts := leaseClient()
	opts.LeaseDuration = 10 * time.Second
	opts.UpdateFlush = false
	m := r.mount(opts)
	r.run(t, func(p *sim.Proc) {
		writeFile(t, p, m, "a", []byte("a"))
		writeFile(t, p, m, "b", []byte("b"))
		base := m.Stats.RPCCount(nfsproto.ProcLease)
		removed := false
		r.env.Spawn("rm", func(q *sim.Proc) {
			for m.Stats.RPCCount(nfsproto.ProcLease) == base {
				q.Sleep(100 * time.Microsecond)
			}
			if err := m.Remove(q, "b"); err != nil {
				t.Errorf("remove: %v", err)
			}
			removed = true
		})
		p.Sleep(20 * time.Second)
		if !removed {
			t.Fatal("the renewal sweep sent no LEASE: the remove raced nothing")
		}
		if got := readFile(t, p, m, "a"); string(got) != "a" {
			t.Errorf("a reads %q after the renewals", got)
		}
	})
}

// TestVacateAllSkipsSurrenderedLease: a lease surrendered while unmount's
// VACATED loop is parked on an earlier file is gone when the loop reaches
// it, so the loop skips it instead of sending a second VACATED.
func TestVacateAllSkipsSurrenderedLease(t *testing.T) {
	r := newLeaseRig(t, 13, nil)
	m := r.mount(leaseClient())
	r.run(t, func(p *sim.Proc) {
		writeFile(t, p, m, "a", []byte("a"))
		writeFile(t, p, m, "b", []byte("b"))
		vn, err := m.walk(p, "b")
		if err != nil {
			t.Fatalf("walk: %v", err)
		}
		if len(m.leases) != 2 {
			t.Fatalf("holding %d leases, want 2", len(m.leases))
		}
		surrendered := false
		r.env.Spawn("evict", func(q *sim.Proc) {
			for m.Stats.RPCCount(nfsproto.ProcVacated) == 0 {
				q.Sleep(100 * time.Microsecond)
			}
			m.surrender(q, vn) // as leaseCallbackProc does on an eviction
			surrendered = true
		})
		m.Close(p)
		for !surrendered {
			p.Sleep(time.Millisecond)
		}
		if got := m.Stats.RPCCount(nfsproto.ProcVacated); got != 2 {
			t.Errorf("%d VACATED calls, want 2: one from unmount, one from the surrender", got)
		}
	})
}
