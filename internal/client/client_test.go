package client

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"testing"
	"time"

	"renonfs/internal/memfs"
	"renonfs/internal/netsim"
	"renonfs/internal/nfsproto"
	"renonfs/internal/server"
	"renonfs/internal/sim"
	"renonfs/internal/transport"
	"renonfs/internal/vfs"
)

// rig wires a client node and a Reno server over a clean LAN.
type rig struct {
	env *sim.Env
	tb  *netsim.Testbed
	srv *server.Server
}

func newRig(t *testing.T, seed int64) *rig {
	t.Helper()
	env := sim.New(seed)
	t.Cleanup(env.Close)
	tb := netsim.Build(env, netsim.TopoLAN, netsim.NodeConfig{}, netsim.NodeConfig{})
	// Deterministic: remove the random loss/背景 jitter from the LAN.
	fs := memfs.New(1, nil, nil)
	srv := server.New(fs, server.Reno())
	srv.AttachNode(tb.Server)
	srv.ServeUDP(server.NFSPort)
	return &rig{env: env, tb: tb, srv: srv}
}

var portCounter = 1000

func (r *rig) mount(opts Options) *Mount {
	portCounter++
	tr := transport.NewUDP(r.tb.Client, portCounter, r.tb.Server.ID, server.NFSPort, transport.DynamicUDP())
	return NewMount(r.tb.Client, tr, r.srv.RootFH(), opts)
}

// run executes fn as a simulated process and drives the sim to completion.
func (r *rig) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	errc := make(chan any, 1)
	r.env.Spawn("test", func(p *sim.Proc) {
		fn(p)
		select {
		case errc <- nil:
		default:
		}
	})
	r.env.Run(30 * time.Minute)
	select {
	case <-errc:
	default:
		t.Fatal("test process did not finish (deadlock in sim?)")
	}
}

func writeFile(t *testing.T, p *sim.Proc, m *Mount, path string, data []byte) {
	t.Helper()
	f, err := m.Create(p, path, 0644)
	if err != nil {
		t.Fatalf("create %s: %v", path, err)
	}
	if _, err := f.Write(p, data); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
	if err := f.Close(p); err != nil {
		t.Fatalf("close %s: %v", path, err)
	}
}

func readFile(t *testing.T, p *sim.Proc, m *Mount, path string) []byte {
	t.Helper()
	f, err := m.Open(p, path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	var out []byte
	buf := make([]byte, 4096)
	for {
		n, err := f.Read(p, buf)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		if n == 0 {
			break
		}
		out = append(out, buf[:n]...)
	}
	f.Close(p)
	return out
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i/255)
	}
	return b
}

func TestWriteReadRoundTrip(t *testing.T) {
	r := newRig(t, 1)
	m := r.mount(Reno())
	r.run(t, func(p *sim.Proc) {
		data := pattern(20000)
		writeFile(t, p, m, "f.dat", data)
		got := readFile(t, p, m, "f.dat")
		if !bytes.Equal(got, data) {
			t.Errorf("roundtrip mismatch: %d vs %d bytes", len(got), len(data))
		}
	})
}

func TestMkdirTreeAndRename(t *testing.T) {
	r := newRig(t, 2)
	m := r.mount(Reno())
	r.run(t, func(p *sim.Proc) {
		if err := m.Mkdir(p, "src", 0755); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		if err := m.Mkdir(p, "src/lib", 0755); err != nil {
			t.Fatalf("mkdir nested: %v", err)
		}
		writeFile(t, p, m, "src/lib/a.c", []byte("int main(){}"))
		if err := m.Rename(p, "src/lib/a.c", "src/b.c"); err != nil {
			t.Fatalf("rename: %v", err)
		}
		if _, err := m.Open(p, "src/lib/a.c"); !IsNoEnt(err) {
			t.Fatalf("old name open: %v", err)
		}
		if got := readFile(t, p, m, "src/b.c"); string(got) != "int main(){}" {
			t.Fatalf("renamed content: %q", got)
		}
		ents, err := m.ReadDir(p, "src")
		if err != nil {
			t.Fatalf("readdir: %v", err)
		}
		names := map[string]bool{}
		for _, e := range ents {
			names[e.Name] = true
		}
		if !names["lib"] || !names["b.c"] {
			t.Fatalf("entries: %v", ents)
		}
	})
}

func TestNameCacheCutsLookups(t *testing.T) {
	lookups := func(opts Options) int {
		r := newRig(t, 3)
		m := r.mount(opts)
		var count int
		r.run(t, func(p *sim.Proc) {
			m.Mkdir(p, "d", 0755)
			for i := 0; i < 5; i++ {
				writeFile(t, p, m, fmt.Sprintf("d/f%d", i), []byte("x"))
			}
			for round := 0; round < 10; round++ {
				for i := 0; i < 5; i++ {
					m.Getattr(p, fmt.Sprintf("d/f%d", i))
				}
			}
			count = m.Stats.RPCCount(nfsproto.ProcLookup)
		})
		return count
	}
	noCache := Reno()
	noCache.Name = "reno-nonamecache"
	noCache.NameCache = false
	with := lookups(Reno())
	without := lookups(noCache)
	if without < 2*with {
		t.Fatalf("lookup RPCs: namecache=%d none=%d; want at least 2x reduction", with, without)
	}
}

func TestAttrCacheTimeout(t *testing.T) {
	r := newRig(t, 4)
	m := r.mount(Reno())
	r.run(t, func(p *sim.Proc) {
		writeFile(t, p, m, "f", []byte("hello"))
		m.Getattr(p, "f")
		base := m.Stats.RPCCount(nfsproto.ProcGetattr)
		// Within the 5s attribute timeout: no new getattr RPC.
		m.Getattr(p, "f")
		m.Getattr(p, "f")
		if got := m.Stats.RPCCount(nfsproto.ProcGetattr); got != base {
			t.Errorf("getattr RPCs within timeout: %d -> %d", base, got)
		}
		p.Sleep(6 * time.Second)
		m.Getattr(p, "f")
		if got := m.Stats.RPCCount(nfsproto.ProcGetattr); got <= base {
			t.Errorf("no getattr RPC after timeout expiry")
		}
	})
}

// TestRenoRereadsOwnWrites verifies the §5 mechanism behind Table 3's read
// counts: Reno cannot attribute its own mtime changes, so write-then-read
// re-fetches from the server; Ultrix trusts its own writes and reads from
// cache; noconsist skips it all.
func TestRenoRereadsOwnWrites(t *testing.T) {
	readsAfterWrite := func(opts Options) int {
		r := newRig(t, 5)
		m := r.mount(opts)
		var count int
		r.run(t, func(p *sim.Proc) {
			data := pattern(3 * 8192)
			writeFile(t, p, m, "f", data)
			got := readFile(t, p, m, "f")
			if !bytes.Equal(got, data) {
				t.Errorf("%s: corrupted roundtrip", opts.Name)
			}
			count = m.Stats.RPCCount(nfsproto.ProcRead)
		})
		return count
	}
	reno := readsAfterWrite(Reno())
	ultrix := readsAfterWrite(Ultrix())
	noc := readsAfterWrite(RenoNoConsist())
	if reno < 3 {
		t.Errorf("reno reads = %d, want >= 3 (re-read after own writes)", reno)
	}
	if ultrix != 0 {
		t.Errorf("ultrix reads = %d, want 0 (own writes keep cache valid)", ultrix)
	}
	if noc != 0 {
		t.Errorf("noconsist reads = %d, want 0", noc)
	}
}

// TestDirtyRegionCoalescing: sub-block writes coalesce into one write RPC
// under Reno's delayed policy, but Ultrix's eager write-back sends one RPC
// per dirtying write call.
func TestDirtyRegionCoalescing(t *testing.T) {
	writesFor := func(opts Options) int {
		r := newRig(t, 6)
		m := r.mount(opts)
		var count int
		r.run(t, func(p *sim.Proc) {
			f, err := m.Create(p, "f", 0644)
			if err != nil {
				t.Fatalf("create: %v", err)
			}
			for i := 0; i < 4; i++ {
				if _, err := f.Write(p, pattern(2048)); err != nil {
					t.Fatalf("write: %v", err)
				}
			}
			f.Close(p)
			count = m.Stats.RPCCount(nfsproto.ProcWrite)
		})
		return count
	}
	reno := writesFor(Reno())
	ultrix := writesFor(Ultrix())
	if reno != 1 {
		t.Errorf("reno writes = %d, want 1 (coalesced 8K block)", reno)
	}
	if ultrix != 4 {
		t.Errorf("ultrix writes = %d, want 4 (eager write-back per call)", ultrix)
	}
}

func TestNoConsistSkipsPushOnClose(t *testing.T) {
	r := newRig(t, 7)
	m := r.mount(RenoNoConsist())
	r.run(t, func(p *sim.Proc) {
		writeFile(t, p, m, "f", pattern(2*8192))
		if got := m.Stats.RPCCount(nfsproto.ProcWrite); got != 0 {
			t.Errorf("write RPCs at close = %d, want 0 (no push on close)", got)
		}
		// The data is still readable (from cache).
		got := readFile(t, p, m, "f")
		if !bytes.Equal(got, pattern(2*8192)) {
			t.Error("cached readback corrupted")
		}
		// Explicit sync pushes the dirty blocks.
		m.SyncAll(p)
		if got := m.Stats.RPCCount(nfsproto.ProcWrite); got != 2 {
			t.Errorf("write RPCs after sync = %d, want 2", got)
		}
	})
}

func TestWritePolicies(t *testing.T) {
	writeRPCsDuring := func(policy WritePolicy) (during, after int) {
		r := newRig(t, 8)
		opts := Reno()
		opts.Policy = policy
		m := r.mount(opts)
		r.run(t, func(p *sim.Proc) {
			f, _ := m.Create(p, "f", 0644)
			for i := 0; i < 3; i++ {
				f.Write(p, pattern(8192))
			}
			during = m.Stats.RPCCount(nfsproto.ProcWrite)
			f.Close(p)
			after = m.Stats.RPCCount(nfsproto.ProcWrite)
		})
		return during, after
	}
	d, a := writeRPCsDuring(WriteThrough)
	if d != 3 || a != 3 {
		t.Errorf("write-through: during=%d after=%d, want 3,3", d, a)
	}
	d, a = writeRPCsDuring(WriteDelayed)
	if d != 0 || a != 3 {
		t.Errorf("delayed: during=%d after=%d, want 0,3", d, a)
	}
	d, a = writeRPCsDuring(WriteAsync)
	if d < 1 || a != 3 {
		t.Errorf("async: during=%d after=%d, want >=1,3 (full blocks go to the biods eagerly)", d, a)
	}
}

func TestUltrixPrereadsPartialWrites(t *testing.T) {
	r := newRig(t, 9)
	m := r.mount(Ultrix())
	r.run(t, func(p *sim.Proc) {
		writeFile(t, p, m, "f", pattern(8192))
		p.Sleep(6 * time.Second) // let attrs age out
		// Overwrite 100 bytes mid-block; the block is no longer cached
		// after... force a cold cache by invalidating.
		m.invalidate(m.vns[vnKey{m.root.fileid, m.root.gen}])
		f, err := m.Open(p, "f")
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		m.bufc.InvalidateVnode(f.vn.fileid, f.vn.gen)
		f.Seek(1000)
		if _, err := f.Write(p, []byte("patch")); err != nil {
			t.Fatalf("write: %v", err)
		}
		f.Close(p)
		if m.Stats.Prereads == 0 {
			t.Error("no preread for a partial write without dirty-region tracking")
		}
		got := readFile(t, p, m, "f")
		want := pattern(8192)
		copy(want[1000:], "patch")
		if !bytes.Equal(got, want) {
			t.Error("partial overwrite corrupted the block")
		}
	})
}

// TestUltrixPrereadWaitsForQueuedWrite: without dirty-region tracking a
// partial write to an uncached block prereads it. When the block's last
// write is still queued on a biod, the preread must wait for it, or it
// fetches the server's older bytes and the cache serves them from then on.
func TestUltrixPrereadWaitsForQueuedWrite(t *testing.T) {
	r := newRig(t, 18)
	m := r.mount(Ultrix())
	r.run(t, func(p *sim.Proc) {
		writeFile(t, p, m, "f", pattern(8192))
		f, err := m.Open(p, "f")
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		patch := func(off uint32, s string) {
			m.bufc.InvalidateVnode(f.vn.fileid, f.vn.gen) // block 0 leaves the cache
			f.Seek(off)
			if _, err := f.Write(p, []byte(s)); err != nil {
				t.Fatalf("write: %v", err)
			}
		}
		patch(100, "first") // prereads, then queues its write on a biod
		if f.vn.inFlight[0] == 0 {
			t.Fatal("the first patch's write is not queued: the second preread races nothing")
		}
		patch(3000, "second")
		if m.Stats.Prereads != 2 {
			t.Fatalf("prereads = %d, want 2", m.Stats.Prereads)
		}
		want := pattern(8192)
		copy(want[100:], "first")
		copy(want[3000:], "second")
		got := make([]byte, 8192)
		f.Seek(0)
		if n, err := f.Read(p, got); err != nil || n != len(want) {
			t.Fatalf("read: %d, %v", n, err)
		}
		if !bytes.Equal(got, want) {
			t.Error("the cache serves bytes the preread fetched before the block's queued write landed")
		}
		f.Close(p)
	})
}

func TestRenoPartialWriteNoPreread(t *testing.T) {
	r := newRig(t, 10)
	m := r.mount(Reno())
	r.run(t, func(p *sim.Proc) {
		writeFile(t, p, m, "f", pattern(8192))
		f, _ := m.Open(p, "f")
		m.bufc.InvalidateVnode(f.vn.fileid, f.vn.gen)
		readsBefore := m.Stats.RPCCount(nfsproto.ProcRead)
		f.Seek(1000)
		f.Write(p, []byte("patch"))
		if m.Stats.RPCCount(nfsproto.ProcRead) != readsBefore {
			t.Error("Reno prereads despite dirty-region tracking")
		}
		if m.Stats.Prereads != 0 {
			t.Errorf("prereads = %d", m.Stats.Prereads)
		}
		f.Close(p)
		// The partial flush plus server state must still yield the right
		// bytes.
		got := readFile(t, p, m, "f")
		want := pattern(8192)
		copy(want[1000:], "patch")
		if !bytes.Equal(got, want) {
			t.Error("dirty-region flush corrupted the block")
		}
	})
}

func TestReadAheadPrefetches(t *testing.T) {
	r := newRig(t, 11)
	opts := Reno()
	opts.ReadAhead = 2
	m := r.mount(opts)
	r.run(t, func(p *sim.Proc) {
		data := pattern(6 * 8192)
		writeFile(t, p, m, "big", data)
		f, _ := m.Open(p, "big")
		buf := make([]byte, 8192)
		f.Read(p, buf) // first block; read-ahead for 2 more kicks off
		p.Sleep(2 * time.Second)
		hitsBefore := m.Stats.CacheReadHits
		f.Read(p, buf) // second block should be prefetched
		if m.Stats.CacheReadHits <= hitsBefore {
			t.Error("sequential read missed despite read-ahead")
		}
		f.Close(p)
	})
}

func TestExternalModificationDetected(t *testing.T) {
	r := newRig(t, 12)
	m1 := r.mount(Reno())
	m2 := r.mount(Reno())
	r.run(t, func(p *sim.Proc) {
		writeFile(t, p, m1, "shared", []byte("version-1"))
		if got := readFile(t, p, m2, "shared"); string(got) != "version-1" {
			t.Fatalf("m2 read: %q", got)
		}
		// m2 rewrites the file (push on close per close/open consistency).
		writeFile(t, p, m2, "shared", []byte("version-2"))
		// After m1's attribute cache expires it must see the new data.
		p.Sleep(6 * time.Second)
		if got := readFile(t, p, m1, "shared"); string(got) != "version-2" {
			t.Errorf("m1 read stale data: %q", got)
		}
	})
}

func TestReadDirCachedUntilChange(t *testing.T) {
	r := newRig(t, 13)
	m := r.mount(Reno())
	r.run(t, func(p *sim.Proc) {
		m.Mkdir(p, "d", 0755)
		writeFile(t, p, m, "d/a", []byte("x"))
		m.ReadDir(p, "d")
		base := m.Stats.RPCCount(nfsproto.ProcReaddir)
		m.ReadDir(p, "d")
		if got := m.Stats.RPCCount(nfsproto.ProcReaddir); got != base {
			t.Errorf("cached readdir issued RPCs: %d -> %d", base, got)
		}
		// Changing the directory invalidates the listing.
		writeFile(t, p, m, "d/b", []byte("y"))
		p.Sleep(6 * time.Second)
		ents, _ := m.ReadDir(p, "d")
		if got := m.Stats.RPCCount(nfsproto.ProcReaddir); got == base {
			t.Error("readdir served stale cache after directory change")
		}
		if len(ents) != 4 { // . .. a b
			t.Errorf("entries = %d", len(ents))
		}
	})
}

func TestUpdateDaemonFlushes(t *testing.T) {
	r := newRig(t, 14)
	m := r.mount(RenoNoConsist()) // no push on close: only update flushes
	r.run(t, func(p *sim.Proc) {
		writeFile(t, p, m, "f", pattern(8192))
		if m.Stats.RPCCount(nfsproto.ProcWrite) != 0 {
			t.Fatal("premature flush")
		}
		p.Sleep(40 * time.Second) // beyond the 30s update interval
		if m.Stats.RPCCount(nfsproto.ProcWrite) == 0 {
			t.Error("update daemon never pushed the delayed writes")
		}
	})
}

// The update sweep skips a vnode whose mayBeDirty hint is false, so no
// vnode may hold a dirty buffer while its hint is false. A checker looks
// every 100 ms, so after each 30-second sweep too, while one mount writes
// through a cache of eight buffers: a discontiguous rewrite whose flush the
// first sweep lands in (the write path's waiting push), full and partial writes
// kept open across sweeps, a file big enough to evict dirty victims, a
// remove of a dirty file, a dirty file another mount rewrites, which the
// next open purges, and a write to a block the sweep has already pushed
// while it pushes the file's others. Once everything is closed and two
// sweeps have run, every hint is clear again.
func TestSweepHintCoversDirtyBuffers(t *testing.T) {
	r := newRig(t, 17)
	opts := Reno()
	opts.CacheBufs = 8
	m := r.mount(opts)
	other := r.mount(Reno())
	done := false
	r.env.Spawn("checker", func(p *sim.Proc) {
		for !done {
			for _, vn := range m.byID {
				if !vn.mayBeDirty && len(m.bufc.DirtyBufs(vn.fileid, vn.gen)) > 0 {
					t.Errorf("at %v vnode %d has a dirty buffer and a clear hint", p.Now(), vn.fileid)
				}
			}
			p.Sleep(100 * time.Millisecond)
		}
	})
	create := func(p *sim.Proc, name string) *File {
		f, err := m.Create(p, name, 0644)
		if err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
		return f
	}
	write := func(p *sim.Proc, f *File, off uint32, n int) {
		f.Seek(off)
		if _, err := f.Write(p, pattern(n)); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	r.run(t, func(p *sim.Proc) {
		retry := create(p, "retry")
		write(p, retry, 0, 100)
		p.Sleep(30*time.Second - 2*time.Millisecond - p.Now())
		write(p, retry, 5000, 200) // pushes [0,100) first, across the sweep
		if p.Now() <= 30*time.Second {
			t.Fatalf("the discontiguous rewrite returned at %v, before the first sweep", p.Now())
		}

		full, part := create(p, "full"), create(p, "part")
		write(p, full, 0, 3*8192)
		write(p, part, 100, 1000)
		write(p, part, 8192+4000, 50)
		doomed := create(p, "doomed")
		write(p, doomed, 0, 9000)
		doomed.Close(p)
		write(p, create(p, "doomed2"), 0, 9000) // left open and dirty
		if err := m.Remove(p, "doomed2"); err != nil {
			t.Fatalf("remove: %v", err)
		}
		shared := create(p, "shared")
		write(p, shared, 0, 300)
		writeFile(t, p, other, "shared", []byte("rewritten elsewhere"))
		p.Sleep(6 * time.Second) // past the attribute cache
		purges := m.Stats.Invalidates
		readFile(t, p, m, "shared") // pushes its own dirty bytes, then purges
		if m.Stats.Invalidates == purges {
			t.Error("the other mount's rewrite purged nothing")
		}
		big := create(p, "big")
		write(p, big, 0, 12*8192) // more blocks than the cache holds
		write(p, part, 200, 10)
		write(p, full, 0, 3*8192) // three dirty blocks for the next sweep
		r.env.Spawn("racer", func(p *sim.Proc) {
			// Once the sweep has pushed block 0 and is still pushing the
			// others, dirty block 0 again: the sweep must not clear the hint.
			for {
				b0 := m.bufc.Peek(vfs.BufKey{Vnode: full.vn.fileid, Gen: full.vn.gen})
				if b0 != nil && !b0.Dirty && len(m.bufc.DirtyBufs(full.vn.fileid, full.vn.gen)) > 0 {
					break
				}
				p.Sleep(time.Millisecond)
			}
			write(p, full, 0, 10)
		})
		p.Sleep(31 * time.Second) // one sweep with every file open
		write(p, full, 8192+10, 20)

		for _, f := range []*File{retry, full, part, shared, big} {
			f.Close(p)
		}
		p.Sleep(61 * time.Second)
		done = true
		for _, vn := range m.byID {
			if vn.mayBeDirty {
				t.Errorf("vnode %d still hinted dirty after two sweeps of a clean cache", vn.fileid)
			}
		}
	})
}

// TestVnodeTableStaysOrdered checks that byID holds exactly the vnode table's
// values in (fileid, gen) order, which the update daemon's sweep relies on.
// memfs never reuses an inode number, so after a create, remove, create
// workload the test also interns the handles a server that recycles inodes
// would return: old fileids with a newer gen, arriving out of order.
func TestVnodeTableStaysOrdered(t *testing.T) {
	r := newRig(t, 16)
	m := r.mount(Reno())
	r.run(t, func(p *sim.Proc) {
		for _, name := range []string{"a", "b", "c"} {
			writeFile(t, p, m, name, pattern(100))
		}
		if err := m.Remove(p, "a"); err != nil {
			t.Fatalf("remove: %v", err)
		}
		writeFile(t, p, m, "a", pattern(100))
	})
	byName := func(name string) *vnode {
		vid, vgen, _, _ := m.namec.Lookup(m.root.fileid, m.root.gen, name)
		return m.vns[vnKey{vid, vgen}]
	}
	fsid, _, _ := m.root.fh.Parts()
	for _, old := range []*vnode{byName("c"), byName("b"), byName("c")} {
		m.getVnode(nfsproto.MakeFH(fsid, old.fileid, old.gen+2))
		m.getVnode(nfsproto.MakeFH(fsid, old.fileid, old.gen+1))
	}

	keys := make([]vnKey, 0, len(m.vns))
	for k := range m.vns {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b vnKey) int {
		if a.fileid != b.fileid {
			return cmp.Compare(a.fileid, b.fileid)
		}
		return cmp.Compare(a.gen, b.gen)
	})
	if len(keys) != 9 { // root, b, c, both a's, two newer gens each of b and c
		t.Fatalf("vnode table holds %d entries, want 9", len(keys))
	}
	if len(m.byID) != len(keys) {
		t.Fatalf("byID holds %d vnodes, table %d", len(m.byID), len(keys))
	}
	for i, k := range keys {
		if m.byID[i] != m.vns[k] {
			t.Errorf("byID[%d] = (%d,%d), want (%d,%d)", i, m.byID[i].fileid, m.byID[i].gen, k.fileid, k.gen)
		}
	}
}

func TestSymlinkPathOps(t *testing.T) {
	r := newRig(t, 15)
	m := r.mount(Reno())
	r.run(t, func(p *sim.Proc) {
		if err := m.Symlink(p, "ln", "/target"); err != nil {
			t.Fatalf("symlink: %v", err)
		}
		got, err := m.Readlink(p, "ln")
		if err != nil || got != "/target" {
			t.Fatalf("readlink = %q, %v", got, err)
		}
	})
}

func TestStatfsViaMount(t *testing.T) {
	r := newRig(t, 16)
	m := r.mount(Reno())
	r.run(t, func(p *sim.Proc) {
		res, err := m.Statfs(p)
		if err != nil || res.BSize != 8192 {
			t.Fatalf("statfs: %+v %v", res, err)
		}
	})
}

func TestSparseWriteReadBack(t *testing.T) {
	r := newRig(t, 17)
	m := r.mount(Reno())
	r.run(t, func(p *sim.Proc) {
		f, _ := m.Create(p, "sparse", 0644)
		f.Seek(3 * 8192)
		f.Write(p, []byte("tail"))
		f.Close(p)
		got := readFile(t, p, m, "sparse")
		if len(got) != 3*8192+4 {
			t.Fatalf("size = %d", len(got))
		}
		for i := 0; i < 3*8192; i++ {
			if got[i] != 0 {
				t.Fatal("hole not zero")
			}
		}
		if string(got[3*8192:]) != "tail" {
			t.Fatalf("tail = %q", got[3*8192:])
		}
	})
}

// TestSoftMountSurfacesErrors: a bounded-retry ("soft") transport makes
// client operations fail cleanly instead of hanging when the server is
// unreachable.
func TestSoftMountSurfacesErrors(t *testing.T) {
	env := sim.New(31)
	defer env.Close()
	nt := netsim.New(env)
	clientNode := nt.AddNode(netsim.NodeConfig{Name: "client"})
	serverNode := nt.AddNode(netsim.NodeConfig{Name: "server"})
	cfg := netsim.Ethernet("eth")
	cfg.LossProb = 1.0 // server unreachable
	nt.Connect(clientNode, serverNode, cfg)
	nt.ComputeRoutes()
	tcfg := transport.FixedUDP()
	tcfg.Retrans = 2 // soft mount
	tr := transport.NewUDP(clientNode, 8801, serverNode.ID, server.NFSPort, tcfg)
	m := NewMount(clientNode, tr, nfsproto.MakeFH(1, 2, 1), Reno())
	var openErr error
	done := false
	env.Spawn("app", func(p *sim.Proc) {
		_, openErr = m.Open(p, "anything")
		done = true
	})
	env.Run(5 * time.Minute)
	if !done {
		t.Fatal("soft mount hung")
	}
	if openErr == nil {
		t.Fatal("open against a dead server succeeded")
	}
}
