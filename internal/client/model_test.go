package client

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"renonfs/internal/mbuf"
	"renonfs/internal/memfs"
	"renonfs/internal/netsim"
	"renonfs/internal/server"
	"renonfs/internal/sim"
	"renonfs/internal/transport"
)

// TestRandomizedIOAgainstModel drives random file operations through the
// client under each personality (including leases and a lossy network) and
// checks every read and the server's final state against a shadow model.
// This is the system-level invariant everything else exists to preserve:
// after a sync, the server holds exactly the bytes the applications wrote.
// The sweep over cache sizes and biod counts makes the small caches evict
// dirty blocks to the biods while later reads of those blocks miss; the
// personality's own cache and biod count run as "<name>/seed<N>".
func TestRandomizedIOAgainstModel(t *testing.T) {
	personalities := []Options{Reno(), Ultrix(), RenoNoConsist(), leaseClient()}
	seeds := []int64{100, 2025, 777}
	for pi, def := range personalities {
		for _, bufs := range []int{4, 6, 12, 256} {
			for _, biods := range []int{0, 1, 4} {
				for si, seed := range seeds {
					opts, seed := def, seed
					opts.CacheBufs, opts.Biods = bufs, biods
					name := fmt.Sprintf("%s/%dbufs-%dbiods/seed%d", opts.Name, bufs, biods, seed)
					if bufs == def.CacheBufs && biods == def.Biods {
						name = fmt.Sprintf("%s/seed%d", opts.Name, seed)
					}
					t.Run(name, func(t *testing.T) {
						runModel(t, opts, seed+int64(pi), int64(7+pi*31+si*7))
					})
				}
			}
		}
	}
}

// TestLeaseCloseToOpenModel drives two lease-mounted clients through
// alternating write-close / open-read rounds and pins close-to-open
// consistency: whatever one client wrote before close is exactly what the
// other reads after open, even though write leases suppress push-on-close
// — the eviction handshake must make the flush happen before the reader's
// open completes. Occasional sleeps past the lease term exercise the
// expiry backstop between rounds.
func TestLeaseCloseToOpenModel(t *testing.T) {
	env := sim.New(42)
	defer env.Close()
	nt := netsim.New(env)
	nodeA := nt.AddNode(netsim.NodeConfig{Name: "a"})
	nodeB := nt.AddNode(netsim.NodeConfig{Name: "b"})
	serverNode := nt.AddNode(netsim.NodeConfig{Name: "server"})
	lk := netsim.Ethernet("eth")
	nt.Connect(nodeA, serverNode, lk)
	nt.Connect(nodeB, serverNode, lk)
	nt.ComputeRoutes()
	fs := memfs.New(1, nil, nil)
	srvOpts := server.Reno()
	srvOpts.Leases = true
	srvOpts.LeaseDuration = 10 * time.Second
	srv := server.New(fs, srvOpts)
	srv.AttachNode(serverNode)
	srv.ServeUDP(server.NFSPort)

	opts := leaseClient()
	opts.LeaseDuration = 10 * time.Second
	mounts := [2]*Mount{}
	for i, node := range []*netsim.Node{nodeA, nodeB} {
		o := opts
		o.Name = fmt.Sprintf("lease%d", i)
		tr := transport.NewUDP(node, node.EphemeralPort(), serverNode.ID, server.NFSPort, transport.DynamicUDP())
		mounts[i] = NewMount(node, tr, srv.RootFH(), o)
	}

	ok := false
	env.Spawn("c2o", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(7))
		for round := 0; round < 40; round++ {
			writer, reader := mounts[round%2], mounts[(round+1)%2]
			want := make([]byte, 1+rng.Intn(20000))
			rng.Read(want)
			f, err := writer.Create(p, "shared", 0644)
			if err != nil {
				t.Errorf("round %d create: %v", round, err)
				return
			}
			if _, err := f.Write(p, want); err != nil {
				t.Errorf("round %d write: %v", round, err)
				return
			}
			if err := f.Close(p); err != nil {
				t.Errorf("round %d close: %v", round, err)
				return
			}
			if rng.Intn(5) == 0 {
				p.Sleep(15 * time.Second) // past the lease term: expiry path
			}
			g, err := reader.Open(p, "shared")
			if err != nil {
				t.Errorf("round %d open: %v", round, err)
				return
			}
			got := make([]byte, 0, len(want))
			buf := make([]byte, 8192)
			for {
				n, err := g.Read(p, buf)
				if err != nil {
					t.Errorf("round %d read: %v", round, err)
					return
				}
				if n == 0 {
					break
				}
				got = append(got, buf[:n]...)
			}
			g.Close(p)
			if !bytes.Equal(got, want) {
				t.Errorf("round %d: reader saw %d bytes diverging from the %d written before close",
					round, len(got), len(want))
				return
			}
		}
		ok = true
	})
	env.Run(4 * time.Hour)
	if !ok {
		t.Fatal("close-to-open run did not finish")
	}
	if mounts[0].Stats.LeasesGranted == 0 || mounts[1].Stats.LeasesGranted == 0 {
		t.Error("a mount ran leaseless: the round-trip proved nothing about leases")
	}
}

// runModel drives one randomized-op session and verifies the server's
// final state against the shadow.
func runModel(t *testing.T, opts Options, envSeed, opSeed int64) {
	{
		{
			env := sim.New(envSeed)
			defer env.Close()
			nt := netsim.New(env)
			clientNode := nt.AddNode(netsim.NodeConfig{Name: "client"})
			serverNode := nt.AddNode(netsim.NodeConfig{Name: "server"})
			lk := netsim.Ethernet("eth")
			lk.LossProb = 0.01 // force occasional retransmission
			nt.Connect(clientNode, serverNode, lk)
			nt.ComputeRoutes()
			fs := memfs.New(1, nil, nil)
			srvOpts := server.Reno()
			srvOpts.Leases = true
			srvOpts.ReaddirLook = true
			srv := server.New(fs, srvOpts)
			srv.AttachNode(serverNode)
			srv.ServeUDP(server.NFSPort)

			tr := transport.NewUDP(clientNode, 2001, serverNode.ID, server.NFSPort, transport.DynamicUDP())
			m := NewMount(clientNode, tr, srv.RootFH(), opts)

			const nfiles = 4
			shadow := make(map[string][]byte)
			ok := false
			env.Spawn("chaos", func(p *sim.Proc) {
				rng := rand.New(rand.NewSource(opSeed))
				open := map[string]*File{}
				for step := 0; step < 300; step++ {
					name := fmt.Sprintf("f%d", rng.Intn(nfiles))
					switch rng.Intn(6) {
					case 0: // create (truncate)
						if f := open[name]; f != nil {
							f.Close(p)
						}
						f, err := m.Create(p, name, 0644)
						if err != nil {
							t.Errorf("create %s: %v", name, err)
							return
						}
						open[name] = f
						shadow[name] = nil
					case 1, 2: // write at a random offset
						f := open[name]
						if f == nil {
							var err error
							if _, exists := shadow[name]; !exists {
								continue
							}
							f, err = m.Open(p, name)
							if err != nil {
								t.Errorf("open %s: %v", name, err)
								return
							}
							open[name] = f
						}
						off := uint32(rng.Intn(40000))
						n := 1 + rng.Intn(9000)
						data := make([]byte, n)
						rng.Read(data)
						f.Seek(off)
						if _, err := f.Write(p, data); err != nil {
							t.Errorf("write %s: %v", name, err)
							return
						}
						sh := shadow[name]
						if int(off)+n > len(sh) {
							grown := make([]byte, int(off)+n)
							copy(grown, sh)
							sh = grown
						}
						copy(sh[off:], data)
						shadow[name] = sh
					case 3: // read back a random range through the cache
						f := open[name]
						if f == nil {
							continue
						}
						sh := shadow[name]
						if len(sh) == 0 {
							continue
						}
						off := rng.Intn(len(sh))
						f.Seek(uint32(off))
						buf := make([]byte, 1+rng.Intn(8000))
						n, err := f.Read(p, buf)
						if err != nil {
							t.Errorf("read %s: %v", name, err)
							return
						}
						want := sh[off:]
						if n > len(want) {
							t.Errorf("read %s returned %d bytes past shadow EOF", name, n)
							return
						}
						if !bytes.Equal(buf[:n], want[:n]) {
							t.Errorf("step %d: read %s@%d mismatch", step, name, off)
							return
						}
					case 4: // close
						if f := open[name]; f != nil {
							if err := f.Close(p); err != nil {
								t.Errorf("close %s: %v", name, err)
								return
							}
							delete(open, name)
						}
					case 5: // let timers fire (attr timeouts, leases, update)
						p.Sleep(time.Duration(rng.Intn(4000)) * time.Millisecond)
					}
				}
				for _, f := range open {
					f.Close(p)
				}
				m.SyncAll(p)
				ok = true
			})
			env.Run(4 * time.Hour)
			if !ok {
				t.Fatal("chaos run did not finish")
			}
			// Verify the server's durable state against the shadow.
			for name, want := range shadow {
				ino, err := fs.Lookup(fs.Root(), name)
				if err != nil {
					if len(want) == 0 && err == memfs.ErrNoEnt {
						continue
					}
					t.Fatalf("server lookup %s: %v", name, err)
				}
				if ino.Size != uint32(len(want)) {
					t.Fatalf("%s: server size %d, shadow %d", name, ino.Size, len(want))
				}
				var data mbuf.Chain
				fs.ReadLoan(nil, ino, 0, ino.Size, true, &data, nil)
				got := data.Bytes()
				data.Free()
				if !bytes.Equal(got, want) {
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s: server diverges from shadow at byte %d (size %d)", name, i, len(want))
						}
					}
				}
			}
		}
	}
}
