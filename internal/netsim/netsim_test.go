package netsim

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"renonfs/internal/mbuf"
	"renonfs/internal/sim"
)

const (
	ms = time.Millisecond
	us = time.Microsecond
)

func quietEthernet(name string) LinkConfig {
	cfg := Ethernet(name)
	cfg.LossProb = 0
	cfg.BgUtil = 0
	return cfg
}

// pair builds a clean two-node Ethernet for deterministic tests.
func pair(t *testing.T, seed int64) (*sim.Env, *Node, *Node) {
	t.Helper()
	env := sim.New(seed)
	t.Cleanup(env.Close)
	nt := New(env)
	a := nt.AddNode(NodeConfig{Name: "a"})
	b := nt.AddNode(NodeConfig{Name: "b"})
	nt.Connect(a, b, quietEthernet("eth"))
	nt.ComputeRoutes()
	return env, a, b
}

func TestUDPRoundTrip(t *testing.T) {
	env, a, b := pair(t, 1)
	sa := a.UDPSocket(1001)
	sb := b.UDPSocket(2049)
	msg := []byte("lookup request")
	var echoed []byte
	env.Spawn("server", func(p *sim.Proc) {
		dg, ok := sb.Recv(p)
		if !ok {
			return
		}
		sb.Send(p, dg.Src, dg.SrcPort, mbuf.FromBytes(append(dg.Payload.Bytes(), '!')))
	})
	env.Spawn("client", func(p *sim.Proc) {
		sa.Send(p, b.ID, 2049, mbuf.FromBytes(msg))
		dg, ok := sa.Recv(p)
		if ok {
			echoed = dg.Payload.Bytes()
		}
	})
	env.RunAll()
	if string(echoed) != "lookup request!" {
		t.Fatalf("echoed = %q", echoed)
	}
	if a.Stats.DgramsOut != 1 || a.Stats.DgramsIn != 1 {
		t.Fatalf("client stats: %+v", a.Stats)
	}
}

func TestFragmentationCounts(t *testing.T) {
	env, a, b := pair(t, 1)
	sa := a.UDPSocket(1001)
	sb := b.UDPSocket(2049)
	payload := bytes.Repeat([]byte{7}, 8192)
	var got []byte
	env.Spawn("rx", func(p *sim.Proc) {
		if dg, ok := sb.Recv(p); ok {
			got = dg.Payload.Bytes()
		}
	})
	env.Spawn("tx", func(p *sim.Proc) {
		sa.Send(p, b.ID, 2049, mbuf.FromBytes(payload))
	})
	env.RunAll()
	if !bytes.Equal(got, payload) {
		t.Fatal("8K payload corrupted")
	}
	// 8192 bytes at 1500-byte MTU: 6 fragments, like the paper says.
	if a.Stats.PktsOut != 6 {
		t.Fatalf("PktsOut = %d, want 6", a.Stats.PktsOut)
	}
}

func TestLostFragmentLosesDatagram(t *testing.T) {
	env := sim.New(3)
	defer env.Close()
	nt := New(env)
	a := nt.AddNode(NodeConfig{Name: "a"})
	b := nt.AddNode(NodeConfig{Name: "b"})
	cfg := quietEthernet("lossy")
	cfg.LossProb = 0.3 // with 6 fragments, most datagrams lose at least one
	nt.Connect(a, b, cfg)
	nt.ComputeRoutes()
	sa := a.UDPSocket(1001)
	sb := b.UDPSocket(2049)
	delivered := 0
	env.Spawn("rx", func(p *sim.Proc) {
		for {
			if _, ok := sb.Recv(p); !ok {
				return
			}
			delivered++
		}
	})
	const sent = 50
	env.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < sent; i++ {
			sa.Send(p, b.ID, 2049, mbuf.FromBytes(bytes.Repeat([]byte{1}, 8192)))
			p.Sleep(50 * ms)
		}
	})
	env.Run(5 * time.Second)
	// P(all 6 fragments survive) = 0.7^6 ~ 12%; allow slack but require
	// substantial datagram-level loss amplification.
	if delivered >= sent/2 {
		t.Fatalf("delivered %d/%d; fragmentation should amplify loss", delivered, sent)
	}
	if delivered == 0 {
		t.Fatal("nothing delivered at all")
	}
}

// TestDuplicatedDatagramDeliveredTwiceIntact: a fault that sends a frame
// twice marks the datagram Duplicated before either copy arrives, so both
// deliveries see the mark (a receiver that recycles request chains keeps
// this one), and both carry the whole payload.
func TestDuplicatedDatagramDeliveredTwiceIntact(t *testing.T) {
	env, a, b := pair(t, 1)
	a.route(b.ID).SetFault(func(sim.Time, *rand.Rand) FaultVerdict {
		return FaultVerdict{Duplicate: true}
	})
	sa := a.UDPSocket(1001)
	sb := b.UDPSocket(2049)
	msg := []byte("write request")
	var got []*Datagram
	env.Spawn("rx", func(p *sim.Proc) {
		for {
			dg, ok := sb.Recv(p)
			if !ok {
				return
			}
			if !dg.Duplicated {
				t.Errorf("delivery %d not marked Duplicated", len(got)+1)
			}
			if !bytes.Equal(dg.Payload.Bytes(), msg) {
				t.Errorf("delivery %d payload %q, want %q", len(got)+1, dg.Payload.Bytes(), msg)
			}
			got = append(got, dg)
		}
	})
	env.Spawn("tx", func(p *sim.Proc) { sa.Send(p, b.ID, 2049, mbuf.FromBytes(msg)) })
	env.Run(time.Second)
	if len(got) != 2 {
		t.Fatalf("%d deliveries, want 2", len(got))
	}
}

// TestDuplicateHoldsRecycledDatagram: a duplicated frame's copy holds a
// reference of its own, so a receiver that releases each delivery at once
// does not recycle the datagram under the copy still in flight. The copy
// arrives first (the original waits out an extra delay), and the sender's
// next datagram, sent between the two arrivals, would reuse the struct.
func TestDuplicateHoldsRecycledDatagram(t *testing.T) {
	env, a, b := pair(t, 1)
	a.route(b.ID).SetFault(func(sim.Time, *rand.Rand) FaultVerdict {
		return FaultVerdict{Duplicate: true, ExtraDelay: 5 * ms}
	})
	sa := a.UDPSocket(1001)
	got := map[string]int{}
	b.Bind(ProtoUDP, 2049).Serve(func(dg *Datagram) {
		got[string(dg.Payload.Bytes())]++
		dg.Release()
	})
	env.Spawn("tx", func(p *sim.Proc) {
		sa.Send(p, b.ID, 2049, mbuf.FromBytes([]byte("one")))
		p.Sleep(3 * ms) // past the copy's arrival, short of the original's
		sa.Send(p, b.ID, 2049, mbuf.FromBytes([]byte("two")))
	})
	env.Run(time.Second)
	if got["one"] != 2 || got["two"] != 2 || len(got) != 2 {
		t.Errorf("deliveries %v, want each datagram twice", got)
	}
}

// TestRecycledDatagramCarriesNoFault: a datagram a fault corrupted is
// dropped at the receiver's checksum and recycled; the next datagram the
// sender makes from it arrives clean.
func TestRecycledDatagramCarriesNoFault(t *testing.T) {
	env, a, b := pair(t, 1)
	frames := 0
	a.route(b.ID).SetFault(func(sim.Time, *rand.Rand) FaultVerdict {
		frames++
		return FaultVerdict{Corrupt: frames == 1}
	})
	sa := a.UDPSocket(1001)
	var got []string
	b.Bind(ProtoUDP, 2049).Serve(func(dg *Datagram) {
		got = append(got, string(dg.Payload.Bytes()))
		dg.Release()
	})
	env.Spawn("tx", func(p *sim.Proc) {
		for _, m := range []string{"one", "two", "three"} {
			sa.Send(p, b.ID, 2049, mbuf.FromBytes([]byte(m)))
			p.Sleep(10 * ms)
		}
	})
	env.Run(time.Second)
	if b.Stats.ChecksumDrops != 1 || !slices.Equal(got, []string{"two", "three"}) {
		t.Errorf("%d checksum drops, delivered %q; want 1 and [two three]", b.Stats.ChecksumDrops, got)
	}
}

func TestRoutingAcrossTopologies(t *testing.T) {
	for _, topo := range []Topology{TopoLAN, TopoRing, TopoSlow} {
		env := sim.New(7)
		tb := Build(env, topo, NodeConfig{}, NodeConfig{})
		sc := tb.Client.UDPSocket(1001)
		ss := tb.Server.UDPSocket(2049)
		var got []byte
		env.Spawn("rx", func(p *sim.Proc) {
			if dg, ok := ss.Recv(p); ok {
				got = dg.Payload.Bytes()
			}
		})
		env.Spawn("tx", func(p *sim.Proc) {
			sc.Send(p, tb.Server.ID, 2049, mbuf.FromBytes([]byte("ping")))
		})
		env.Run(30 * time.Second)
		if string(got) != "ping" {
			t.Fatalf("%v: got %q", topo, got)
		}
		if topo != TopoLAN {
			fwd := 0
			for _, r := range tb.Routers {
				fwd += r.Stats.Forwarded
			}
			if fwd == 0 {
				t.Fatalf("%v: no router forwarded anything", topo)
			}
		}
		env.Close()
	}
}

func TestPathMTU(t *testing.T) {
	env := sim.New(1)
	defer env.Close()
	tb := Build(env, TopoSlow, NodeConfig{}, NodeConfig{})
	mtu := tb.Net.PathMTU(tb.Client.ID, tb.Server.ID)
	want := 1006 + etherIPHeader
	if mtu != want {
		t.Fatalf("PathMTU = %d, want %d (the serial line)", mtu, want)
	}
	env2 := sim.New(1)
	defer env2.Close()
	tb2 := Build(env2, TopoLAN, NodeConfig{}, NodeConfig{})
	if got := tb2.Net.PathMTU(tb2.Client.ID, tb2.Server.ID); got != 1500+etherIPHeader {
		t.Fatalf("LAN PathMTU = %d", got)
	}
}

func TestSerialLineSlowness(t *testing.T) {
	// A 1006-byte frame at 56 Kbit/s takes ~150 ms to serialize; verify the
	// end-to-end latency over TopoSlow reflects the slow hop.
	env := sim.New(1)
	defer env.Close()
	tb := Build(env, TopoSlow, NodeConfig{}, NodeConfig{})
	sc := tb.Client.UDPSocket(1001)
	ss := tb.Server.UDPSocket(2049)
	var arrival sim.Time
	env.Spawn("rx", func(p *sim.Proc) {
		if _, ok := ss.Recv(p); ok {
			arrival = p.Now()
		}
	})
	env.Spawn("tx", func(p *sim.Proc) {
		sc.Send(p, tb.Server.ID, 2049, mbuf.FromBytes(bytes.Repeat([]byte{1}, 900)))
	})
	env.Run(30 * time.Second)
	if arrival == 0 {
		t.Fatal("never arrived")
	}
	if arrival < 120*ms {
		t.Fatalf("arrival at %v; 56K serialization should dominate", arrival)
	}
}

func TestCPUChargingAndProfile(t *testing.T) {
	env, a, b := pair(t, 1)
	sa := a.UDPSocket(1001)
	_ = b.UDPSocket(2049)
	env.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			sa.Send(p, b.ID, 2049, mbuf.FromBytes(bytes.Repeat([]byte{1}, 8192)))
		}
	})
	env.RunAll()
	prof := a.Profile()
	if len(prof) == 0 {
		t.Fatal("no profile buckets")
	}
	buckets := map[string]sim.Time{}
	for _, pb := range prof {
		buckets[pb.Name] = pb.Time
	}
	for _, want := range []string{"nic_copy", "nic_drv", "checksum", "ip", "udp", "tx_intr"} {
		if buckets[want] == 0 {
			t.Errorf("bucket %q empty (profile: %v)", want, prof)
		}
	}
	// nic_copy should be the largest single bucket pre-tuning (§3).
	if prof[0].Name != "nic_copy" {
		t.Errorf("top bucket = %s, want nic_copy", prof[0].Name)
	}
	if a.CPU.BusyTime() == 0 {
		t.Fatal("CPU busy time not accounted")
	}
}

// Profile lists buckets largest first with ties broken by name, and a
// bucket charged only before ResetProfile is gone after it.
func TestProfileOrderAndReset(t *testing.T) {
	env, a, _ := pair(t, 1)
	charge := func(charges ...any) {
		env.Spawn("charger", func(p *sim.Proc) {
			for i := 0; i < len(charges); i += 2 {
				a.ChargeCPU(p, charges[i].(Bucket), charges[i+1].(sim.Time))
			}
		})
		env.RunAll()
	}
	names := func() (out []string) {
		for _, pb := range a.Profile() {
			out = append(out, fmt.Sprintf("%s=%v", pb.Name, pb.Time))
		}
		return out
	}

	charge(BucketUDP, 30*us, BucketNFS, 10*us, BucketIP, 20*us, BucketTCP, 50*us, BucketIP, 10*us, BucketExec, sim.Time(0))
	if got, want := names(), []string{"tcp=50µs", "ip=30µs", "udp=30µs", "nfs=10µs"}; !slices.Equal(got, want) {
		t.Errorf("profile %v, want %v", got, want)
	}
	a.ResetProfile()
	if got := a.Profile(); len(got) != 0 {
		t.Errorf("profile after reset %v, want empty", got)
	}
	charge(BucketNFS, 5*us, BucketLink, 7*us, BucketNFS, 1*us)
	if got, want := names(), []string{"link=7µs", "nfs=6µs"}; !slices.Equal(got, want) {
		t.Errorf("profile after reset %v, want %v", got, want)
	}
}

// Charging a bucket allocates nothing, across a ResetProfile too: the
// buckets are an array indexed by id. (A count, so a legitimate gate.)
func TestAllocBudgetChargeCPU(t *testing.T) {
	env, a, _ := pair(t, 1)
	buckets := []Bucket{BucketNICCopy, BucketNICDrv, BucketChecksum, BucketIP, BucketUDP, BucketTxIntr}
	env.Spawn("charger", func(p *sim.Proc) {
		for {
			for _, b := range buckets {
				a.ChargeCPU(p, b, 10*us)
			}
		}
	})
	env.Run(ms) // every bucket charged once
	horizon := env.Now()
	if got := testing.AllocsPerRun(100, func() {
		a.ResetProfile()
		horizon += ms
		env.Run(horizon) // 100 charges
	}); got > 0 {
		t.Errorf("%.2f allocations per 100 charges, budget 0", got)
	}
}

// An 8 KB UDP datagram sent across one link, six frames serialized,
// propagated and reassembled at the far host, allocates nothing: frames are
// values on the link's ring and pipe, the transmitter and arrivals are
// events bound once, reassembly state is recycled, and so is the Datagram
// the receiver releases (it hands the payload's mbufs back for the next
// send). (A count, so a legitimate gate.)
func TestAllocBudgetDatagramAcrossLink(t *testing.T) {
	env, a, b := pair(t, 1)
	sa, sb := a.UDPSocket(1001), b.UDPSocket(2049)
	payload := mbuf.FromBytes(bytes.Repeat([]byte{1}, 8192))
	received := 0
	env.Spawn("rx", func(p *sim.Proc) {
		for {
			if dg, ok := sb.Recv(p); ok {
				if dg.Len() == 8192 {
					received++
				}
				payload.AppendChain(dg.Payload)
				dg.Release()
			}
		}
	})
	env.Spawn("tx", func(p *sim.Proc) {
		for {
			sa.Send(p, b.ID, 2049, payload)
			p.Sleep(200*ms - p.Now()%(200*ms)) // one per 200 ms, long past its arrival
		}
	})
	env.Run(time.Second)
	before, horizon := received, env.Now()
	if got := testing.AllocsPerRun(50, func() {
		horizon += 200 * ms
		env.Run(horizon) // one datagram
	}); got > 0 {
		t.Errorf("%.2f allocations per 8 KB datagram, budget 0", got)
	}
	if received-before != 51 || b.reasm.Pending() != 0 {
		t.Fatalf("%d 8 KB datagrams received in 51 runs, %d under reassembly", received-before, b.reasm.Pending())
	}
}

func TestPageRemapReducesCopyCost(t *testing.T) {
	run := func(remap, noIntr bool) sim.Time {
		env := sim.New(5)
		defer env.Close()
		nt := New(env)
		a := nt.AddNode(NodeConfig{Name: "a", PageRemapTx: remap, NoTxInterrupts: noIntr})
		b := nt.AddNode(NodeConfig{Name: "b"})
		nt.Connect(a, b, quietEthernet("eth"))
		nt.ComputeRoutes()
		sa := a.UDPSocket(1001)
		_ = b.UDPSocket(2049)
		env.Spawn("tx", func(p *sim.Proc) {
			for i := 0; i < 20; i++ {
				sa.Send(p, b.ID, 2049, mbuf.FromBytes(bytes.Repeat([]byte{1}, 8192)))
			}
		})
		env.RunAll()
		return a.CPU.BusyTime()
	}
	base := run(false, false)
	tuned := run(true, true)
	if tuned >= base {
		t.Fatalf("tuned CPU %v >= baseline %v", tuned, base)
	}
	saving := float64(base-tuned) / float64(base)
	// §3 reports ~12% total CPU saving under a read mix; the pure-send path
	// here should save at least that much.
	if saving < 0.10 {
		t.Fatalf("saving = %.1f%%, want >= 10%%", saving*100)
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	env := sim.New(9)
	defer env.Close()
	nt := New(env)
	a := nt.AddNode(NodeConfig{Name: "a"})
	b := nt.AddNode(NodeConfig{Name: "b"})
	cfg := quietEthernet("eth")
	cfg.QueueLen = 2
	cfg.BitsPerSec = 56_000 // slow drain
	nt.Connect(a, b, cfg)
	nt.ComputeRoutes()
	sa := a.UDPSocket(1001)
	_ = b.UDPSocket(2049)
	env.Spawn("tx", func(p *sim.Proc) {
		// One 8K datagram = 6 fragments into a 2-deep queue.
		sa.Send(p, b.ID, 2049, mbuf.FromBytes(bytes.Repeat([]byte{1}, 8192)))
	})
	env.RunAll()
	if a.route(b.ID).Stat.QueueDrops == 0 {
		t.Fatal("expected drop-tail losses")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int, sim.Time) {
		env := sim.New(123)
		defer env.Close()
		tb := Build(env, TopoRing, NodeConfig{}, NodeConfig{})
		sc := tb.Client.UDPSocket(1001)
		ss := tb.Server.UDPSocket(2049)
		delivered := 0
		env.Spawn("rx", func(p *sim.Proc) {
			for {
				if _, ok := ss.Recv(p); !ok {
					return
				}
				delivered++
			}
		})
		env.Spawn("tx", func(p *sim.Proc) {
			for i := 0; i < 40; i++ {
				sc.Send(p, tb.Server.ID, 2049, mbuf.FromBytes(bytes.Repeat([]byte{1}, 4096)))
				p.Sleep(20 * ms)
			}
		})
		end := env.Run(5 * time.Second)
		return delivered, end
	}
	d1, e1 := run()
	d2, e2 := run()
	if d1 != d2 || e1 != e2 {
		t.Fatalf("nondeterministic: (%d,%v) vs (%d,%v)", d1, e1, d2, e2)
	}
	if d1 == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestBindCollisionPanics(t *testing.T) {
	env, a, _ := pair(t, 1)
	_ = env
	a.UDPSocket(2049)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate bind")
		}
	}()
	a.UDPSocket(2049)
}

func TestCostScalesWithMIPS(t *testing.T) {
	slow := DefaultModel(MIPSMicroVAXII)
	fast := DefaultModel(MIPSDS3100)
	if slow.Cost(1000) <= fast.Cost(1000) {
		t.Fatal("faster CPU should have lower cost")
	}
	ratio := float64(slow.Cost(1000)) / float64(fast.Cost(1000))
	want := MIPSDS3100 / MIPSMicroVAXII
	if ratio < want*0.99 || ratio > want*1.01 {
		t.Fatalf("ratio = %v, want %v", ratio, want)
	}
	got := slow.CostBytes(1.0, 8192)
	usPerByte := float64(time.Microsecond) / 0.9
	wantd := sim.Time(8192 * usPerByte)
	if got != wantd {
		t.Fatalf("CostBytes = %v, want %v", got, wantd)
	}
}

// Property: a Tx is SendDatagram in a process, event for event. A seeded
// run of datagrams of any size (fragmented or not, page-remapped or not)
// leaves one sender — a process, or callbacks through a Tx — at seeded
// times while another process contends for the same CPU. Arrival times at
// the receiver, both nodes' counters, the sender's profile, when each
// contending charge ends and the number of events run are the same, and
// the Tx sender never switches into a process.
func TestTxMatchesSendDatagram(t *testing.T) {
	type arrival struct {
		at  sim.Time
		id  uint32
		len int
	}
	type result struct {
		arrivals []arrival
		hogDone  []sim.Time
		aSt, bSt NodeStats
		profile  []ProfileBucket
		events   uint64
	}
	f := func(sizes []uint16, gaps, hogs []uint8, remap bool) bool {
		if len(gaps) == 0 {
			gaps = []uint8{0}
		}
		run := func(useTx bool) (r result) {
			env := sim.New(1)
			defer env.Close()
			nt := New(env)
			a := nt.AddNode(NodeConfig{Name: "a", PageRemapTx: remap})
			b := nt.AddNode(NodeConfig{Name: "b"})
			nt.Connect(a, b, quietEthernet("eth"))
			nt.ComputeRoutes()
			b.Bind(ProtoUDP, 2049).Serve(func(dg *Datagram) {
				r.arrivals = append(r.arrivals, arrival{env.Now(), dg.ID, dg.Len()})
			})
			at := func(i int) sim.Time { return sim.Time(gaps[i%len(gaps)]) * ms / 8 }
			dgram := func(i int) *Datagram {
				return &Datagram{Src: a.ID, Dst: b.ID, Proto: ProtoUDP, SrcPort: 1001, DstPort: 2049,
					HeaderBytes: udpHeader, Payload: mbuf.FromBytes(make([]byte, int(sizes[i])%9000))}
			}
			if len(hogs) > 0 {
				env.Spawn("hog", func(p *sim.Proc) {
					for _, h := range hogs {
						p.Sleep(sim.Time(h%16) * ms / 4)
						a.ChargeCPU(p, BucketExec, sim.Time(h/16)*ms/8)
						r.hogDone = append(r.hogDone, p.Now())
					}
				})
			}
			if useTx {
				var tx *Tx
				i, slept := 0, false
				var step func()
				step = func() {
					for tx.Run() && i < len(sizes) {
						if !slept {
							slept = true
							if d := at(i); d > 0 && !sleep(env, d, step) {
								return
							}
						}
						slept = false
						tx.Start(dgram(i))
						i++
					}
				}
				tx = a.NewTx(step)
				env.At(0, step)
			} else {
				env.Spawn("tx", func(p *sim.Proc) {
					for i := range sizes {
						if d := at(i); d > 0 {
							p.Sleep(d)
						}
						a.SendDatagram(p, dgram(i))
					}
				})
			}
			env.RunAll()
			r.aSt, r.bSt, r.profile = a.Stats, b.Stats, a.Profile()
			w := env.Counts()
			r.events = w.Events // the Tx's first event is the process's spawn
			if useTx && len(hogs) == 0 && w.Switches != 0 {
				t.Errorf("a Tx sender switched into a process %d times", w.Switches)
			}
			return r
		}
		want, got := run(false), run(true)
		return slices.Equal(want.arrivals, got.arrivals) && slices.Equal(want.hogDone, got.hogDone) &&
			want.aSt == got.aSt && want.bSt == got.bSt && slices.Equal(want.profile, got.profile) &&
			want.events == got.events
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
