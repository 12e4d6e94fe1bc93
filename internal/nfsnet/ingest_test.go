package nfsnet

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"renonfs/internal/check"
	"renonfs/internal/memfs"
	"renonfs/internal/nfsproto"
	"renonfs/internal/server"
)

// TestCloseMidStormDrainsAndNoLeaks closes the server in the middle of a
// UDP retransmit storm and holds the shutdown contract of the sharded
// ingest path under -race:
//
//   - drain ordering: readers stop before rings drain before workers exit,
//     so every datagram a reader read was either serviced inline (shallow
//     path or generic dispatch) or handed to an nfsd — after Close,
//     sum(rpc.reader.*.reads) == sum(rpc.nfsd.*.calls) +
//     sum(rpc.reader.*.fast) + sum(rpc.reader.*.inline). A ring-resident
//     request whose reply was already committed is never dropped on the
//     floor (the strict auditor would also flag a re-execution if a client
//     retried one and it ran twice).
//   - no goroutine leaks: every reader, worker, acceptor and connection
//     server has exited once Close returns.
func TestCloseMidStormDrainsAndNoLeaks(t *testing.T) {
	base := runtime.NumGoroutine()
	fs := memfs.New(1, nil, nil)
	opts := server.Reno()
	opts.NFSDs = 8
	opts.Readers = 4
	opts.DupCacheSize = 4096
	srv := server.New(fs, opts)
	epoch := time.Now()
	aud := check.New(func() time.Duration { return time.Since(epoch) })
	aud.SetExactlyOnce(true)
	srv.Tracer = aud.Tracer("server")
	s, err := Serve(srv, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	root := srv.RootFH()

	// Victims for the non-idempotent side of the storm.
	setup, err := DialUDP(s.UDPAddr())
	if err != nil {
		t.Fatal(err)
	}
	const stormers = 4
	const filesPerStormer = 16
	for w := 0; w < stormers; w++ {
		for i := 0; i < filesPerStormer; i++ {
			name := fmt.Sprintf("mid-%d-%d", w, i)
			if res, err := setup.Create(root, name, 0644); err != nil || res.Status != nfsproto.OK {
				t.Fatalf("create %s: %v %v", name, res, err)
			}
		}
	}
	setup.Close()

	// The storm: fire REMOVE retransmission bursts blind (no reply waits),
	// as fast as the sockets accept them, until told to stop. Write errors
	// are expected once the server sockets close.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < stormers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			conn, err := net.Dial("udp", s.UDPAddr())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("mid-%d-%d", id, i%filesPerStormer)
				wire := encodeRemove(uint32(1000*id+i%filesPerStormer+1), root, name)
				for burst := 0; burst < 3; burst++ {
					if _, err := conn.Write(wire); err != nil {
						return // server sockets gone: the storm is over
					}
				}
			}
		}(w)
	}

	time.Sleep(75 * time.Millisecond) // let the storm build a backlog
	s.Close()
	close(stop)
	wg.Wait()

	// Drain guarantee: everything read was serviced inline or dispatched.
	d := drainOf(srv.Metrics.Snapshot())
	if d.reads == 0 {
		t.Error("storm staged zero datagrams before Close")
	}
	if d.reads != d.nfsd+d.fast+d.inline {
		t.Errorf("drain lost requests: %+v", d)
	}
	if v := aud.Finish(); len(v) != 0 {
		t.Errorf("auditor found %d violations, first: %v", len(v), v[0])
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > base {
		t.Errorf("goroutine leak after mid-storm Close: %d running, %d at baseline", g, base)
	}
}

// TestReusePortShardsIngest exercises the owned-socket strategy: with
// SO_REUSEPORT available, every reader binds its own socket to the one
// service port and the kernel spreads client flows across them. Many
// distinct client sockets (distinct source ports, so distinct 4-tuple
// hashes) must land on more than one reader, and every call must still be
// answered correctly whichever socket it arrived on. Skipped where the
// platform cannot bind multiple sockets to one port.
func TestReusePortShardsIngest(t *testing.T) {
	if !reusePortSupported() {
		t.Skip("SO_REUSEPORT sharding unsupported on this platform")
	}
	fs := memfs.New(1, nil, nil)
	opts := server.Reno()
	opts.NFSDs = 4
	opts.Readers = 4
	srv := server.New(fs, opts)
	s, err := Serve(srv, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !s.ReusePort() {
		t.Fatalf("reuseport supported but server fell back to a shared socket")
	}
	if got := s.Readers(); got != 4 {
		t.Fatalf("server runs %d readers, want 4", got)
	}
	root := srv.RootFH()

	// 24 clients × 2^-23 odds that every 4-tuple hashes to one of ≥2
	// sockets' lanes makes the spread assertion deterministic in practice.
	const clients = 24
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl, err := DialUDP(s.UDPAddr())
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			name := fmt.Sprintf("shard-%d", id)
			cr, err := cl.Create(root, name, 0644)
			if err != nil || cr.Status != nfsproto.OK {
				errs <- fmt.Errorf("create %s: %v %v", name, cr, err)
				return
			}
			for i := 0; i < 8; i++ {
				if _, err := cl.Getattr(cr.File); err != nil {
					errs <- fmt.Errorf("getattr %s: %v", name, err)
					return
				}
			}
			if lk, err := cl.Lookup(root, name); err != nil || lk.Status != nfsproto.OK || lk.File != cr.File {
				errs <- fmt.Errorf("lookup %s: %v %v", name, lk, err)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	snap := srv.Metrics.Snapshot()
	active := 0
	for i := 0; i < s.Readers(); i++ {
		n := snap.Counters[fmt.Sprintf("rpc.reader.%d.reads", i)]
		t.Logf("reader %d staged %d datagrams", i, n)
		if n > 0 {
			active++
		}
	}
	if active < 2 {
		t.Errorf("reuseport delivered all flows to %d reader(s); want spread across >= 2", active)
	}
	if snap.Gauges["rpc.reader.reuseport"] != 1 || snap.Gauges["rpc.readers"] != 4 {
		t.Errorf("ingest gauges wrong: reuseport=%v readers=%v",
			snap.Gauges["rpc.reader.reuseport"], snap.Gauges["rpc.readers"])
	}
}
