package nfsnet

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"renonfs/internal/check"
	"renonfs/internal/mbuf"
	"renonfs/internal/memfs"
	"renonfs/internal/nfsproto"
	"renonfs/internal/rpc"
	"renonfs/internal/server"
	"renonfs/internal/xdr"
)

// encodeLookup builds the wire bytes of one LOOKUP call.
func encodeLookup(xid uint32, dir nfsproto.FH, name string) []byte {
	msg := &mbuf.Chain{}
	rpc.EncodeCall(msg, &rpc.Call{XID: xid, Prog: nfsproto.Program, Vers: nfsproto.Version, Proc: nfsproto.ProcLookup})
	(&nfsproto.DiropArgs{Dir: dir, Name: name}).Encode(xdr.NewEncoder(msg))
	out := msg.Bytes()
	msg.Free()
	return out
}

// TestFastPathRetransmitExactlyOnce proves the shallow path and the sharded
// dupcache compose: with fast dispatch enabled (reuseport ingest), clients
// retransmit non-idempotent REMOVEs — which must punt to the generic path
// and hit the dupcache exactly-once — interleaved with retransmitted
// LOOKUPs that the readers service inline. Every REMOVE executes once
// (cached OK on every duplicate, strict auditor clean) while the LOOKUP
// traffic demonstrably rode the fast path. Run with -race.
func TestFastPathRetransmitExactlyOnce(t *testing.T) {
	fs := memfs.New(1, nil, nil)
	opts := server.Reno()
	opts.NFSDs = 8
	opts.Readers = 4
	// Size the cache so nothing evicts mid-run: with no eviction, any
	// re-execution is a hard exactly-once violation.
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
	defer s.Close()
	if !s.ReusePort() {
		t.Skip("no reuseport: the shallow path is disabled on multi-reader shared sockets")
	}
	root := srv.RootFH()

	const workers = 4
	const filesPerWorker = 8

	setup, err := DialUDP(s.UDPAddr())
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < filesPerWorker; i++ {
			name := fmt.Sprintf("fpv-%d-%d", w, i)
			if res, err := setup.Create(root, name, 0644); err != nil || res.Status != nfsproto.OK {
				t.Fatalf("create %s: %v %v", name, res, err)
			}
		}
	}
	setup.Close()

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			conn, err := net.Dial("udp", s.UDPAddr())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			buf := make([]byte, 65536)
			for i := 0; i < filesPerWorker; i++ {
				name := fmt.Sprintf("fpv-%d-%d", id, i)
				rmXID := uint32(1000*id + i + 1)
				luXID := uint32(500_000 + 1000*id + i + 1)
				rmWire := encodeRemove(rmXID, root, name)
				luWire := encodeLookup(luXID, root, name)
				// Retransmit both: the LOOKUP triples are absorbed inline by
				// the fast path (idempotent — re-execution is legal), the
				// REMOVE triples race through the rings into the dupcache.
				for burst := 0; burst < 3; burst++ {
					if _, err := conn.Write(luWire); err != nil {
						errs <- err
						return
					}
					if _, err := conn.Write(rmWire); err != nil {
						errs <- err
						return
					}
				}
				// Every reply to the REMOVE xid must be the cached OK; a
				// non-OK reply means the REMOVE re-executed.
				gotRemove := 0
				deadline := time.Now().Add(2 * time.Second)
				for time.Now().Before(deadline) {
					wait := 150 * time.Millisecond
					if gotRemove == 0 {
						wait = time.Second
					}
					conn.SetReadDeadline(time.Now().Add(wait))
					n, err := conn.Read(buf)
					if err != nil {
						if gotRemove > 0 {
							break
						}
						continue
					}
					chain := mbuf.FromBytes(buf[:n])
					rxid, err := rpc.PeekXID(chain)
					if err != nil || rxid != rmXID {
						chain.Free()
						continue // LOOKUP replies and stale xids
					}
					d := xdr.NewDecoder(chain)
					if _, err := rpc.DecodeReply(d); err != nil {
						errs <- fmt.Errorf("xid %d: bad reply: %v", rmXID, err)
						return
					}
					res, err := nfsproto.DecodeStatusRes(d)
					if err != nil {
						errs <- fmt.Errorf("xid %d: bad status: %v", rmXID, err)
						return
					}
					if res.Status != nfsproto.OK {
						errs <- fmt.Errorf("xid %d (%s): reply %d after %d OKs — REMOVE re-executed behind the fast path",
							rmXID, name, res.Status, gotRemove)
						return
					}
					gotRemove++
				}
				if gotRemove == 0 {
					errs <- fmt.Errorf("xid %d (%s): no REMOVE reply at all", rmXID, name)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if hits := srv.Metrics.Counter("nfs.dup_hits").Value(); hits == 0 {
		t.Error("retransmitted REMOVEs produced zero duplicate cache hits")
	}
	if v := aud.Finish(); len(v) != 0 {
		t.Errorf("auditor found %d violations, first: %v", len(v), v[0])
	}
	snap := srv.Metrics.Snapshot()
	if fc := snap.Counters["rpc.fastpath.calls"]; fc == 0 {
		t.Error("rpc.fastpath.calls never advanced: LOOKUP storm did not ride the shallow path")
	}
	if d := drainOf(snap); d.reads != d.nfsd+d.fast+d.inline {
		t.Errorf("drain counters diverge: %+v", d)
	}
	// Every file must actually be gone — each REMOVE executed (once).
	for w := 0; w < workers; w++ {
		for i := 0; i < filesPerWorker; i++ {
			name := fmt.Sprintf("fpv-%d-%d", w, i)
			if _, err := fs.Lookup(fs.Root(), name); err != memfs.ErrNoEnt {
				t.Errorf("%s still present after REMOVE (err %v)", name, err)
			}
		}
	}
}

// TestFastPathSpans holds the telemetry contract of the shallow path: every
// inline-serviced request lands in the read/decode/service/encode/send/total
// histograms exactly once, skips the queue stage (it never rode a ring),
// and moves the fast-path and batched-send counters coherently.
func TestFastPathSpans(t *testing.T) {
	fs := memfs.New(1, nil, nil)
	opts := server.Reno()
	// One reader: the shallow path is active even where reuseport is not,
	// so the test is platform-independent.
	opts.Readers = 1
	core := server.New(fs, opts)
	if _, err := fs.Create(nil, fs.Root(), "f", 0644); err != nil {
		t.Fatal(err)
	}
	s, err := Serve(core, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	cl, err := DialUDP(s.UDPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	root := core.RootFH()
	const want = 120
	for i := 0; i < want; i++ {
		if _, err := cl.Lookup(root, "f"); err != nil {
			t.Fatal(err)
		}
	}

	// A span is recorded after its reply is sent, so the last call's may
	// still be open when the client returns; Close waits for the reader.
	s.Close()
	s.PublishStats()
	snap := core.Metrics.Snapshot()
	for _, st := range []string{"read", "decode", "service", "encode", "send", "total"} {
		name := "rpc.stage." + st + ".us"
		if h := snap.Histograms[name]; h.Count < want {
			t.Errorf("%s count = %d, want >= %d", name, h.Count, want)
		}
	}
	if h := snap.Histograms["rpc.stage.queue.us"]; h.Count != 0 {
		t.Errorf("queue stage recorded %d observations for inline-serviced calls", h.Count)
	}
	if fc := snap.Counters["rpc.fastpath.calls"]; fc < want {
		t.Errorf("rpc.fastpath.calls = %d, want >= %d", fc, want)
	}
	if rf := snap.Counters["rpc.reader.0.fast"]; rf < want {
		t.Errorf("rpc.reader.0.fast = %d, want >= %d", rf, want)
	}
	msgs := snap.Counters["rpc.send.batched_msgs"]
	batches := snap.Counters["rpc.send.batches"]
	if msgs < want {
		t.Errorf("rpc.send.batched_msgs = %d, want >= %d", msgs, want)
	}
	if batches == 0 || batches > msgs {
		t.Errorf("rpc.send.batches = %d incoherent against %d batched msgs", batches, msgs)
	}
	ring := s.Stages().Ring()
	if ring.Len() == 0 {
		t.Fatal("slow-span ring is empty after fast-path traffic")
	}
	for _, sp := range ring.Slowest() {
		if sp.Proc != nfsproto.ProcLookup {
			t.Errorf("ring span proc = %d, want LOOKUP", sp.Proc)
		}
		if sp.TotalNS() <= 0 {
			t.Error("ring span with non-positive total")
		}
	}
}
