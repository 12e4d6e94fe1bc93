package nfsnet

import (
	"sync"
	"testing"

	"renonfs/internal/memfs"
	"renonfs/internal/nfsproto"
	"renonfs/internal/server"
)

// TestSpanPipelineConcurrent drives many concurrent clients through the
// UDP pool and the TCP path and checks the stage telemetry end to end:
// every request must land in every pipeline histogram exactly once, and
// the slow-span ring must hold real spans with sane stage ordering. Run
// under -race this is also the span-lifecycle safety test: per-worker span
// reuse, ring admission and histogram recording all race against each
// other here.
func TestSpanPipelineConcurrent(t *testing.T) {
	fs := memfs.New(1, nil, nil)
	core := server.New(fs, server.Reno())
	f, err := fs.Create(nil, fs.Root(), "f", 0644)
	if err != nil {
		t.Fatal(err)
	}
	// READ is the probe: a header-only procedure would be serviced inline on
	// the UDP reader (the shallow path) and never ride the job queue the
	// queue-stage assertions below look at. Fast-path span accounting has
	// its own test (TestFastPathSpans).
	fileFH := fs.FH(f)
	s, err := Serve(core, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const clients = 4
	const callsPerClient = 50
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(tcp bool) {
			defer wg.Done()
			var cl *Client
			var err error
			if tcp {
				cl, err = DialTCP(s.TCPAddr())
			} else {
				cl, err = DialUDP(s.UDPAddr())
			}
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			for i := 0; i < callsPerClient; i++ {
				if _, err := cl.Read(fileFH, 0, 512); err != nil {
					t.Error(err)
					return
				}
			}
		}(c%2 == 0)
	}
	wg.Wait()
	// A span is recorded after its reply is sent, so the last client can be
	// done before the last span lands; Close drains every serving goroutine.
	s.Close()

	s.PublishStats()
	snap := core.Metrics.Snapshot()
	const want = clients * callsPerClient
	for _, st := range []string{"read", "queue", "decode", "service", "encode", "send", "total"} {
		name := "rpc.stage." + st + ".us"
		h, ok := snap.Histograms[name]
		if st == "queue" {
			// Only the UDP half rides the job queue; TCP spans skip it.
			if !ok || h.Count < want/2 {
				t.Errorf("%s count = %d, want >= %d", name, h.Count, want/2)
			}
			continue
		}
		if !ok || h.Count < want {
			t.Errorf("%s count = %d, want >= %d", name, h.Count, want)
		}
	}
	// READ is idempotent: the dupcheck stage must never be entered.
	if h := snap.Histograms["rpc.stage.dupcheck.us"]; h.Count != 0 {
		t.Errorf("dupcheck recorded %d observations for idempotent calls", h.Count)
	}
	ring := s.Stages().Ring()
	if ring.Len() == 0 {
		t.Fatal("slow-span ring is empty after traffic")
	}
	for _, sp := range ring.Slowest() {
		if sp.Proc != nfsproto.ProcRead {
			t.Errorf("ring span proc = %d, want READ", sp.Proc)
		}
		if sp.TotalNS() <= 0 {
			t.Error("ring span with non-positive total")
		}
		if sp.Peer == "" {
			t.Error("ring span with empty peer")
		}
	}
	// The busy gauge publishes lazily and the pool is idle now.
	if busy := snap.Gauges["rpc.nfsd.busy"]; busy != 0 {
		t.Errorf("idle pool publishes busy = %v", busy)
	}
}
