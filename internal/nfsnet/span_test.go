package nfsnet

import (
	"encoding/binary"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"renonfs/internal/memfs"
	"renonfs/internal/metrics"
	"renonfs/internal/nfsproto"
	"renonfs/internal/server"
)

// drain is the four sides of the drain invariant summed over a snapshot:
// reads == nfsd + fast + inline once the server is quiescent.
type drain struct{ reads, nfsd, fast, inline int64 }

func drainOf(snap *metrics.Snapshot) drain {
	var d drain
	for name, v := range snap.Counters {
		switch {
		case strings.HasPrefix(name, "rpc.nfsd.") && strings.HasSuffix(name, ".calls"):
			d.nfsd += v
		case !strings.HasPrefix(name, "rpc.reader."):
		case strings.HasSuffix(name, ".reads"):
			d.reads += v
		case strings.HasSuffix(name, ".fast"):
			d.fast += v
		case strings.HasSuffix(name, ".inline"):
			d.inline += v
		}
	}
	return d
}

// TestSpanPipelineConcurrent checks the stage telemetry end to end on both
// routes a generic call can take. READ is the probe throughout: a
// header-only procedure would ride the shallow path, whose span accounting
// has its own test (TestFastPathSpans). Run under -race this is also the
// span-lifecycle safety test: per-goroutine span reuse, ring admission and
// histogram recording all race against each other here.
func TestSpanPipelineConcurrent(t *testing.T) {
	serve := func(t *testing.T, readers int) (*Server, *server.Server, nfsproto.FH) {
		fs := memfs.New(1, nil, nil)
		opts := server.Reno()
		opts.Readers = readers
		core := server.New(fs, opts)
		f, err := fs.Create(nil, fs.Root(), "f", 0644)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Serve(core, "127.0.0.1:0", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s, core, fs.FH(f)
	}

	// Clients that each wait for their reply never build a backlog: every
	// UDP call is served on the reader, every TCP call on its connection,
	// each lands in every pipeline histogram once — and none ever waits in
	// a queue or wakes an nfsd.
	t.Run("inline", func(t *testing.T) {
		s, core, fileFH := serve(t, 1)
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
		// A span is recorded after its reply is sent, so the last client can
		// be done before the last span lands; Close drains every serving
		// goroutine.
		s.Close()

		s.PublishStats()
		snap := core.Metrics.Snapshot()
		const want = clients * callsPerClient
		for _, st := range []string{"read", "decode", "service", "encode", "send", "total"} {
			name := "rpc.stage." + st + ".us"
			if h := snap.Histograms[name]; h.Count != want {
				t.Errorf("%s count = %d, want %d", name, h.Count, want)
			}
		}
		if h := snap.Histograms["rpc.stage.queue.us"]; h.Count != 0 {
			t.Errorf("queue stage recorded %d observations for calls that never queued", h.Count)
		}
		if d := drainOf(snap); d.nfsd != 0 || d.inline != want/2 || d.reads != d.inline {
			t.Errorf("one-at-a-time UDP calls not all served on the reader: %+v", d)
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
			if sp.Worker != -1 {
				t.Errorf("inline span claims nfsd %d", sp.Worker)
			}
		}
		// The busy gauge publishes lazily and the server is idle now.
		if busy := snap.Gauges["rpc.nfsd.busy"]; busy != 0 {
			t.Errorf("idle server publishes busy = %v", busy)
		}
	})

	// A burst that piles up behind a stalled call spills: the reader that
	// owns the socket is held at the crash gate with the first call in hand
	// while the rest queue in the kernel; released, its recvmmsg fills show
	// it the backlog, and all but the last datagram of each fill go to the
	// pool. Only those calls have a queue stage, every call is counted on
	// exactly one side of the drain invariant and answered exactly once —
	// with no further traffic to shake a straggler loose, so a burst one
	// past the per-wakeup budget also proves the drain never re-blocks with
	// a datagram still inside the probe. A lone reader takes plain blocking
	// reads, sees no backlog and serves the whole burst itself.
	burst := func(t *testing.T, readers, burst int) {
		s, core, fileFH := serve(t, readers)
		if readers > 1 && !s.ReusePort() {
			t.Skip("no reuseport: readers share one socket and spill everything")
		}
		conn, err := net.Dial("udp", s.UDPAddr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		const xid0 = 7000
		reads := func() int64 { return drainOf(core.Metrics.Snapshot()).reads }

		s.crashMu.Lock()
		conn.Write(encodeRead(xid0, fileFH, 0, 64))
		for deadline := time.Now().Add(5 * time.Second); reads() == 0; {
			if time.Now().After(deadline) {
				s.crashMu.Unlock()
				t.Fatal("reader never picked up the first datagram")
			}
			time.Sleep(100 * time.Microsecond)
		}
		for i := 1; i < burst; i++ {
			conn.Write(encodeRead(xid0+uint32(i), fileFH, 0, 64))
		}
		s.crashMu.Unlock()

		answered := make(map[uint32]int)
		buf := make([]byte, 65536)
		for len(answered) < burst {
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			n, err := conn.Read(buf)
			if err != nil || n < 4 {
				t.Fatalf("%d of %d calls answered, then: %v", len(answered), burst, err)
			}
			answered[binary.BigEndian.Uint32(buf)]++
		}
		s.Close() // every span recorded, every reply sent
		conn.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
		if n, err := conn.Read(buf); err == nil {
			t.Errorf("a %d-byte reply beyond the %d calls sent", n, burst)
		}
		for i := 0; i < burst; i++ {
			if n := answered[xid0+uint32(i)]; n != 1 {
				t.Errorf("xid %d answered %d times", xid0+i, n)
			}
		}

		snap := core.Metrics.Snapshot()
		d := drainOf(snap)
		if d.reads != int64(burst) || d.fast != 0 || d.inline+d.nfsd != d.reads || d.inline == 0 || (d.nfsd == 0) != (readers == 1) {
			t.Errorf("burst of %d behind a stalled call: %+v, want none lost, some inline, some spilled unless the reader is alone", burst, d)
		}
		if h := snap.Histograms["rpc.stage.queue.us"]; h.Count != d.nfsd {
			t.Errorf("queue stage has %d samples for %d spilled calls", h.Count, d.nfsd)
		}
		if h := snap.Histograms["rpc.stage.total.us"]; h.Count != int64(burst) {
			t.Errorf("total stage has %d samples for %d calls", h.Count, burst)
		}
	}
	t.Run("spill", func(t *testing.T) { burst(t, 2, 12) })
	t.Run("spill-past-batch", func(t *testing.T) { burst(t, 2, maxBatch+1) })
	t.Run("lone", func(t *testing.T) { burst(t, 1, 12) })
}
