package nfsnet

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"renonfs/internal/memfs"
	"renonfs/internal/metrics"
	"renonfs/internal/nfsproto"
	"renonfs/internal/nfstest"
	"renonfs/internal/rpc"
	"renonfs/internal/server"
)

// mark prefixes wire with a last-fragment record mark.
func mark(wire []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, 0x80000000|uint32(len(wire))), wire...)
}

// readRecord reads one single-fragment record into buf.
func readRecord(t *testing.T, conn net.Conn, buf []byte) []byte {
	t.Helper()
	if _, err := io.ReadFull(conn, buf[:4]); err != nil {
		t.Fatal(err)
	}
	n := int(binary.BigEndian.Uint32(buf) &^ 0x80000000)
	if _, err := io.ReadFull(conn, buf[:n]); err != nil {
		t.Fatal(err)
	}
	return buf[:n]
}

// tcpRoundTrip is udpRoundTrip over a record stream: req is a marked,
// pre-encoded call whose XID is patched in. It allocates nothing.
func tcpRoundTrip(t *testing.T, conn net.Conn, req, buf []byte, xid uint32) []byte {
	t.Helper()
	binary.BigEndian.PutUint32(req[4:], xid)
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	rep := readRecord(t, conn, buf)
	if len(rep) < 28 || binary.BigEndian.Uint32(rep) != xid || binary.BigEndian.Uint32(rep[24:]) != uint32(nfsproto.OK) {
		t.Fatalf("xid %#x: %d-byte reply %x", xid, len(rep), rep[:min(len(rep), 28)])
	}
	return rep
}

// pathBlind is a registry snapshot with everything removed that may
// legitimately tell the shallow path from the generic one, or one run from
// the next: the shallow-path counters themselves, wall-clock sums, and the
// stage histograms (a shallow span has no dupcheck stage). What is left —
// every procedure, cache, byte, mbuf and drop counter, and how many
// samples each service-time histogram took — must not differ.
func pathBlind(snap *metrics.Snapshot) map[string]int64 {
	out := map[string]int64{}
	for name, v := range snap.Counters {
		if !strings.HasPrefix(name, "rpc.fastpath.") && !strings.HasSuffix(name, "_us") {
			out[name] = v
		}
	}
	for name, h := range snap.Histograms {
		if !strings.HasPrefix(name, "rpc.stage.") {
			out["samples:"+name] = int64(h.Count)
		}
	}
	return out
}

// TestTCPShallowVsGenericReplyStream holds the TCP shallow arm to the
// generic one at the socket: one seeded record stream — FuzzFastVsGeneric's
// corpus (NOENT, stale handles, a MaxData READDIR, MNT,
// truncated arguments, CREATE and REMOVE between lookups) with 8 KB WRITEs
// and READs woven in, cut into writes at seeded points so that records
// arrive several to a read and split across reads — must draw the same
// reply bytes and leave the same registry behind whether the shallow arm takes
// the eligible calls or declines them all.
func TestTCPShallowVsGenericReplyStream(t *testing.T) {
	const sentinel = 0x7e57e0d
	// run also returns how many records the shallow arm was offered: none
	// when it declines them all.
	run := func(decline bool) ([]byte, *metrics.Snapshot, int64) {
		declineFast = decline
		defer func() { declineFast = false }()
		rig := newAliasRig(t, "tcp", 1, false, true)
		defer rig.s.Close()
		rng := rand.New(rand.NewSource(19))
		var stream []byte
		var eligible int64
		var pk rpc.PeekedCall
		add := func(wire []byte) {
			stream = append(stream, mark(wire)...)
			if _, ok := fastEligible(wire, &pk); ok {
				eligible++
			}
		}
		for i, wire := range nfstest.Seeds(rig.h) {
			if _, ok := rpc.PeekCallHeader(wire, &pk); ok && pk.Prog == nfsproto.MountProgram && pk.Proc == nfsproto.MountProcDump {
				continue // the DUMP reply names the client's own socket
			}
			add(wire)
			block := uint32(rng.Intn(4)) * memfs.BlockSize
			switch i % 4 {
			case 1:
				add(encodeWrite(uint32(7000+i), rig.h.File, block, blockPattern(byte(i))))
			case 3:
				add(encodeRead(uint32(7000+i), rig.h.File, block, memfs.BlockSize))
			}
		}
		add(nfstest.EncodeWire(sentinel, nfsproto.Program, nfsproto.Version, nfsproto.ProcNull, nil))

		conn := rig.conn
		conn.SetDeadline(time.Now().Add(20 * time.Second))
		go func() {
			for rest := stream; len(rest) > 0; {
				n := min(1+rng.Intn(3000), len(rest))
				if _, err := conn.Write(rest[:n]); err != nil {
					return // the reader's deadline reports it
				}
				rest = rest[n:]
			}
		}()
		var replies []byte
		for {
			rep := readRecord(t, conn, rig.buf)
			replies = append(binary.BigEndian.AppendUint32(replies, uint32(len(rep))), rep...)
			if binary.BigEndian.Uint32(rep) == sentinel {
				break
			}
		}
		return replies, rig.core.Metrics.Snapshot(), eligible
	}
	shallow, ssnap, seligible := run(false)
	generic, gsnap, geligible := run(true)
	if !bytes.Equal(shallow, generic) {
		t.Errorf("reply streams differ: %d bytes with the shallow path taken, %d with it declined", len(shallow), len(generic))
	}
	if a, b := pathBlind(ssnap), pathBlind(gsnap); !reflect.DeepEqual(a, b) {
		for name, v := range a {
			if b[name] != v {
				t.Errorf("%s: %d shallow, %d generic", name, v, b[name])
			}
		}
		t.Errorf("registries differ (%d vs %d entries)", len(a), len(b))
	}
	// And the two runs were of the two arms: every eligible record shallow
	// (the MaxData READDIR among them), then none.
	if c := ssnap.Counters["rpc.fastpath.calls"]; seligible < 20 || c != seligible {
		t.Errorf("shallow run: %d shallow calls of %d eligible records; want all of them", c, seligible)
	}
	if c := gsnap.Counters["rpc.fastpath.calls"]; geligible != 0 || c != 0 {
		t.Errorf("declined run: %d shallow calls, %d eligible records; want none", c, geligible)
	}
}

// TestTCPPipelineDownAndCrash: calls pipelined on one connection across
// SetDown and Crash. While the server is down both arms drop — the
// header-only call in serveFast, the data call in dispatch — and neither is
// answered later; under chaos every reply that does come back is for a call
// sent, in the order sent, once. Run with -race.
func TestTCPPipelineDownAndCrash(t *testing.T) {
	rig := newAliasRig(t, "tcp", 1, false, true)
	conn, core := rig.conn, rig.core
	rig.call(t, encodeWrite(1, rig.h.File, 0, blockPattern(3)[:512]))
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	pair := func(xid uint32) []byte {
		return append(mark(encodeGetattr(xid, rig.h.File)), mark(encodeRead(xid+1, rig.h.File, 0, 512))...)
	}
	null := func(xid uint32) []byte {
		return mark(nfstest.EncodeWire(xid, nfsproto.Program, nfsproto.Version, nfsproto.ProcNull, nil))
	}
	samples := func(stage string) int64 {
		return core.Metrics.Snapshot().Histograms["rpc.stage."+stage+".us"].Count
	}

	// Down: ten header-only and ten data calls in one write, all dropped.
	rig.s.SetDown(true)
	var burst []byte
	for xid := uint32(100); xid < 120; xid += 2 {
		burst = append(burst, pair(xid)...)
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); samples("total") < 21; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("server consumed %d of 20 calls while down", samples("total")-1)
		}
	}
	// A shallow drop got as far as the peeked header, a generic one did not.
	if d, e := samples("decode")-1, samples("encode")-1; d != 10 || e != 0 {
		t.Errorf("while down: %d spans decoded, %d encoded; want the 10 shallow drops and none", d, e)
	}
	rig.s.SetDown(false)
	if _, err := conn.Write(null(999)); err != nil {
		t.Fatal(err)
	}
	if rep := readRecord(t, conn, rig.buf); binary.BigEndian.Uint32(rep) != 999 {
		t.Fatalf("first reply after the outage is xid %d: a dropped call was answered", binary.BigEndian.Uint32(rep))
	}

	// Chaos: 4,000 calls in flight across SetDown flips and Crashes.
	const first, last, sentinel = 1000, 5000, 9999
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for i := 0; ; i++ {
			select {
			case <-stop:
				rig.s.SetDown(false)
				return
			default:
			}
			switch i % 3 {
			case 0:
				rig.s.SetDown(true)
				time.Sleep(200 * time.Microsecond)
				rig.s.SetDown(false)
			case 1:
				rig.s.Crash()
			}
			time.Sleep(300 * time.Microsecond)
		}
	}()
	go func() {
		for xid := uint32(first); xid < last; xid += 2 {
			if _, err := conn.Write(pair(xid)); err != nil {
				break
			}
		}
		close(stop)
		<-stopped
		conn.Write(null(sentinel))
	}()
	answered, prev := 0, uint32(0)
	for {
		rep := readRecord(t, conn, rig.buf)
		xid := binary.BigEndian.Uint32(rep)
		if xid == sentinel {
			break
		}
		if xid <= prev || xid < first || xid >= last {
			t.Fatalf("reply xid %d after %d: answered twice, out of order, or never sent", xid, prev)
		}
		// NFS status OK, then a GETATTR's fattr or a READ's fattr + 512 bytes.
		if want := map[bool]int{true: 28 + 68, false: 28 + 68 + 4 + 512}[xid%2 == 0]; len(rep) != want || binary.BigEndian.Uint32(rep[24:]) != 0 {
			t.Fatalf("xid %d: %d-byte reply, want %d", xid, len(rep), want)
		}
		prev = xid
		answered++
	}
	t.Logf("%d of %d pipelined calls answered, the rest dropped", answered, last-first)
	if answered == 0 {
		t.Error("no call survived the chaos: the stream wedged")
	}
}

// TestAllocBudgetTCP pins the shallow arm's economy on a record stream:
// once warm, a GETATTR round trip allocates nothing in the process and a
// LOOKUP only the name string the core keeps for the name cache — the same
// one allocation the shallow path's in-process budget allows
// (fastLookupAllocBudget in the root package) — where the generic path
// spent a decoder, a reply chain and an encoder on each. A READDIR whose
// 9.4 KB reply fills the largest window is served shallow too, allocating
// nothing (memfs.DirWindow copies only the window's entries, onto the
// stack). No scanner copy, no reply chain, no iovec array.
func TestAllocBudgetTCP(t *testing.T) {
	rig := newAliasRig(t, "tcp", 1, false, true)
	conn := rig.conn
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	xid := uint32(0)
	for _, tc := range []struct {
		name   string
		req    []byte
		budget float64
	}{
		{"getattr", mark(encodeGetattr(0, rig.h.File)), 0},
		{"lookup", mark(encodeLookup(0, rig.h.Root, "bulk-07")), 1},
		{"readdir", mark(encodeReaddir(0, bigDir(t, rig.core.FS), nfsproto.MaxData)), 0}, // measured 0 (1 while the whole listing was copied)
	} {
		t.Run(tc.name, func(t *testing.T) {
			once := func() {
				xid++
				tcpRoundTrip(t, conn, tc.req, rig.buf, xid)
			}
			for i := 0; i < 64; i++ {
				once()
			}
			got := testing.AllocsPerRun(200, once)
			t.Logf("tcp %s: %.1f allocs/op (budget %.0f)", tc.name, got, tc.budget)
			if got > tc.budget && !raceEnabled {
				t.Errorf("tcp %s allocates %.1f/op, budget is %.0f", tc.name, got, tc.budget)
			}
		})
	}
	if c := rig.core.Metrics.Snapshot().Counters["rpc.fastpath.calls"]; c != 3*(64+201) {
		t.Errorf("%d calls on the shallow path: the calls measured did not take it", c)
	}
}

// TestTCPRecordLargerThanBuffer sends one 100 KB record — a WRITE whose
// data no NFSv2 server accepts — through a real connection. The scanner's
// buffer has to grow to hold it; the server answers it by rule
// (GARBAGE_ARGS), and the GETATTR pipelined behind it shows the stream is
// still in step. A mark past rpc.MaxRecord closes the connection instead.
func TestTCPRecordLargerThanBuffer(t *testing.T) {
	rig := newAliasRig(t, "tcp", 1, false, true)
	conn := rig.conn
	conn.SetDeadline(time.Now().Add(20 * time.Second))
	big := mark(encodeWrite(41, rig.h.File, 0, make([]byte, 100<<10)))
	if _, err := conn.Write(append(big, mark(encodeGetattr(42, rig.h.File))...)); err != nil {
		t.Fatal(err)
	}
	rep := readRecord(t, conn, rig.buf)
	if xid, stat := binary.BigEndian.Uint32(rep), binary.BigEndian.Uint32(rep[20:]); xid != 41 || stat != rpc.GarbageArgs {
		t.Errorf("100 KB WRITE: reply xid %d accept_stat %d, want 41 refused as GARBAGE_ARGS", xid, stat)
	}
	if rep = readRecord(t, conn, rig.buf); binary.BigEndian.Uint32(rep) != 42 || len(rep) != 28+68 {
		t.Errorf("GETATTR behind it: xid %d, %d bytes", binary.BigEndian.Uint32(rep), len(rep))
	}
	if _, err := conn.Write(binary.BigEndian.AppendUint32(nil, 0x80000000|(rpc.MaxRecord+1))); err != nil {
		t.Fatal(err)
	}
	if n, err := conn.Read(rig.buf); err != io.EOF {
		t.Errorf("after a mark past MaxRecord: read %d bytes, err %v; want the connection closed", n, err)
	}
}

// TestCloseWithStalledTCPPeer: a peer that pipelines 8 KB READs and never
// reads a reply fills its receive window and the server's send buffer, and
// its serveConn parks in a reply write. Close must wake that write, not
// only a read, and return with every goroutine gone.
func TestCloseWithStalledTCPPeer(t *testing.T) {
	base := runtime.NumGoroutine()
	fs := memfs.New(1, nil, nil)
	srv := server.New(fs, server.Reno())
	f, err := fs.Create(nil, fs.Root(), "data", 0644)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteAt(nil, f, 0, blockPattern(1), 0); err != nil {
		t.Fatal(err)
	}
	s, err := Serve(srv, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", s.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Write until the server stops taking requests: it is stuck sending.
	req := bytes.Repeat(mark(encodeRead(1, fs.FH(f), 0, memfs.BlockSize)), 32)
	for stalled := false; !stalled; {
		conn.SetWriteDeadline(time.Now().Add(500 * time.Millisecond))
		_, err := conn.Write(req)
		stalled = err != nil
	}
	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return within 2 s of a connection stalled in a reply write")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > base {
		t.Errorf("goroutine leak after Close: %d running, %d at baseline", g, base)
	}
}
