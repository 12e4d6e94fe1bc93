package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sort"
	"time"

	"renonfs/internal/nfsproto"
	"renonfs/internal/rpc"
)

// Retransmission policy of the UDP load generator: a reply that has not come
// back within rto is re-sent, and after maxRetrans re-sends the op has failed.
// Loopback never drops at these windows, so any retransmit is itself a finding
// (client.retransmits_per_kop).
const (
	rto        = 100 * time.Millisecond
	maxRetrans = 5
	tcpStall   = 2 * time.Second       // a silent TCP connection fails every op in flight
	maxFailed  = 64                    // failed ops after which a phase gives up: the run has its verdict
	crcEvery   = 64                    // READ replies get a full-payload CRC this often
	xidBase    = 0x52454e4f            // "RENO"; XID = xidBase + op sequence number
	sliceDur   = 50 * time.Millisecond // the window is cut into slices this long
	replyHdr   = 24                    // xid, REPLY, accepted, verf flavor, verf len, accept stat
	fattrBytes = 68
)

type slot struct {
	xid      uint32
	tmpl     int32
	gen      uint32 // READ: the generation its block held when the op was sent
	tries    int8
	live     bool
	sent     int64 // ns since base: first transmission (latency runs from here)
	lastSend int64
}

// loadgen drives one socket from one goroutine with a fixed window of
// outstanding RPCs: the paper's biod model, a closed loop.
type loadgen struct {
	s      *stream
	window int
	conn   net.Conn
	br     *bufio.Reader // TCP only
	rbuf   []byte
	base   time.Time
	slots  []slot // one per window position; a straggler holds its slot while the others turn over
	seq    uint64 // ops issued so far; seq%streamLen is the stream position
	live   int
	gen    []uint32 // generation each block holds once every sent WRITE has run
	busy   []bool   // blocks with an op in flight: a second op on one waits, so execution order is send order
	armed  int64    // when the read deadline was last set

	attempted, failed, retransmits, stale int64
	firstErr                              string

	// cpu, when set, samples the server's accumulated CPU time (µs) at
	// every slice boundary.
	cpu func() float64

	// Per-phase results, reset by run.
	lat   []uint32 // ns per verified reply
	marks []mark
}

// mark is the state at a slice boundary; marks[0] is the phase's start.
type mark struct {
	at    int64   // ns since base
	done  int     // verified replies so far in the phase
	cpuUS float64 // server CPU so far
}

func newLoadgen(s *stream, window int, conn net.Conn) *loadgen {
	g := &loadgen{s: s, window: window, conn: conn, base: time.Now(),
		rbuf: make([]byte, 0, 1<<16), slots: make([]slot, window)}
	if s.tcp {
		g.br = bufio.NewReaderSize(conn, 1<<16)
	}
	if s.crc != nil {
		g.gen = make([]uint32, dataBlocks)
		g.busy = make([]bool, dataBlocks)
		for b := range g.gen {
			g.gen[b] = uint32(b)
		}
	}
	return g
}

func (g *loadgen) now() int64 { return int64(time.Since(g.base)) }

// phase is what one call of run measured.
type phase struct {
	ops    int64 // verified replies
	wallNS int64 // first send to last reply
	lat    []uint32
	marks  []mark // slice boundaries, for a timed phase
}

// run issues whole stream cycles until at least minOps ops were sent and dur
// has passed, then drains the window. Ending on a cycle boundary keeps the op
// mix of every run identical and the CREATE/REMOVE pairs closed.
func (g *loadgen) run(minOps int64, dur time.Duration) phase {
	g.lat = g.lat[:0]
	g.marks = g.marks[:0]
	failedBefore := g.failed
	start := g.now()
	nextSlice := int64(-1)
	if dur > 0 {
		g.mark(start)
		nextSlice = start + int64(sliceDur)
	}
	var issued int64
	stop := false
	for {
		for g.live < g.window && !stop {
			now := g.now()
			if issued >= minOps && now-start >= int64(dur) && issued%streamLen == 0 {
				stop = true
				break
			}
			if b := g.s.tmpl[g.seq%streamLen].block; b >= 0 && g.busy[b] {
				break
			}
			g.send(now)
			issued++
		}
		if g.live == 0 {
			break
		}
		if !g.receive() || g.failed-failedBefore > maxFailed {
			break
		}
		if now := g.now(); nextSlice >= 0 && now >= nextSlice && !stop {
			g.mark(now)
			nextSlice = now + int64(sliceDur)
		}
	}
	p := phase{ops: int64(len(g.lat)), wallNS: g.now() - start, lat: g.lat, marks: g.marks}
	if g.failed > failedBefore && g.firstErr != "" {
		fmt.Printf("# first failure: %s\n", g.firstErr)
	}
	return p
}

func (g *loadgen) mark(now int64) {
	m := mark{at: now, done: len(g.lat)}
	if g.cpu != nil {
		m.cpuUS = g.cpu()
	}
	g.marks = append(g.marks, m)
}

func (g *loadgen) send(now int64) {
	i := int32(g.seq % streamLen)
	t := &g.s.tmpl[i]
	sl := g.slotFor(0, false)
	*sl = slot{xid: xidBase + uint32(g.seq), tmpl: i, live: true, sent: now, lastSend: now}
	binary.BigEndian.PutUint32(t.wire[g.s.xidOff:], sl.xid)
	if t.block >= 0 {
		sl.gen = g.gen[t.block]
		g.busy[t.block] = true
		if t.kind == opWrite {
			g.gen[t.block] = uint32(dataBlocks) + uint32(i)
		}
	}
	g.seq++
	g.live++
	g.attempted++
	if _, err := g.conn.Write(t.wire); err != nil {
		g.fail(sl, "send: "+err.Error())
	}
}

// slotFor finds the live slot holding xid, or (live false) a free one; the
// window is at most 8, so a scan beats any index.
func (g *loadgen) slotFor(xid uint32, live bool) *slot {
	for i := range g.slots {
		if sl := &g.slots[i]; sl.live == live && (!live || sl.xid == xid) {
			return sl
		}
	}
	return nil
}

// settle frees an op's slot and block.
func (g *loadgen) settle(sl *slot) {
	sl.live = false
	g.live--
	if b := g.s.tmpl[sl.tmpl].block; b >= 0 {
		g.busy[b] = false
	}
}

func (g *loadgen) fail(sl *slot, why string) {
	g.settle(sl)
	g.failed++
	if g.firstErr == "" {
		g.firstErr = fmt.Sprintf("op %d (%s): %s", sl.xid-xidBase, nfsproto.ProcName(opProc[g.s.tmpl[sl.tmpl].kind]), why)
	}
}

// receive waits for one reply (or a timeout) and settles it. False means the
// connection is unusable and the run must stop.
func (g *loadgen) receive() bool {
	wait := rto
	if g.s.tcp {
		wait = tcpStall
	}
	if now := g.now(); now-g.armed > int64(wait)/2 || g.armed == 0 {
		g.conn.SetReadDeadline(g.base.Add(time.Duration(now) + wait))
		g.armed = now
	}
	var rep []byte
	var err error
	if g.s.tcp {
		rep, err = readRecord(g.br, g.rbuf)
	} else {
		var n int
		n, err = g.conn.Read(g.rbuf[:cap(g.rbuf)])
		rep = g.rbuf[:n]
	}
	if err != nil {
		var ne net.Error
		if !g.s.tcp && errors.As(err, &ne) && ne.Timeout() {
			g.armed = 0
			g.retransmit()
			return true
		}
		for i := range g.slots {
			if g.slots[i].live {
				g.fail(&g.slots[i], "receive: "+err.Error())
			}
		}
		return false
	}
	if len(rep) < replyHdr+4 {
		g.stale++
		return true
	}
	xid := binary.BigEndian.Uint32(rep)
	sl := g.slotFor(xid, true)
	if sl == nil {
		g.stale++ // the answer to an op a retransmission already settled
		return true
	}
	if why := g.verify(rep, sl); why != "" {
		g.fail(sl, why)
		return true
	}
	g.settle(sl)
	g.lat = append(g.lat, uint32(g.now()-sl.sent))
	return true
}

func (g *loadgen) retransmit() {
	now := g.now()
	for i := range g.slots {
		sl := &g.slots[i]
		if !sl.live || now-sl.lastSend < int64(rto) {
			continue
		}
		if sl.tries >= maxRetrans {
			g.fail(sl, "timed out after 5 retransmits")
			continue
		}
		sl.tries++
		sl.lastSend = now
		g.retransmits++
		t := &g.s.tmpl[sl.tmpl]
		binary.BigEndian.PutUint32(t.wire[g.s.xidOff:], sl.xid)
		if _, err := g.conn.Write(t.wire); err != nil {
			g.fail(sl, "resend: "+err.Error())
		}
	}
}

// verify checks a reply against what its template must produce; "" is a pass.
func (g *loadgen) verify(rep []byte, sl *slot) string {
	be := binary.BigEndian
	if be.Uint32(rep[4:]) != rpc.MsgReply || be.Uint32(rep[8:]) != rpc.MsgAccepted ||
		be.Uint32(rep[16:]) != 0 || be.Uint32(rep[20:]) != rpc.Success {
		return "rpc reply not accepted/success"
	}
	t := &g.s.tmpl[sl.tmpl]
	if st := nfsproto.Status(be.Uint32(rep[replyHdr:])); st != t.want {
		return fmt.Sprintf("status %v, want %v", st, t.want)
	}
	body := rep[replyHdr+4:]
	switch t.kind {
	case opLookup:
		if len(body) < nfsproto.FHSize || !bytes.Equal(body[:nfsproto.FHSize], t.fh[:]) {
			return "lookup returned another handle"
		}
	case opRead:
		if len(body) < fattrBytes+4+blockSize || be.Uint32(body[fattrBytes:]) != blockSize {
			return "short read"
		}
		data := body[fattrBytes+4 : fattrBytes+4+blockSize]
		le := binary.LittleEndian
		if le.Uint64(data) != patternWord(g.s.seed, sl.gen, 0) ||
			le.Uint64(data[blockSize-8:]) != patternWord(g.s.seed, sl.gen, blockSize/8-1) {
			return fmt.Sprintf("read payload is not generation %d", sl.gen)
		}
		if (sl.xid-xidBase)%crcEvery == 0 && crc32.ChecksumIEEE(data) != g.s.crc[sl.gen] {
			return fmt.Sprintf("read payload crc is not generation %d", sl.gen)
		}
	}
	return ""
}

// readRecord reads one record-marked message (RFC 1057 §10) into buf,
// joining fragments, however the stream was segmented into reads.
func readRecord(r io.Reader, buf []byte) ([]byte, error) {
	buf = buf[:0]
	var mark [4]byte
	for {
		if _, err := io.ReadFull(r, mark[:]); err != nil {
			return nil, err
		}
		m := binary.BigEndian.Uint32(mark[:])
		n := int(m &^ (1 << 31))
		if len(buf)+n > rpc.MaxRecord {
			return nil, rpc.ErrRecordTooBig
		}
		off := len(buf)
		if off+n > cap(buf) {
			buf = append(make([]byte, 0, off+n), buf...)
		}
		buf = buf[:off+n]
		if _, err := io.ReadFull(r, buf[off:]); err != nil {
			return nil, err
		}
		if m&(1<<31) != 0 {
			return buf, nil
		}
	}
}

// readBack re-reads n seeded-random blocks over a fresh synchronous client
// and compares all 8 KB of each with the last write the generator sent there.
func (g *loadgen) readBack(read func(fh nfsproto.FH, off uint32) ([]byte, error), n int) {
	rng := streamRand("readback", g.s.seed)
	want := make([]byte, blockSize)
	for i := 0; i < n; i++ {
		b := rng.Intn(dataBlocks)
		g.attempted++
		got, err := read(g.s.dataFHs[b/fileBlocks], uint32(b%fileBlocks)*blockSize)
		fillBlock(want, g.s.seed, g.gen[b])
		if err != nil || !bytes.Equal(got, want) {
			g.failed++
			if g.firstErr == "" {
				g.firstErr = fmt.Sprintf("read-back of block %d is not generation %d (err %v)", b, g.gen[b], err)
				fmt.Printf("# first failure: %s\n", g.firstErr)
			}
		}
	}
}

func sortedLat(lat []uint32) []uint32 {
	s := append([]uint32(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}
