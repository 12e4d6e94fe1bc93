package nfsnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"renonfs/internal/mbuf"
	"renonfs/internal/metrics"
)

// TestAllocBudgetBatchedSend pins the batched reply writer to zero
// steady-state allocations: staging a burst, stamping the spans and
// flushing through sendMulti must reuse every piece of scratch (msgs,
// spans, arena, the sendmmsg header/iovec/segment/sockaddr arrays) — for
// the fast path's flat arena replies, for multi-segment reply chains shaped
// like an 8 KB READ (header mbuf + loaned block + pad, three iovecs each,
// freed by the flush), and for a batch mixing the two.
func TestAllocBudgetBatchedSend(t *testing.T) {
	payload := make([]byte, 96)
	for i := range payload {
		payload[i] = byte(i)
	}
	block := blockPattern(7)
	pad := []byte{0, 0, 0, 0}
	for _, tc := range []struct {
		name        string
		arena       bool
		flat, chain bool
	}{
		{"flat", true, true, false},
		{"chains", false, false, true},
		{"mixed", true, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, _, dst := udpPair(t)
			b, reg := testBatch(conn, tc.arena)
			defer b.flush()
			// The Chain structs are reused: flush empties them, and a
			// steady-state server gets its own from the reply encoder.
			var chains [16]mbuf.Chain
			var sp metrics.Span
			burst := func() {
				for j := 0; j < 16; j++ {
					sp.Reset(time.Now())
					sp.Stamp(metrics.StageRead)
					sp.Stamp(metrics.StageEncode)
					if tc.chain && (!tc.flat || j%2 == 1) {
						replyShape(&chains[j], payload, block, pad)
						b.addChain(&chains[j], dst, &sp)
						continue
					}
					out := b.scratch()
					out = append(out, payload...)
					b.add(out, dst, &sp)
				}
				b.flush()
			}
			for i := 0; i < 8; i++ { // fill scratch arrays to steady state
				burst()
			}
			got := testing.AllocsPerRun(100, burst)
			t.Logf("batched send, 16-reply burst: %.1f allocs (budget 0)", got)
			if got > 0 && !(raceEnabled && tc.chain) {
				t.Errorf("batched send allocates %.1f per 16-reply burst, want 0", got)
			}
			if v := reg.Counter("m").Value(); v == 0 {
				t.Fatal("batched writer recorded no messages")
			}
			if bt, mt := reg.Counter("b").Value(), reg.Counter("m").Value(); bt >= mt {
				t.Errorf("batches %d >= msgs %d: coalescing never engaged", bt, mt)
			}
			for j := range chains {
				if !chains[j].Empty() {
					t.Fatalf("chain %d still staged after flush", j)
				}
			}
		})
	}
}

// TestAllocBudgetRecordWriter pins the TCP gather send: writing a
// multi-segment reply chain as [record mark, segments…] through one writev
// allocates nothing per reply, and the stream carries mark and segments
// back to back.
func TestAllocBudgetRecordWriter(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	peer, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	hdr := bytes.Repeat([]byte{0x5A}, 96)
	block := blockPattern(9)
	pad := []byte{1, 2, 3, 4}
	record := binary.BigEndian.AppendUint32(nil, 0x80000000|uint32(len(hdr)+len(block)+len(pad)))
	record = append(append(append(record, hdr...), block...), pad...)

	// The peer checks every record it is sent and reports the count.
	const warm, runs = 8, 100
	done := make(chan error, 1)
	go func() {
		got := make([]byte, len(record))
		for i := 0; i < warm+runs+1; i++ { // AllocsPerRun adds one warm-up call
			if _, err := io.ReadFull(peer, got); err != nil {
				done <- err
				return
			}
			if !bytes.Equal(got, record) {
				done <- fmt.Errorf("record %d differs from the chain it was written from", i)
				return
			}
		}
		done <- nil
	}()

	var w recordWriter
	var c mbuf.Chain
	write := func() {
		replyShape(&c, hdr, block, pad)
		if err := w.write(conn, &c); err != nil {
			t.Error(err)
		}
		c.Free()
	}
	for i := 0; i < warm; i++ {
		write()
	}
	got := testing.AllocsPerRun(runs, write)
	t.Logf("TCP record gather write: %.1f allocs per reply (budget 0)", got)
	if got > 0 && !raceEnabled {
		t.Errorf("TCP gather write allocates %.1f per reply, want 0", got)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("peer did not receive every record")
	}
}
