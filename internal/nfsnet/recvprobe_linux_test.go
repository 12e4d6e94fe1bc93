//go:build linux

package nfsnet

import (
	"bytes"
	"fmt"
	"net"
	"net/netip"
	"testing"
	"time"

	"renonfs/internal/metrics"
)

// TestRecvProbe pins the drain probe's contract: queued datagrams come
// back with their payload and true source, an empty queue answers
// immediately (never parking for the batch window), and the whole probe
// path allocates nothing after the first call.
func TestRecvProbe(t *testing.T) {
	srv, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	dst := srv.LocalAddr().(*net.UDPAddr)

	var probe recvProbe
	reg := metrics.NewRegistry()
	stats := metrics.NewStageStats(reg, metrics.DefaultSlowSpans)
	b := newSendBatch(srv, true, reg.Counter("b"), reg.Counter("m"), stats)

	// The future deadline a real reader would have armed before its
	// blocking read; the probe must not be confused by it.
	srv.SetReadDeadline(time.Now().Add(readerPoll))

	payload := []byte("probe-me")
	if _, err := cl.WriteToUDP(payload, dst); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	var pkt []byte
	var ok bool
	for {
		var src netip.AddrPort
		if pkt, src, ok = drainRead(srv, &probe, b); ok {
			if !bytes.Equal(pkt, payload) {
				t.Fatalf("probe read %q, want %q", pkt, payload)
			}
			want := cl.LocalAddr().(*net.UDPAddr)
			if int(src.Port()) != want.Port || !src.Addr().Is4() {
				t.Fatalf("probe source = %v, want %v", src, want)
			}
			break
		}
		// The datagram may not have landed in the socket queue yet.
		if time.Now().After(deadline) {
			t.Fatal("queued datagram never became probe-readable")
		}
		time.Sleep(time.Millisecond)
	}

	// Empty queue: the probe must answer false without parking. Allow a
	// generous bound — the failure mode being excluded is a batchPoll (or
	// readerPoll) park, orders of magnitude larger.
	start := time.Now()
	if _, _, ok = drainRead(srv, &probe, b); ok {
		t.Fatal("probe read a datagram from an empty queue")
	}
	if el := time.Since(start); el > 100*time.Millisecond {
		t.Fatalf("empty-queue probe took %v; want immediate return", el)
	}

	if sysRecvmmsg != 0 {
		avg := testing.AllocsPerRun(100, func() { drainRead(srv, &probe, b) })
		if avg != 0 {
			t.Fatalf("empty-queue probe allocates %.1f/op, want 0", avg)
		}
	}
}

// TestRecvProbeBatch pins the recvmmsg amortization: a backlog queued
// before the first fill comes back in order, in fewer kernel crossings
// than datagrams: one fill delivers more than one of them.
func TestRecvProbeBatch(t *testing.T) {
	if sysRecvmmsg == 0 {
		t.Skip("no recvmmsg on this arch")
	}
	srv, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	dst := srv.LocalAddr().(*net.UDPAddr)

	var probe recvProbe
	reg := metrics.NewRegistry()
	stats := metrics.NewStageStats(reg, metrics.DefaultSlowSpans)
	b := newSendBatch(srv, true, reg.Counter("b"), reg.Counter("m"), stats)

	const msgs = 5
	for i := 0; i < msgs; i++ {
		if _, err := cl.WriteToUDP([]byte(fmt.Sprintf("dgram-%d", i)), dst); err != nil {
			t.Fatal(err)
		}
	}
	// Let the backlog settle into the socket queue so the first fill sees
	// it whole.
	time.Sleep(100 * time.Millisecond)

	got, largestFill := 0, 0
	deadline := time.Now().Add(2 * time.Second)
	for got < msgs {
		pkt, _, ok := drainRead(srv, &probe, b)
		if !ok {
			if time.Now().After(deadline) {
				t.Fatalf("drained %d/%d queued datagrams", got, msgs)
			}
			time.Sleep(time.Millisecond)
			continue
		}
		if want := fmt.Sprintf("dgram-%d", got); string(pkt) != want {
			t.Fatalf("datagram %d = %q, want %q (UDP socket queues are FIFO)", got, pkt, want)
		}
		largestFill = max(largestFill, probe.got)
		got++
	}
	if largestFill < 2 {
		t.Errorf("largest recvmmsg fill = %d datagrams after a %d-datagram backlog, want >= 2", largestFill, msgs)
	}
}
