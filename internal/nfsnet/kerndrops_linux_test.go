//go:build linux && (amd64 || arm64 || riscv64 || loong64 || arm)

package nfsnet

import (
	"net"
	"testing"
	"time"

	"renonfs/internal/memfs"
	"renonfs/internal/nfsproto"
	"renonfs/internal/server"
)

// TestKernelDropsCounted: with the quiesce gate held, the lone reader
// stalls on its first GETATTR and a 4 KB receive buffer fills behind it, so
// the kernel drops most of a 200-datagram burst. Once the gate opens and
// the reader has drained the queue, every datagram sent is accounted for:
// read by the reader or counted in rpc.udp.kernel_drops, none twice.
func TestKernelDropsCounted(t *testing.T) {
	const sent = 200
	opts := server.Reno()
	opts.NFSDs = 1
	opts.Readers = 1
	srv := server.New(memfs.New(1, nil, nil), opts)
	s, err := Serve(srv, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.socks[0].SetReadBuffer(4096); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("udp", s.UDPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	s.crashMu.Lock()
	for i := range sent {
		if _, err := conn.Write(encodeGetattr(uint32(i+1), nfsproto.FH{})); err != nil {
			s.crashMu.Unlock()
			t.Fatal(err)
		}
	}
	s.crashMu.Unlock()

	reads := srv.Metrics.Counter("rpc.reader.0.reads")
	for last, still := int64(-1), 0; still < 4; {
		time.Sleep(50 * time.Millisecond)
		if n := reads.Value(); n != last {
			last, still = n, 0
		} else {
			still++
		}
	}
	s.PublishStats()
	n, drops := reads.Value(), srv.Metrics.Counter("rpc.udp.kernel_drops").Value()
	t.Logf("sent %d, read %d, kernel drops %d", sent, n, drops)
	if drops == 0 {
		t.Errorf("no kernel drop counted behind a stalled reader (%d of %d read)", n, sent)
	}
	if n+drops != sent {
		t.Errorf("%d reads + %d kernel drops != %d datagrams sent", n, drops, sent)
	}
}
