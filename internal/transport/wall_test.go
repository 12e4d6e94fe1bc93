package transport

import (
	"context"
	"testing"
	"time"

	"renonfs/internal/memfs"
	"renonfs/internal/nfsnet"
	"renonfs/internal/nfsproto"
	"renonfs/internal/server"
	"renonfs/internal/sim"
	"renonfs/internal/xdr"
)

// TestRealSocketRetransmits: a loopback server that drops every request for
// half a second makes the tuned transport's A+4D READ timers expire on a
// real socket, and every call still completes once the server is back.
func TestRealSocketRetransmits(t *testing.T) {
	fs := memfs.New(1, nil, nil)
	f, err := fs.Create(nil, fs.Root(), "f", 0644)
	if err != nil {
		t.Fatal(err)
	}
	fs.WriteAt(nil, f, 0, make([]byte, nfsproto.MaxData), 0)
	srv, err := nfsnet.Serve(server.New(fs, server.Reno()), "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	env := sim.New(1)
	defer env.Close()
	tr, err := DialUDP(env, srv.UDPAddr(), DynamicUDP())
	if err != nil {
		t.Fatal(err)
	}
	fh := fs.FH(f)
	const callers, calls = 4, 40
	done, failed := 0, 0
	for i := 0; i < callers; i++ {
		env.Spawn("reader", func(p *sim.Proc) {
			for j := 0; j < calls; j++ {
				p.Sleep(25 * time.Millisecond)
				d, err := tr.Call(p, nfsproto.ProcRead, func(e *xdr.Encoder) {
					(&nfsproto.ReadArgs{File: fh, Count: nfsproto.MaxData}).Encode(e)
				})
				if err == nil {
					_, err = nfsproto.DecodeReadRes(d)
				}
				if err != nil {
					failed++
				}
			}
			if done++; done == callers {
				env.Stop()
			}
		})
	}
	env.At(400*time.Millisecond, func() { srv.SetDown(true) })
	env.At(900*time.Millisecond, func() { srv.SetDown(false) })
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	env.RunWall(ctx)
	s := tr.Stats()
	if done != callers || failed != 0 || s.Failures != 0 {
		t.Fatalf("%d of %d callers done, %d calls failed (transport: %d)", done, callers, failed, s.Failures)
	}
	if s.Retries == 0 || s.RetryClass[ClassRead] == 0 {
		t.Fatalf("no READ retransmission across the outage: %+v", *s)
	}
	if s.Replies < callers*calls {
		t.Fatalf("%d replies for %d calls", s.Replies, callers*calls)
	}
	tr.Close()
}
