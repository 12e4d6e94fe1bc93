package client

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"renonfs/internal/memfs"
	"renonfs/internal/nfsnet"
	"renonfs/internal/server"
	"renonfs/internal/sim"
	"renonfs/internal/transport"
)

// TestRealSocketCloseToOpen: two Reno mounts with no simulated node, each on
// its own real UDP transport to a loopback server, driven on the wall clock.
// Whatever one mount writes and closes, the other opens and reads back
// byte for byte.
func TestRealSocketCloseToOpen(t *testing.T) {
	srv, err := nfsnet.Serve(server.New(memfs.New(1, nil, nil), server.Reno()), "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	env := sim.New(1)
	defer env.Close()
	var mounts [2]*Mount
	rounds := 0
	env.Spawn("test", func(p *sim.Proc) {
		defer env.Stop()
		for i := range mounts {
			tr, err := transport.DialUDP(env, srv.UDPAddr(), transport.DynamicUDP())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			if mounts[i], err = MountExport(p, nil, tr, "/", Reno()); err != nil {
				t.Errorf("mount: %v", err)
				return
			}
		}
		for r := 0; r < 10; r++ {
			w, rd := mounts[r%2], mounts[1-r%2]
			path := fmt.Sprintf("round%d", r)
			data := pattern(9000 + 1000*r)
			writeFile(t, p, w, path, data)
			if got := readFile(t, p, rd, path); !bytes.Equal(got, data) {
				t.Errorf("round %d: read %d bytes, differing from the %d written", r, len(got), len(data))
				return
			}
			rounds++
		}
		for _, m := range mounts {
			m.Close(p)
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	env.RunWall(ctx)
	if rounds != 10 {
		t.Fatalf("%d of 10 rounds completed", rounds)
	}
}
