package renonfs_test

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"
	"time"

	"renonfs"
	"renonfs/internal/faultplan"
	"renonfs/internal/metrics"
	"renonfs/internal/netsim"
	"renonfs/internal/sim"
	"renonfs/internal/workload"
)

// faultedWireAt pins the packet trace (send, recv, fwd, loss and qdrop, one
// tcpdump-style line each) of a full-mix Nhfsstone run under one seeded
// fault schedule per topology. The golden tables carry no fault, so this is
// the test that holds the wire's reordered and duplicated frames to the
// arrival order they had: a link that delivered a late frame ahead of an
// earlier-due one moves a line here.
var faultedWireAt = map[string]struct {
	seed  int64
	rate  float64
	lines int
	hash  string
}{
	"lan":  {seed: 7, rate: 20, lines: 8604, hash: "8eb93d7118666a2f4f79220a72984a373a5056745861bb38a62b950cf4360ea0"},
	"ring": {seed: 7, rate: 10, lines: 8507, hash: "4c9ece28a7599b749d4cc27cc75816111fa772ceec4bfe28f293dc510a2d4667"},
	"slow": {seed: 7, rate: 1.5, lines: 3450, hash: "61b95a117bcb718d0a341e9e112fc4431b20dbc25bc5fd10a8d00d36395c05d1"},
}

func TestFaultedWireTracePinned(t *testing.T) {
	for _, tc := range chaosTopos {
		pin := faultedWireAt[tc.name]
		t.Run(tc.name, func(t *testing.T) {
			sched := faultplan.Generate(pin.seed, faultplan.Options{Horizon: 2 * time.Minute})
			r := renonfs.NewRig(renonfs.RigConfig{Seed: pin.seed, Topology: tc.topo})
			defer r.Close()
			sched.Apply(r.Net, r.Server)
			h := sha256.New()
			lines, dups := 0, 0
			r.Net.Net.SetTracer(metrics.FuncTracer(func(ev metrics.Event) {
				if pe, ok := ev.(netsim.TraceEvent); ok {
					io.WriteString(h, pe.String()+"\n")
					lines++
				}
			}))
			r.Env.Spawn("bench", func(p *sim.Proc) {
				tr, _ := r.DialTransport(p, renonfs.UDPDynamic)
				nh := &workload.Nhfsstone{
					Cfg: workload.NhfsstoneConfig{
						Mix: workload.FullMix(), Rate: pin.rate, Procs: 4,
						Duration: 70 * time.Second, Warmup: 5 * time.Second,
						NumFiles: 8, FileSize: 8192,
					},
					Tr:   tr,
					Root: r.Server.RootFH(),
				}
				if err := nh.Preload(p); err == nil {
					nh.Run(p)
				}
			})
			r.Env.Run(sched.Horizon)
			for _, l := range r.Net.Net.Links() {
				dups += l.Stat.FaultDups
			}
			if dups == 0 {
				t.Errorf("schedule %s duplicated no frame", sched)
			}
			got := hex.EncodeToString(h.Sum(nil))
			if lines != pin.lines || got != pin.hash {
				t.Errorf("packet trace: %d lines, sha256 %s; pinned %d lines, %s",
					lines, got, pin.lines, pin.hash)
			}
		})
	}
}
