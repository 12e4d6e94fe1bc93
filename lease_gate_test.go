package renonfs_test

// The bench-smoke regression gate for the lease fast path: §5's most
// dramatic number is Create-Delete of a 100 KB file, where full
// consistency (push-on-close) pays every data block synchronously before
// close returns and the "no consistency" mount bounds the win at about
// 7x. Leases must buy most of that bound back while staying coherent —
// this gate fails CI if the leased run drops below 3x the full-consistency
// time, drifts past 2x the no-consistency bound, or starts paying write
// RPCs the no-consistency mount does not (write-behind parity is the whole
// point of the write lease). Simulated time makes this a deterministic
// comparison, not a wall-clock one.

import (
	"testing"
	"time"

	"renonfs"
	"renonfs/internal/client"
	"renonfs/internal/nfsproto"
	"renonfs/internal/server"
	"renonfs/internal/sim"
	"renonfs/internal/workload"
)

// leaseGateRow is one rung of the Create-Delete ladder.
type leaseGateRow struct {
	MeanMS    float64
	WriteRPCs int
}

// runLeaseGateRung runs the 100 KB Create-Delete workload under one
// (server, client) pairing and reports its mean latency and RPC bill.
func runLeaseGateRung(t *testing.T, seed int64, iters int, srv server.Options, opts client.Options) leaseGateRow {
	t.Helper()
	rig := renonfs.NewRig(renonfs.RigConfig{
		Seed: seed, Topology: renonfs.TopoLAN,
		ServerOpts: srv, ServerDisk: true,
	})
	defer rig.Close()
	var row leaseGateRow
	ok := false
	rig.Env.Spawn("cd", func(p *sim.Proc) {
		m, err := rig.Mount(p, renonfs.UDPDynamic, opts)
		if err != nil {
			t.Errorf("%s: mount: %v", opts.Name, err)
			return
		}
		res, err := workload.RunCreateDelete(p, workload.MountFS{M: m}, opts.Name, 100*1024, iters)
		if err != nil {
			t.Errorf("%s: create-delete: %v", opts.Name, err)
			return
		}
		row.MeanMS = res.MeanMS
		row.WriteRPCs = m.Stats.RPCCount(nfsproto.ProcWrite)
		ok = true
	})
	rig.Env.Run(4 * time.Hour)
	if !ok {
		t.Fatalf("%s: create-delete rung did not finish", opts.Name)
	}
	return row
}

func TestLeaseCreateDeleteGate(t *testing.T) {
	const iters = 8
	full := runLeaseGateRung(t, 1, iters, server.Reno(), client.Reno())
	leased := runLeaseGateRung(t, 2, iters, renonfs.LeaseServer(), renonfs.LeaseClient())
	unsafe := runLeaseGateRung(t, 3, iters, server.Reno(), client.RenoNoConsist())

	t.Logf("Create-Delete 100KB: full %.0f ms (%d write RPCs), leased %.0f ms (%d), noconsist %.0f ms (%d)",
		full.MeanMS, full.WriteRPCs, leased.MeanMS, leased.WriteRPCs, unsafe.MeanMS, unsafe.WriteRPCs)

	if leased.MeanMS*3 > full.MeanMS {
		t.Errorf("leased Create-Delete %.0f ms is not 3x faster than full consistency's %.0f ms",
			leased.MeanMS, full.MeanMS)
	}
	if leased.MeanMS > 2*unsafe.MeanMS {
		t.Errorf("leased Create-Delete %.0f ms fell past 2x the no-consistency bound %.0f ms",
			leased.MeanMS, unsafe.MeanMS)
	}
	if leased.WriteRPCs != unsafe.WriteRPCs {
		t.Errorf("leased run paid %d write RPCs, no-consistency paid %d: write-behind parity lost",
			leased.WriteRPCs, unsafe.WriteRPCs)
	}
}
