package server

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"renonfs/internal/mbuf"
	"renonfs/internal/memfs"
	"renonfs/internal/netsim"
	"renonfs/internal/nfsproto"
	"renonfs/internal/rpc"
	"renonfs/internal/sim"
	"renonfs/internal/xdr"
)

// TestDuplicatedRequestServedTwice: a fault that sends every frame to the
// server twice hands the nfsd pool one request chain twice. The nfsd must
// keep that chain after the first call (job.keep), so both copies are
// served and the client reads two identical replies; freeing it after the
// first leaves the second an empty call that draws no reply.
func TestDuplicatedRequestServedTwice(t *testing.T) {
	env := sim.New(1)
	defer env.Close()
	tb := netsim.Build(env, netsim.TopoLAN, netsim.NodeConfig{}, netsim.NodeConfig{})
	s := New(memfs.New(1, nil, nil), Reno())
	s.AttachNode(tb.Server)
	s.ServeUDP(NFSPort)
	for _, l := range tb.Net.Links() {
		if l.To().ID == tb.Server.ID {
			l.SetFault(func(sim.Time, *rand.Rand) netsim.FaultVerdict {
				return netsim.FaultVerdict{Duplicate: true}
			})
		}
	}
	var replies [][]byte
	env.Spawn("client", func(p *sim.Proc) {
		sock := tb.Client.UDPSocket(3001)
		call := &mbuf.Chain{}
		rpc.EncodeCall(call, &rpc.Call{XID: 7, Prog: nfsproto.Program, Vers: nfsproto.Version, Proc: nfsproto.ProcGetattr})
		(&nfsproto.GetattrArgs{File: s.RootFH()}).Encode(xdr.NewEncoder(call))
		sock.Send(p, tb.Server.ID, NFSPort, call)
		for {
			dg, ok := sock.RecvTimeout(p, time.Second)
			if !ok {
				return
			}
			replies = append(replies, dg.Payload.Bytes())
		}
	})
	env.Run(10 * time.Second)
	if len(replies) != 2 || !bytes.Equal(replies[0], replies[1]) {
		t.Fatalf("%d replies to a GETATTR delivered twice, want 2 identical", len(replies))
	}
}
