package server

import (
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
// first leaves the second an empty call that draws no reply, or — for a
// READ, whose arguments an nfsd decodes from the chain after its dispatch
// charge — recycled storage that draws GARBAGE_ARGS.
func TestDuplicatedRequestServedTwice(t *testing.T) {
	env := sim.New(1)
	defer env.Close()
	tb := netsim.Build(env, netsim.TopoLAN, netsim.NodeConfig{}, netsim.NodeConfig{})
	fs := memfs.New(1, nil, nil)
	f, err := fs.Create(nil, fs.Root(), "f", 0644)
	if err == nil {
		err = fs.WriteAt(nil, f, 0, []byte("duplicated"), 0)
	}
	if err != nil {
		t.Fatal(err)
	}
	s := New(fs, Reno())
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
		rpc.EncodeCall(call, &rpc.Call{XID: 7, Prog: nfsproto.Program, Vers: nfsproto.Version, Proc: nfsproto.ProcRead})
		(&nfsproto.ReadArgs{File: fs.FH(f), Count: 512}).Encode(xdr.NewEncoder(call))
		sock.Send(p, tb.Server.ID, NFSPort, call)
		for {
			dg, ok := sock.Recv(p)
			if !ok {
				return
			}
			replies = append(replies, dg.Payload.Bytes())
		}
	})
	env.Run(10 * time.Second)
	if len(replies) != 2 {
		t.Fatalf("%d replies to a READ delivered twice, want 2", len(replies))
	}
	for i, rep := range replies { // the two differ only in the file's atime
		d := xdr.NewDecoder(mbuf.FromBytes(rep))
		if _, err := rpc.DecodeReply(d); err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if res, err := nfsproto.DecodeReadRes(d); err != nil || string(res.Data.Bytes()) != "duplicated" {
			t.Errorf("reply %d: %+v, %v; want the file's bytes", i, res, err)
		}
	}
}
