package server

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"renonfs/internal/mbuf"
	"renonfs/internal/memfs"
	"renonfs/internal/nfsproto"
	"renonfs/internal/rpc"
	"renonfs/internal/xdr"
)

// TestLeaseCallbackStormRace hammers the lease table from many peers at
// once, the way a real-socket frontend's dispatcher pool does: every
// goroutine fights over one shared file's write lease (grant, TRYLATER,
// eviction collection, vacate) while also renewing a private lease through
// the piggyback path on its WRITE traffic. Run with -race: the point is
// that leaseMu covers every touch of the table and that eviction
// collection under the lock composes with the lock-free send (a nil
// callback socket makes sendEviction a no-op, which is exactly the
// frontend's state before ServeUDP wires one). A hinted GETATTR and a
// READDIR per round take the chain entry's flat wrapper concurrently.
func TestLeaseCallbackStormRace(t *testing.T) {
	fs := memfs.New(1, nil, nil)
	opts := Reno()
	opts.Leases = true
	opts.LeaseDuration = 10 * time.Second
	s := New(fs, opts)
	s.EnableConcurrentDispatch()
	shared := mustCreate(t, s, s.RootFH(), "storm-shared")

	const peers = 8
	const rounds = 200
	var granted, refused atomic.Int64
	var xids atomic.Uint32
	xids.Store(50000)

	call := func(peer string, proc uint32, args func(e *xdr.Encoder)) *xdr.Decoder {
		req := &mbuf.Chain{}
		rpc.EncodeCall(req, &rpc.Call{
			XID: xids.Add(1), Prog: nfsproto.Program,
			Vers: nfsproto.Version, Proc: proc,
		})
		args(xdr.NewEncoder(req))
		rep := s.HandleCall(nil, peer, req)
		req.Free()
		if rep == nil {
			return nil
		}
		d := xdr.NewDecoder(rep)
		if _, err := rpc.DecodeReply(d); err != nil {
			return nil
		}
		return d
	}

	privates := make([]nfsproto.FH, peers)
	for i := range privates {
		privates[i] = mustCreate(t, s, s.RootFH(), "storm-private-"+string(rune('a'+i)))
	}

	var wg sync.WaitGroup
	for i := 0; i < peers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			peer := "udp:" + string(rune('1'+id)) + ":9001"
			private := privates[id]
			data := make([]byte, 512)
			for r := 0; r < rounds; r++ {
				// Contend for the shared file's write lease.
				d := call(peer, nfsproto.ProcLease, func(e *xdr.Encoder) {
					(&nfsproto.LeaseArgs{
						File: shared, Mode: nfsproto.LeaseWrite,
						Duration: 10, CallbackPort: 9001,
					}).Encode(e)
				})
				if d == nil {
					t.Error("lease call dropped")
					return
				}
				res, err := nfsproto.DecodeLeaseRes(d)
				if err != nil {
					t.Errorf("peer %s: %v", peer, err)
					return
				}
				switch res.Status {
				case nfsproto.OK:
					granted.Add(1)
					call(peer, nfsproto.ProcVacated, func(e *xdr.Encoder) {
						(&nfsproto.VacatedArgs{File: shared}).Encode(e)
					})
				case nfsproto.ErrTryLater:
					refused.Add(1)
				default:
					t.Errorf("peer %s: lease status %v", peer, res.Status)
					return
				}
				// Keep the private file's write lease alive via the
				// piggyback path, racing piggyGrant against leaseCall.
				call(peer, nfsproto.ProcWrite, func(e *xdr.Encoder) {
					(&nfsproto.WriteArgs{File: private, Data: mbuf.FromBytes(data)}).Encode(e)
					(&nfsproto.LeaseHint{
						Mode: nfsproto.LeaseWrite, Duration: 10, CallbackPort: 9001,
					}).Encode(e)
				})
				// The header-only procedures reach their flat wrapper from
				// every goroutine at once, each call with its own scratch.
				d = call(peer, nfsproto.ProcGetattr, func(e *xdr.Encoder) {
					(&nfsproto.GetattrArgs{File: private}).Encode(e)
					(&nfsproto.LeaseHint{Mode: nfsproto.LeaseWrite, Duration: 10, CallbackPort: 9001}).Encode(e)
				})
				if ga, err := nfsproto.DecodeAttrRes(d); err != nil || ga.Status != nfsproto.OK {
					t.Errorf("peer %s: getattr of its own file: %v", peer, err)
					return
				}
				d = call(peer, nfsproto.ProcReaddir, func(e *xdr.Encoder) {
					(&nfsproto.ReaddirArgs{Dir: s.RootFH()}).Encode(e)
				})
				if rd, err := nfsproto.DecodeReaddirRes(d); err != nil || len(rd.Entries) != peers+3 {
					t.Errorf("peer %s: readdir of the root: %v", peer, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	if granted.Load() == 0 {
		t.Error("no write lease was ever granted under the storm")
	}
	// How much the goroutines actually overlapped is the scheduler's
	// business; the conflict path itself is checked deterministically below.
	t.Logf("storm: %d grants, %d TRYLATER refusals", granted.Load(), refused.Load())

	// With the storm drained, one holder and one challenger must produce
	// exactly the grant-then-refuse sequence.
	d := call("udp:1:9001", nfsproto.ProcLease, func(e *xdr.Encoder) {
		(&nfsproto.LeaseArgs{
			File: shared, Mode: nfsproto.LeaseWrite,
			Duration: 10, CallbackPort: 9001,
		}).Encode(e)
	})
	if res, err := nfsproto.DecodeLeaseRes(d); err != nil || res.Status != nfsproto.OK {
		t.Fatalf("post-storm grant = %v / %v", res.Status, err)
	}
	d = call("udp:2:9001", nfsproto.ProcLease, func(e *xdr.Encoder) {
		(&nfsproto.LeaseArgs{
			File: shared, Mode: nfsproto.LeaseWrite,
			Duration: 10, CallbackPort: 9001,
		}).Encode(e)
	})
	if res, err := nfsproto.DecodeLeaseRes(d); err != nil || res.Status != nfsproto.ErrTryLater {
		t.Fatalf("conflicting request = %v / %v, want ErrTryLater", res.Status, err)
	}
}
