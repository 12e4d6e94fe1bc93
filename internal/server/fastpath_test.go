package server

import (
	"bytes"
	"reflect"
	"testing"

	"renonfs/internal/mbuf"
	"renonfs/internal/memfs"
	"renonfs/internal/nfsproto"
	"renonfs/internal/nfstest"
	"renonfs/internal/rpc"
	"renonfs/internal/xdr"
)

// encodeWire flattens one RPC call to the raw datagram bytes the UDP
// readers would peek at.
var encodeWire = nfstest.EncodeWire

// fastReply runs wire through the shallow path. ok=false means it punted
// to the generic path.
func fastReply(t *testing.T, s *Server, peer string, wire []byte) ([]byte, bool) {
	t.Helper()
	var h rpc.PeekedCall
	argOff, okPeek := rpc.PeekCallHeader(wire, &h)
	if !okPeek {
		t.Fatalf("PeekCallHeader refused a well-formed call")
	}
	if !FastEligible(&h) {
		t.Fatalf("proc %d/%d/%d not fast-eligible", h.Prog, h.Vers, h.Proc)
	}
	out := make([]byte, 0, FastReplyMax)
	return s.HandleCallFast(peer, wire, &h, argOff, out, nil)
}

// genericReply runs wire through the full dispatch path.
func genericReply(t *testing.T, s *Server, peer string, wire []byte) []byte {
	t.Helper()
	rep := s.HandleCall(nil, peer, mbuf.FromBytes(wire))
	if rep == nil {
		t.Fatal("generic path returned nil reply")
	}
	b := append([]byte(nil), rep.Bytes()...)
	rep.Free()
	return b
}

// fuzzPeer is a peer tag leases can be granted to (parsePeerNode needs the
// simulator's udp:<node>:<port> form), so hinted seeds reach piggyGrant.
const fuzzPeer = "udp:7:900"

// newFuzzServer builds the differential fixture: a lease-enabled Reno
// server over nfstest's tree (the same handles on every server it makes).
func newFuzzServer(t testing.TB) (*Server, nfstest.Handles) {
	t.Helper()
	fs := memfs.New(1, nil, nil)
	opts := Reno()
	opts.Leases = true
	h, err := nfstest.Tree(fs)
	if err != nil {
		t.Fatal(err)
	}
	return New(fs, opts), h
}

// maxFuzzDatagrams bounds one input's sequence so a fuzz iteration stays
// in the microseconds.
const maxFuzzDatagrams = 64

// packDatagrams frames a datagram sequence as one fuzz input: each datagram
// behind a big-endian uint16 length.
func packDatagrams(dgrams ...[]byte) []byte {
	var out []byte
	for _, d := range dgrams {
		out = append(out, byte(len(d)>>8), byte(len(d)))
		out = append(out, d...)
	}
	return out
}

// unpackDatagrams is packDatagrams' total inverse: any byte string is some
// sequence (a length running past the end takes what is left).
func unpackDatagrams(in []byte) [][]byte {
	var out [][]byte
	for len(in) >= 2 && len(out) < maxFuzzDatagrams {
		n := int(in[0])<<8 | int(in[1])
		in = in[2:]
		if n > len(in) {
			n = len(in)
		}
		out = append(out, in[:n])
		in = in[n:]
	}
	return out
}

// shallowThenGeneric services one datagram the way nfsnet's UDP reader
// does: peek, classify, shallow path, and the generic path for whatever
// the shallow path declines.
func shallowThenGeneric(s *Server, peer string, wire, scratch []byte) []byte {
	var h rpc.PeekedCall
	if argOff, ok := rpc.PeekCallHeader(wire, &h); ok && FastEligible(&h) {
		if rep, ok := s.HandleCallFast(peer, wire, &h, argOff, scratch, nil); ok {
			return rep
		}
	}
	return genericOnly(s, peer, wire)
}

func genericOnly(s *Server, peer string, wire []byte) []byte {
	// HandleCall may keep views of its request; give it a private copy.
	rep := s.HandleCall(nil, peer, mbuf.FromBytes(append([]byte(nil), wire...)))
	if rep == nil {
		return nil
	}
	defer rep.Free()
	return rep.Bytes()
}

// sideEffects is everything observable a datagram sequence leaves behind
// short of the file contents: every registry counter, how many service
// times each histogram took, both caches' statistics, the lease table and
// the mount table.
type sideEffects struct {
	Counters   map[string]int64
	Observed   map[string]int64
	NameCache  any
	BufCache   any
	Leases     int
	Mounts     []nfsproto.MountEntry
	Attributes map[nfsproto.FH]string
}

func observe(s *Server, touched []nfsproto.FH) sideEffects {
	snap := s.Metrics.Snapshot()
	se := sideEffects{
		Counters: snap.Counters, Observed: map[string]int64{},
		NameCache: s.NameCacheStats(), BufCache: s.BufCacheStats(),
		Leases: s.Leases(), Mounts: s.MountsFor(),
		Attributes: map[nfsproto.FH]string{},
	}
	for name, h := range snap.Histograms {
		se.Observed[name] = int64(h.Count)
	}
	// Last, because the follow-up GETATTRs move counters themselves.
	for i, fh := range touched {
		wire := encodeWire(0xfeed0000+uint32(i), nfsproto.Program, nfsproto.Version, nfsproto.ProcGetattr,
			func(e *xdr.Encoder) { (&nfsproto.GetattrArgs{File: fh}).Encode(e) })
		se.Attributes[fh] = string(genericOnly(s, "observer", wire))
	}
	return se
}

// FuzzFastVsGeneric is the differential test that holds the two codecs —
// and the wrappers around the shared procedure cores — together. Two
// identically built servers take the same datagram sequence, A through the
// shallow path with generic fallback, B through the generic path only;
// every reply must match byte for byte and so must everything the sequence
// left behind. The seeds are the cases the hand-kept equivalence test used
// to enumerate (errors, stale handles, negative name cache, truncated and
// cookied READDIR, SETATTR and its replay, READLINK, MNT), so they still
// run under plain go test.
func FuzzFastVsGeneric(f *testing.F) {
	_, h := newFuzzServer(f)
	seeds := nfstest.Seeds(h)
	for _, wire := range seeds {
		f.Add(packDatagrams(wire))
	}
	f.Add(packDatagrams(seeds...)) // and the whole history in order

	f.Fuzz(func(t *testing.T, in []byte) {
		a, h := newFuzzServer(t)
		b, _ := newFuzzServer(t)
		touched := []nfsproto.FH{h.Root, h.File, h.Link, h.Sub}
		scratch := make([]byte, 0, FastReplyMax)
		for i, wire := range unpackDatagrams(in) {
			ra := shallowThenGeneric(a, fuzzPeer, wire, scratch)
			rb := genericOnly(b, fuzzPeer, wire)
			if !bytes.Equal(ra, rb) {
				t.Fatalf("datagram %d (%x): replies diverge\n shallow %x\n generic %x", i, wire, ra, rb)
			}
			var pk rpc.PeekedCall
			if off, ok := rpc.PeekCallHeader(wire, &pk); ok && off+nfsproto.FHSize <= len(wire) {
				var fh nfsproto.FH
				copy(fh[:], wire[off:])
				touched = append(touched, fh)
			}
		}
		if ea, eb := observe(a, touched), observe(b, touched); !reflect.DeepEqual(ea, eb) {
			t.Fatalf("side effects diverge\n shallow %+v\n generic %+v", ea, eb)
		}
	})
}

// TestFastPathDupcacheIndependence pins that the shallow path — which only
// carries idempotent procedures — neither reads nor pollutes the sharded
// dupcache: a fast GETATTR reusing a CREATE's xid must still be serviced
// fresh and byte-identically on both paths, and the cached CREATE reply
// must survive for a real retransmit.
func TestFastPathDupcacheIndependence(t *testing.T) {
	s := newServer()
	root := s.RootFH()
	const peer = "udp:10.0.0.1:700"
	const xid = 777

	createWire := encodeWire(xid, nfsproto.Program, nfsproto.Version, nfsproto.ProcCreate,
		func(e *xdr.Encoder) {
			(&nfsproto.CreateArgs{Where: nfsproto.DiropArgs{Dir: root, Name: "dup-f"},
				Attr: nfsproto.NewSattr()}).Encode(e)
		})
	createRep := genericReply(t, s, peer, createWire)

	// Same xid, same peer, idempotent proc: both paths must run it fresh
	// (never replay the CREATE reply) and agree byte-for-byte.
	fileFH := mustLookup(t, s, root, "dup-f").File
	gaWire := encodeWire(xid, nfsproto.Program, nfsproto.Version, nfsproto.ProcGetattr,
		func(e *xdr.Encoder) { (&nfsproto.GetattrArgs{File: fileFH}).Encode(e) })
	fb, ok := fastReply(t, s, peer, gaWire)
	if !ok {
		t.Fatal("fast path refused GETATTR with a dupcache-resident xid")
	}
	gb := genericReply(t, s, peer, gaWire)
	if !bytes.Equal(fb, gb) {
		t.Errorf("xid-colliding GETATTR diverges:\n fast    %x\n generic %x", fb, gb)
	}
	if bytes.Equal(fb, createRep) {
		t.Error("fast GETATTR replayed the cached CREATE reply")
	}

	// The CREATE's cache entry must be intact: a true retransmit replays it.
	if replay := genericReply(t, s, peer, createWire); !bytes.Equal(replay, createRep) {
		t.Errorf("CREATE retransmit not replayed verbatim after fast-path traffic:\n got  %x\n want %x", replay, createRep)
	}
	if hits := s.cDupHits.Value(); hits == 0 {
		t.Error("CREATE retransmit produced no dupcache hit")
	}
}

// TestFastPathFallbacks pins the no-side-effects punt contract: calls the
// classifier admits but HandleCallFast cannot finish return ok=false with
// zero counter movement, and payload procedures never classify as fast.
func TestFastPathFallbacks(t *testing.T) {
	s := newServer()
	root := s.RootFH()

	for _, proc := range []uint32{nfsproto.ProcRead, nfsproto.ProcWrite,
		nfsproto.ProcCreate, nfsproto.ProcRemove} {
		h := rpc.PeekedCall{Prog: nfsproto.Program, Vers: nfsproto.Version, Proc: proc}
		if FastEligible(&h) {
			t.Errorf("payload proc %d classified fast-eligible", proc)
		}
	}
	h := rpc.PeekedCall{Prog: nfsproto.Program, Vers: nfsproto.Version + 1, Proc: nfsproto.ProcNull}
	if FastEligible(&h) {
		t.Error("wrong-version NULL classified fast-eligible")
	}

	punt := func(label string, wire []byte) {
		t.Helper()
		var h rpc.PeekedCall
		argOff, okPeek := rpc.PeekCallHeader(wire, &h)
		if !okPeek || !FastEligible(&h) {
			t.Fatalf("%s: call did not reach HandleCallFast", label)
		}
		before := s.Metrics.Snapshot().Counters
		rep, ok := s.HandleCallFast("p", wire, &h, argOff, make([]byte, 0, FastReplyMax), nil)
		if ok || rep != nil {
			t.Errorf("%s: fast path serviced a call that must punt", label)
		}
		if after := s.Metrics.Snapshot().Counters; !reflect.DeepEqual(after, before) {
			t.Errorf("%s: punted call moved counters: %v -> %v", label, before, after)
		}
	}

	full := encodeWire(300, nfsproto.Program, nfsproto.Version, nfsproto.ProcLookup,
		func(e *xdr.Encoder) { (&nfsproto.DiropArgs{Dir: root, Name: "f"}).Encode(e) })
	punt("truncated lookup", full[:len(full)-6])
	punt("readdir zero count", encodeWire(301, nfsproto.Program, nfsproto.Version,
		nfsproto.ProcReaddir, func(e *xdr.Encoder) {
			(&nfsproto.ReaddirArgs{Dir: root, Count: 0}).Encode(e)
		}))
	punt("readdir oversized window", encodeWire(302, nfsproto.Program, nfsproto.Version,
		nfsproto.ProcReaddir, func(e *xdr.Encoder) {
			(&nfsproto.ReaddirArgs{Dir: root, Count: nfsproto.MaxData}).Encode(e)
		}))

	// The punted datagrams must still be serviceable by the generic path.
	if rep := genericReply(t, s, "p", full); len(rep) == 0 {
		t.Error("generic path failed the fallback datagram")
	}
}
