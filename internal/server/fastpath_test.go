package server

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
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

// byteReply runs wire through the byte entry, into a FastReplyMax scratch.
func byteReply(t *testing.T, s *Server, peer string, wire []byte) ([]byte, bool) {
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

// chainReply runs wire through the chain entry.
func chainReply(t *testing.T, s *Server, peer string, wire []byte) []byte {
	t.Helper()
	rep := s.HandleCall(nil, peer, mbuf.FromBytes(wire))
	if rep == nil {
		t.Fatal("chain entry returned nil reply")
	}
	b := append([]byte(nil), rep.Bytes()...)
	rep.Free()
	return b
}

// fuzzPeer is a peer tag leases can be granted to (parsePeerNode needs the
// simulator's udp:<node>:<port> form), so hinted seeds reach piggyGrant.
const fuzzPeer = "udp:7:900"

// fixture is nfstest's tree plus a directory of long names whose listing
// passes 2 KB and a symlink with a long target: a name or target longer
// than an mbuf lands in a cluster of the reply chain.
type fixture struct {
	nfstest.Handles
	Long, LongLink nfsproto.FH
}

// newFuzzServer builds the differential fixture: a lease-enabled Reno
// server over the fixture tree (the same handles on every server it makes).
func newFuzzServer(t testing.TB) (*Server, fixture) {
	t.Helper()
	fs := memfs.New(1, nil, nil)
	opts := Reno()
	opts.Leases = true
	h, err := nfstest.Tree(fs)
	if err != nil {
		t.Fatal(err)
	}
	long, err := fs.Mkdir(nil, fs.Root(), "long", 0755)
	for i := 0; err == nil && i < 12; i++ {
		_, err = fs.Create(nil, long, fmt.Sprintf("%02d-%s", i, strings.Repeat("n", 197)), 0644)
	}
	if err != nil {
		t.Fatal(err)
	}
	ln, err := fs.Symlink(nil, fs.Root(), "longln", strings.Repeat("t/", 150), 0777)
	if err != nil {
		t.Fatal(err)
	}
	return New(fs, opts), fixture{h, fs.FH(long), fs.FH(ln)}
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

// byteThenChain services one datagram the way nfsnet's UDP reader does:
// peek, classify, then the byte entry for an eligible call, which must
// serve it, and the chain entry for the rest.
func byteThenChain(t *testing.T, s *Server, peer string, wire, scratch []byte) []byte {
	var h rpc.PeekedCall
	if argOff, ok := rpc.PeekCallHeader(wire, &h); ok && FastEligible(&h) {
		rep, ok := s.HandleCallFast(peer, wire, &h, argOff, scratch, nil)
		if !ok {
			t.Fatalf("byte entry refused an eligible call %x", wire)
		}
		return rep
	}
	return chainOnly(s, peer, wire)
}

func chainOnly(s *Server, peer string, wire []byte) []byte {
	rep := s.HandleCall(nil, peer, mbuf.FromBytes(wire)) // a copy: HandleCall may keep views
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
		se.Attributes[fh] = string(chainOnly(s, "observer", wire))
	}
	return se
}

// FuzzFastVsGeneric holds the server's two entries into the one wrapper
// of each header-only procedure together: the fast (byte) entry,
// HandleCallFast, decoding from the datagram and encoding into its
// FastReplyMax scratch, and the generic (chain) entry,
// HandleCall, gathering the arguments out of a request chain from the
// offset its own header decode reached and laying the reply back into a
// chain. Two identically built servers take the same datagram sequence, A
// through the byte entry for every eligible call as nfsnet's readers do it, B
// through the chain entry only; every reply must match byte for byte and
// so must everything the sequence left behind. The seeds — errors, stale
// handles, the negative name cache, truncated and cookied READDIR, SETATTR
// and its replay, READLINK, MNT, then TestHeaderOnlyEdgesPinned's cases —
// run under plain go test.
func FuzzFastVsGeneric(f *testing.F) {
	_, h := newFuzzServer(f)
	seeds := nfstest.Seeds(h.Handles)
	for _, wire := range seeds {
		f.Add(packDatagrams(wire))
	}
	f.Add(packDatagrams(seeds...)) // and the whole history in order
	for _, edge := range edges(h) {
		f.Add(packDatagrams(edge.wires...))
	}

	f.Fuzz(func(t *testing.T, in []byte) {
		a, h := newFuzzServer(t)
		b, _ := newFuzzServer(t)
		touched := []nfsproto.FH{h.Root, h.File, h.Link, h.Sub, h.Long, h.LongLink}
		scratch := make([]byte, 0, FastReplyMax)
		for i, wire := range unpackDatagrams(in) {
			ra := byteThenChain(t, a, fuzzPeer, wire, scratch)
			rb := chainOnly(b, fuzzPeer, wire)
			if !bytes.Equal(ra, rb) {
				t.Fatalf("datagram %d (%x): replies diverge\n byte  %x\n chain %x", i, wire, ra, rb)
			}
			var pk rpc.PeekedCall
			if off, ok := rpc.PeekCallHeader(wire, &pk); ok && off+nfsproto.FHSize <= len(wire) {
				var fh nfsproto.FH
				copy(fh[:], wire[off:])
				touched = append(touched, fh)
			}
		}
		if ea, eb := observe(a, touched), observe(b, touched); !reflect.DeepEqual(ea, eb) {
			t.Fatalf("side effects diverge\n byte  %+v\n chain %+v", ea, eb)
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
	createRep := chainReply(t, s, peer, createWire)

	// Same xid, same peer, idempotent proc: both paths must run it fresh
	// (never replay the CREATE reply) and agree byte-for-byte.
	fileFH := mustLookup(t, s, root, "dup-f").File
	gaWire := encodeWire(xid, nfsproto.Program, nfsproto.Version, nfsproto.ProcGetattr,
		func(e *xdr.Encoder) { (&nfsproto.GetattrArgs{File: fileFH}).Encode(e) })
	fb, ok := byteReply(t, s, peer, gaWire)
	if !ok {
		t.Fatal("fast path refused GETATTR with a dupcache-resident xid")
	}
	gb := chainReply(t, s, peer, gaWire)
	if !bytes.Equal(fb, gb) {
		t.Errorf("xid-colliding GETATTR diverges:\n fast    %x\n generic %x", fb, gb)
	}
	if bytes.Equal(fb, createRep) {
		t.Error("fast GETATTR replayed the cached CREATE reply")
	}

	// The CREATE's cache entry must be intact: a true retransmit replays it.
	if replay := chainReply(t, s, peer, createWire); !bytes.Equal(replay, createRep) {
		t.Errorf("CREATE retransmit not replayed verbatim after fast-path traffic:\n got  %x\n want %x", replay, createRep)
	}
	if hits := s.cDupHits.Value(); hits == 0 {
		t.Error("CREATE retransmit produced no dupcache hit")
	}
}

// TestFastPathFallbacks pins that nothing eligible falls back: payload
// procedures never classify as fast, a READDIR of the largest window is
// served in the caller's FastReplyMax room as the chain entry serves it,
// and truncated arguments are answered.
func TestFastPathFallbacks(t *testing.T) {
	fs := memfs.New(1, nil, nil)
	big, err := fs.Mkdir(nil, fs.Root(), "big", 0755)
	for i := 0; err == nil && i < 600; i++ { // a listing past MaxData
		_, err = fs.Create(nil, big, fmt.Sprintf("n%04d", i), 0644)
	}
	if err != nil {
		t.Fatal(err)
	}
	s := New(fs, Reno())
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

	served := func(label string, wire []byte) {
		t.Helper()
		var h rpc.PeekedCall
		argOff, okPeek := rpc.PeekCallHeader(wire, &h)
		if !okPeek || !FastEligible(&h) {
			t.Fatalf("%s: call did not reach HandleCallFast", label)
		}
		out := make([]byte, 0, FastReplyMax)
		rep, ok := s.HandleCallFast("p", wire, &h, argOff, out, nil)
		if !ok || len(rep) == 0 {
			t.Fatalf("%s: byte entry did not serve it (ok=%v, %d bytes)", label, ok, len(rep))
		}
		if want := chainReply(t, s, "p", wire); !bytes.Equal(rep, want) {
			t.Errorf("%s: byte entry's %d-byte reply differs from the chain entry's %d bytes", label, len(rep), len(want))
		}
		if cap(rep) != cap(out) || &rep[:1][0] != &out[:1][0] {
			t.Errorf("%s: reply left the caller's buffer (cap %d, want %d)", label, cap(rep), cap(out))
		}
	}
	for _, count := range []uint32{0, nfsproto.MaxData} {
		served(fmt.Sprintf("readdir count %d", count), encodeWire(301+count, nfsproto.Program, nfsproto.Version,
			nfsproto.ProcReaddir, func(e *xdr.Encoder) {
				(&nfsproto.ReaddirArgs{Dir: fs.FH(big), Count: count}).Encode(e)
			}))
	}

	// Truncated arguments are answered: GARBAGE_ARGS, as the chain entry
	// answers them.
	full := encodeWire(300, nfsproto.Program, nfsproto.Version, nfsproto.ProcLookup,
		func(e *xdr.Encoder) { (&nfsproto.DiropArgs{Dir: root, Name: "f"}).Encode(e) })
	if rep, ok := byteReply(t, s, "p", full[:len(full)-6]); !ok || !bytes.Equal(rep, chainReply(t, s, "p", full[:len(full)-6])) {
		t.Errorf("truncated lookup: byte entry answered %x (ok=%v), not the chain entry's GARBAGE_ARGS", rep, ok)
	}
}
