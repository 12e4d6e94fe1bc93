package nfsnet

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"renonfs/internal/mbuf"
	"renonfs/internal/memfs"
	"renonfs/internal/nfsproto"
	"renonfs/internal/nfstest"
	"renonfs/internal/rpc"
	"renonfs/internal/server"
	"renonfs/internal/xdr"
)

// aliasRig is one server of the buffer-aliasing differential and a bare
// socket speaking to it.
type aliasRig struct {
	name string
	h    nfstest.Handles
	core *server.Server
	s    *Server
	conn net.Conn
	tcp  bool
	buf  []byte
}

func newAliasRig(t *testing.T, name string, readers int, shared, tcp bool) *aliasRig {
	t.Helper()
	fs := memfs.New(1, nil, nil)
	h, err := nfstest.Tree(fs)
	if err != nil {
		t.Fatal(err)
	}
	opts := server.Reno()
	opts.Leases = true
	opts.Readers = readers
	opts.NoReusePort = shared
	r := &aliasRig{name: name, h: h, core: server.New(fs, opts), tcp: tcp, buf: make([]byte, 65536)}
	if r.s, err = Serve(r.core, "127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.s.Close)
	if tcp {
		r.conn, err = net.Dial("tcp", r.s.TCPAddr())
	} else {
		r.conn, err = net.Dial("udp", r.s.UDPAddr())
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.conn.Close() })
	return r
}

// call sends one pre-encoded call and returns a copy of its reply.
func (r *aliasRig) call(t *testing.T, wire []byte) []byte {
	t.Helper()
	r.conn.SetDeadline(time.Now().Add(5 * time.Second))
	if !r.tcp {
		if _, err := r.conn.Write(wire); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		n, err := r.conn.Read(r.buf)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		return append([]byte(nil), r.buf[:n]...)
	}
	if _, err := r.conn.Write(mark(wire)); err != nil {
		t.Fatalf("%s: %v", r.name, err)
	}
	return append([]byte(nil), readRecord(t, r.conn, r.buf)...)
}

// TestServedInPlaceLeavesNoAlias is the soundness test of serving a request
// out of the buffer it was read into (dispatchInPlace): nothing the core
// keeps — dupcache entry, name-cache key, directory entry, symlink target,
// file block, mount table row — and no reply, staged or sent, may point
// into that buffer. With scribbleServed armed every such buffer turns to
// 0xA5 the instant its dispatch — generic or shallow — returns. The same
// history then goes, call by call, to a UDP server that serves inline, to a
// TCP connection, and to a reference whose readers share one socket and
// therefore copy every datagram into mbufs and hand it to the pool; every
// reply must match the reference byte for byte, the follow-up reads
// included. The history is FuzzFastVsGeneric's corpus followed by every
// procedure that carries data or names into the server's state, each
// non-idempotent one retransmitted.
func TestServedInPlaceLeavesNoAlias(t *testing.T) {
	scribbleServed = true
	t.Cleanup(func() { scribbleServed = false }) // registered first: runs after the servers have closed
	ref := newAliasRig(t, "copying reference", 2, true, false)
	if !ref.s.fastOff {
		t.Fatal("reference server serves inline; it must copy and spill")
	}
	rigs := []*aliasRig{
		newAliasRig(t, "inline udp", 1, false, false),
		newAliasRig(t, "tcp", 1, false, true),
	}
	step, eligible := 0, int64(0)
	run := func(what string, wire []byte) []byte {
		t.Helper()
		step++
		var pk rpc.PeekedCall
		if _, ok := fastEligible(wire, &pk); ok {
			eligible++
		}
		want := ref.call(t, wire)
		for _, r := range rigs {
			if got := r.call(t, wire); !bytes.Equal(got, want) {
				t.Fatalf("step %d (%s): %s reply diverges from the %s\n got  %x\n want %x",
					step, what, r.name, ref.name, got, want)
			}
		}
		return want
	}
	// twice sends a non-idempotent call and its retransmission: the second
	// reply comes out of the dupcache, which must not have kept request bytes.
	twice := func(what string, wire []byte) []byte {
		t.Helper()
		rep := run(what, wire)
		if replay := run(what+" retransmitted", wire); !bytes.Equal(replay, rep) {
			t.Fatalf("%s: retransmission not replayed verbatim", what)
		}
		return rep
	}

	h := ref.h // the same handles on every rig: Tree is deterministic
	for i, wire := range nfstest.Seeds(h) {
		var pk rpc.PeekedCall
		if _, ok := rpc.PeekCallHeader(wire, &pk); ok && pk.Prog == nfsproto.MountProgram && pk.Proc == nfsproto.MountProcDump {
			continue // the DUMP reply names each server's own client socket
		}
		run(fmt.Sprintf("corpus seed %d", i), wire)
	}

	xid := uint32(5000)
	nfs := func(proc uint32, args func(e *xdr.Encoder)) []byte {
		xid++
		return nfstest.EncodeWire(xid, nfsproto.Program, nfsproto.Version, proc, args)
	}
	handle := func(rep []byte) nfsproto.FH {
		t.Helper()
		d := xdr.NewDecoder(mbuf.FromBytes(rep))
		if _, err := rpc.DecodeReply(d); err != nil {
			t.Fatal(err)
		}
		res, err := nfsproto.DecodeDiropRes(d)
		if err != nil || res.Status != nfsproto.OK {
			t.Fatalf("step %d: %v %v", step, res, err)
		}
		return res.File
	}
	at := func(dir nfsproto.FH, name string) nfsproto.DiropArgs {
		return nfsproto.DiropArgs{Dir: dir, Name: name}
	}
	block, patch := blockPattern(29), blockPattern(113)[:700]
	const target = "../a/rather/long/symlink/target/that/no/fast/reply/carries"

	fresh := handle(twice("CREATE", nfs(nfsproto.ProcCreate, func(e *xdr.Encoder) {
		(&nfsproto.CreateArgs{Where: at(h.Sub, "fresh-file"), Attr: nfsproto.NewSattr()}).Encode(e)
	})))
	run("WRITE 8K", nfs(nfsproto.ProcWrite, func(e *xdr.Encoder) {
		(&nfsproto.WriteArgs{File: fresh, Offset: 0, Data: mbuf.FromBytes(block)}).Encode(e)
	}))
	run("WRITE unaligned", nfs(nfsproto.ProcWrite, func(e *xdr.Encoder) {
		(&nfsproto.WriteArgs{File: fresh, Offset: 8192 + 333, Data: mbuf.FromBytes(patch)}).Encode(e)
	}))
	twice("SYMLINK", nfs(nfsproto.ProcSymlink, func(e *xdr.Encoder) {
		(&nfsproto.SymlinkArgs{From: at(h.Sub, "fresh-link"), To: target, Attr: nfsproto.NewSattr()}).Encode(e)
	}))
	twice("MKDIR", nfs(nfsproto.ProcMkdir, func(e *xdr.Encoder) {
		(&nfsproto.CreateArgs{Where: at(h.Sub, "fresh-dir"), Attr: nfsproto.NewSattr()}).Encode(e)
	}))
	twice("RENAME", nfs(nfsproto.ProcRename, func(e *xdr.Encoder) {
		(&nfsproto.RenameArgs{From: at(h.Sub, "fresh-file"), To: at(h.Root, "renamed-file")}).Encode(e)
	}))
	twice("LINK", nfs(nfsproto.ProcLink, func(e *xdr.Encoder) {
		(&nfsproto.LinkArgs{From: fresh, To: at(h.Sub, "hard-link")}).Encode(e)
	}))
	twice("REMOVE", nfs(nfsproto.ProcRemove, func(e *xdr.Encoder) {
		(&nfsproto.DiropArgs{Dir: h.Root, Name: "bulk-07"}).Encode(e)
	}))
	twice("SETATTR", nfs(nfsproto.ProcSetattr, func(e *xdr.Encoder) {
		sa := nfsproto.NewSattr()
		sa.Mode = 0600
		(&nfsproto.SetattrArgs{File: fresh, Attr: sa}).Encode(e)
	}))

	// What those calls left behind, read back through every name they used.
	lookup := func(dir nfsproto.FH, name string) []byte {
		return run("LOOKUP "+name, nfs(nfsproto.ProcLookup, func(e *xdr.Encoder) { (&nfsproto.DiropArgs{Dir: dir, Name: name}).Encode(e) }))
	}
	if got := handle(lookup(h.Root, "renamed-file")); got != fresh {
		t.Errorf("renamed-file resolves to %x, want the created file %x", got, fresh)
	}
	if got := handle(lookup(h.Sub, "hard-link")); got != fresh {
		t.Errorf("hard-link resolves to %x, want the created file %x", got, fresh)
	}
	lookup(h.Sub, "fresh-file") // gone: the negative name cache entry
	lookup(h.Sub, "fresh-dir")
	link := handle(lookup(h.Sub, "fresh-link"))
	if rep := run("READLINK", nfs(nfsproto.ProcReadlink, func(e *xdr.Encoder) { (&nfsproto.GetattrArgs{File: link}).Encode(e) })); !bytes.Contains(rep, []byte(target)) {
		t.Errorf("READLINK reply does not carry the target: %x", rep)
	}
	run("GETATTR", nfs(nfsproto.ProcGetattr, func(e *xdr.Encoder) { (&nfsproto.GetattrArgs{File: fresh}).Encode(e) }))
	if rep := run("READ block 0", nfs(nfsproto.ProcRead, func(e *xdr.Encoder) {
		(&nfsproto.ReadArgs{File: fresh, Offset: 0, Count: memfs.BlockSize}).Encode(e)
	})); !bytes.HasSuffix(rep, block) {
		t.Error("READ does not return the block WRITE sent")
	}
	if rep := run("READ block 1", nfs(nfsproto.ProcRead, func(e *xdr.Encoder) {
		(&nfsproto.ReadArgs{File: fresh, Offset: memfs.BlockSize, Count: memfs.BlockSize}).Encode(e)
	})); !bytes.Contains(rep, patch) {
		t.Error("READ does not return the bytes the unaligned WRITE sent")
	}
	for _, dir := range []nfsproto.FH{h.Root, h.Sub} {
		run("READDIR of MaxData", nfs(nfsproto.ProcReaddir, func(e *xdr.Encoder) {
			(&nfsproto.ReaddirArgs{Dir: dir, Count: nfsproto.MaxData}).Encode(e)
		}))
	}

	// The state no reply shows: which exports the MNT seeds recorded.
	dirs := func(r *aliasRig) (out []string) {
		for _, m := range r.core.MountsFor() {
			out = append(out, m.Dir)
		}
		return out
	}
	for _, r := range rigs {
		if got, want := dirs(r), dirs(ref); !reflect.DeepEqual(got, want) {
			t.Errorf("%s mount table holds %q, reference %q", r.name, got, want)
		}
	}
	// And the comparison was of the paths it claims: the inline server put
	// no call through its pool and every eligible one on the shallow path,
	// the reference put every call through its pool.
	if d := drainOf(rigs[0].core.Metrics.Snapshot()); d.nfsd != 0 || d.inline == 0 || d.fast != eligible {
		t.Errorf("inline server: %+v, want every call served on the reader, the %d eligible shallow", d, eligible)
	}
	// The TCP connection took both of its arms too: every eligible record
	// shallow, encoded flat beside the scribbled read buffer, the rest generic.
	if c := rigs[1].core.Metrics.Snapshot().Counters["rpc.fastpath.calls"]; c != eligible {
		t.Errorf("tcp server: %d shallow calls, want all %d eligible ones", c, eligible)
	}
	if d := drainOf(ref.core.Metrics.Snapshot()); d.inline != 0 || d.fast != 0 || d.nfsd == 0 {
		t.Errorf("reference server: %+v, want every call copied and spilled", d)
	}
}
