package server

import (
	"encoding/binary"
	"sync"

	"renonfs/internal/mbuf"
	"renonfs/internal/metrics"
	"renonfs/internal/nfsproto"
	"renonfs/internal/rpc"
	"renonfs/internal/sim"
	"renonfs/internal/xdr"
)

// The header-only procedures' one wrapper (DESIGN.md §3.4). NULL, GETATTR,
// SETATTR, LOOKUP, READLINK, READDIR, STATFS and the MOUNT herd carry their
// whole request in a few hundred bytes and produce a small bounded reply,
// so serveFlat decodes them from and encodes them into flat buffers:
// xdr.ByteReader -> admit -> core (procs.go) -> EncodeBytes -> finish. It
// has two entries. The byte entry, HandleCallFast, is what real-socket
// readers call with the request still in their receive buffer and the
// reply scratch in their send arena. The chain entry, HandleCall, is what
// the simulated nfsds and every other holder of a request chain call:
// serveGathered copies the request out and lays the reply back into a
// chain. The *sim.Proc is passed through, so the simulator's CPU charges,
// lease evictions and disk sleeps run in the order its golden runs pin,
// and vanish over real sockets (p == nil).
//
// serveFlat answers everything it is given, truncated arguments and
// over-long names included (GARBAGE_ARGS, after the call frame ran): every
// caller's reply room holds the largest header-only reply, so no call is
// ever handed back to the other entry.

const (
	// FastReplyMax bounds the largest header-only reply, and so every
	// caller's reply room: a MaxData READDIR window (9,673 bytes) — header,
	// status and end words, budget, ≤ 3 pad bytes per entry (each costs ≥ 17).
	FastReplyMax = 24 + 12 + nfsproto.MaxData + 3*nfsproto.MaxData/17
	// gatherMax bounds the request bytes the chain entry copies out: a call
	// header (≤ 840 bytes, with two 400-byte auth bodies) and the longest
	// arguments a header-only procedure reads (MNT's 1,028-byte path).
	gatherMax = 2048
)

// FastEligible reports whether a peeked call may take the byte entry: by
// procedure only.
func FastEligible(h *rpc.PeekedCall) bool { return flatEligible(h.Prog, h.Vers, h.Proc) }

// flatEligible reports whether a call is one of serveFlat's procedures.
func flatEligible(prog, vers, proc uint32) bool {
	if prog == nfsproto.Program && vers == nfsproto.Version {
		switch proc {
		case nfsproto.ProcNull, nfsproto.ProcGetattr, nfsproto.ProcLookup,
			nfsproto.ProcSetattr, nfsproto.ProcReadlink,
			nfsproto.ProcReaddir, nfsproto.ProcStatfs:
			return true
		}
		return false
	}
	if prog == nfsproto.MountProgram && vers == nfsproto.MountVersion {
		return proc == nfsproto.MountProcNull || proc == nfsproto.MountProcMnt
	}
	return false
}

// HandleCallFast services one fast-eligible call in place. req is the raw
// datagram or record, h/argOff the result of rpc.PeekCallHeader, out a
// scratch slice (len 0, cap ≥ FastReplyMax) the reply is appended to, so
// the reply aliases out. It returns the reply, nil for an in-flight
// non-idempotent duplicate; ok is false only when argOff lies past req, and
// then nothing ran. sp may be nil.
func (s *Server) HandleCallFast(peer string, req []byte, h *rpc.PeekedCall, argOff int, out []byte, sp *metrics.Span) ([]byte, bool) {
	if argOff > len(req) {
		return nil, false
	}
	rep := s.serveFlat(nil, peer, h.XID, h.Prog, h.Proc, req[argOff:], len(req), out, sp)
	s.cBytesIn.Add(int64(len(req)))
	if rep != nil {
		s.cBytesOut.Add(int64(len(rep) - len(out)))
	}
	return rep, true
}

// serveGathered is the chain entry into serveFlat: the request is copied
// into scratch, and the flat reply is laid into a chain.
func (s *Server) serveGathered(p *sim.Proc, peer string, call *rpc.Call, req *mbuf.Chain, argOff int, sp *metrics.Span) *mbuf.Chain {
	scratch := chainScratch.Get().(*[]byte)
	defer chainScratch.Put(scratch)
	n := req.CopyTo((*scratch)[:gatherMax])
	rep := s.serveFlat(p, peer, call.XID, call.Prog, call.Proc, (*scratch)[argOff:n], req.Len(), (*scratch)[gatherMax:gatherMax], sp)
	if rep == nil {
		return nil
	}
	return replyChain(call.Proc, rep)
}

// chainScratch holds the chain entry's scratch. Each call takes its own
// (HandleCallSpan runs concurrently under EnableConcurrentDispatch) and
// returns it once the reply chain holds a copy.
var chainScratch = sync.Pool{New: func() any {
	b := make([]byte, gatherMax+FastReplyMax)
	return &b
}}

// serveFlat serves one header-only call whose arguments are args (reqLen
// is the whole request's length, for the Ultrix XDR-layer charge),
// appending the reply to out. It returns what HandleCallFast does.
func (s *Server) serveFlat(p *sim.Proc, peer string, xid, prog, proc uint32, args []byte, reqLen int, out []byte, sp *metrics.Span) []byte {
	var r xdr.ByteReader
	r.ResetBytes(args)
	var w xdr.ByteWriter
	w.ResetBytes(out)

	if prog == nfsproto.MountProgram {
		// The MOUNT program sits outside the NFS call frame: its dispatch
		// charge and the byte counters only.
		s.charge(p, "nfs", costDispatch)
		var path string
		if proc == nfsproto.MountProcMnt {
			path = string(r.Opaque(nfsproto.MountMaxPath))
		}
		if !r.OK() {
			rpc.AppendReplyHeader(&w, xid, rpc.GarbageArgs)
			return w.Bytes()
		}
		rpc.AppendReplyHeader(&w, xid, rpc.Success)
		if proc == nfsproto.MountProcMnt {
			res := s.mnt(peer, path)
			res.EncodeBytes(&w)
		}
		sp.Stamp(metrics.StageService)
		sp.Stamp(metrics.StageEncode)
		return w.Bytes()
	}

	var (
		fh     nfsproto.FH
		name   string
		cookie uint32
		count  uint32
		sattr  nfsproto.Sattr
		hint   *nfsproto.LeaseHint
	)
	switch proc {
	case nfsproto.ProcGetattr, nfsproto.ProcStatfs, nfsproto.ProcReadlink:
		copy(fh[:], r.FixedOpaque(nfsproto.FHSize))
	case nfsproto.ProcSetattr:
		copy(fh[:], r.FixedOpaque(nfsproto.FHSize))
		sattr.Mode = r.Uint32()
		sattr.UID = r.Uint32()
		sattr.GID = r.Uint32()
		sattr.Size = r.Uint32()
		sattr.Atime = nfsproto.Time{Sec: r.Uint32(), USec: r.Uint32()}
		sattr.Mtime = nfsproto.Time{Sec: r.Uint32(), USec: r.Uint32()}
	case nfsproto.ProcLookup:
		copy(fh[:], r.FixedOpaque(nfsproto.FHSize))
		name = string(r.Opaque(nfsproto.MaxNameLen))
	case nfsproto.ProcReaddir:
		copy(fh[:], r.FixedOpaque(nfsproto.FHSize))
		cookie = r.Uint32()
		count = r.Uint32()
	}
	garbage := !r.OK()
	if g, ok := nfsproto.DecodeLeaseHintBytes(&r); ok {
		hint = &g
	}

	f := callFrame{peer: peer, xid: xid, proc: proc}
	replay, run := s.admit(p, &f, reqLen, sp)
	if !run {
		if replay == nil {
			return nil
		}
		w.PutFixedOpaque(replay.Bytes())
		return w.Bytes()
	}

	if garbage {
		sp.SetErr()
		rpc.AppendReplyHeader(&w, xid, rpc.GarbageArgs)
	} else {
		rpc.AppendReplyHeader(&w, xid, rpc.Success)
	}
	switch {
	case garbage:
	case proc == nfsproto.ProcGetattr:
		var res procResult
		s.getattrCore(p, peer, fh, hint, &res)
		res.encodeAttrBytes(&w)
	case proc == nfsproto.ProcSetattr:
		var res procResult
		s.setattrCore(p, peer, fh, sattr, &res)
		res.encodeAttrBytes(&w)
	case proc == nfsproto.ProcReadlink:
		res := s.readlinkCore(p, fh)
		res.EncodeBytes(&w)
	case proc == nfsproto.ProcLookup:
		var res procResult
		s.lookupCore(p, peer, fh, name, hint, sp, &res)
		res.encodeDiropBytes(&w)
	case proc == nfsproto.ProcReaddir:
		s.readdirCore(p, fh, cookie, count, sp, &w)
	case proc == nfsproto.ProcStatfs:
		res := s.statfsCore(p)
		res.EncodeBytes(&w)
	}
	sp.Stamp(metrics.StageService)
	sp.Stamp(metrics.StageEncode)

	rep := w.Bytes()[len(out):]
	var saved *mbuf.Chain
	if nfsproto.NonIdempotent[proc] {
		saved = mbuf.FromBytes(rep) // a copy: out is the caller's to reuse
	}
	s.finish(p, &f, len(rep), garbage, saved, sp)
	return w.Bytes()
}

// replyChain lays a flat reply into a new chain field by field, the way
// the chain encoder laid the same reply: words and short strings in small
// mbufs, a string longer than an mbuf (a READLINK target, a READDIR entry's
// name) in a cluster that the fields after it fill. netsim's page-remap
// transmit charge reads that layout through ClusterRange.
func replyChain(proc uint32, rep []byte) *mbuf.Chain {
	c := &mbuf.Chain{}
	var b mbuf.Builder
	b.Reset(c)
	put := func(n int) {
		copy(b.Next(n), rep[:n])
		rep = rep[n:]
	}
	word := func() uint32 {
		v := binary.BigEndian.Uint32(rep)
		put(4)
		return v
	}
	str := func() {
		n := int(word())
		if n > mbuf.MLen {
			c.Append(rep[:n])
			rep = rep[n:]
		} else {
			put(n)
		}
		put(xdr.Pad(n) - n)
	}
	put(24) // the RPC reply header
	if len(rep) > 0 && (proc == nfsproto.ProcReadlink || proc == nfsproto.ProcReaddir) && word() == uint32(nfsproto.OK) {
		if proc == nfsproto.ProcReadlink {
			str()
		}
		for proc == nfsproto.ProcReaddir && word() != 0 { // an entry follows: fileid, name, cookie
			word()
			str()
			word()
		}
	}
	for len(rep) > 0 { // words only, so small mbufs: copy them in mbuf-sized runs
		put(min(len(rep), mbuf.MLen))
	}
	return c
}

func (r *procResult) encodeAttrBytes(w *xdr.ByteWriter) {
	(&nfsproto.AttrRes{Status: r.status, Attr: &r.attr}).EncodeBytes(w)
	if r.granted {
		r.grant.EncodeBytes(w)
	}
}

func (r *procResult) encodeDiropBytes(w *xdr.ByteWriter) {
	(&nfsproto.DiropRes{Status: r.status, File: r.file, Attr: &r.attr}).EncodeBytes(w)
	if r.granted {
		r.grant.EncodeBytes(w)
	}
}
