package server

import (
	"renonfs/internal/mbuf"
	"renonfs/internal/metrics"
	"renonfs/internal/nfsproto"
	"renonfs/internal/rpc"
	"renonfs/internal/xdr"
)

// The shallow dispatch path (DESIGN.md §3.4). Header-only procedures —
// NULL, GETATTR, SETATTR, LOOKUP, READLINK, small READDIRs, STATFS and the
// MOUNT herd — carry their whole request in one datagram and produce a
// small bounded reply, so the mbuf chain assembly, the full RPC decoder and
// the chain encoder that payload-bearing procedures need are pure overhead
// for them. The ingest readers classify each datagram with
// rpc.PeekCallHeader and, when FastEligible says so, call HandleCallFast to
// service it in place. What the shallow path skips is data movement — the
// chain, the ring hop — never logic: this file holds only the flat codec's
// wrappers (xdr.ByteReader -> core -> EncodeBytes); every decision lives in
// the procedure cores and the call frame (procs.go) the generic handlers
// run too, and FuzzFastVsGeneric holds the two codecs to the same bytes
// and the same side effects.
//
// Fallback discipline: HandleCallFast decodes arguments and validates
// bounds BEFORE touching any counter, cache or table. If anything is off —
// short datagram, oversized name, READDIR window out of the fast range —
// it returns ok=false having had no side effects, and the caller stages
// the datagram onto the generic path, which re-runs the full decode and
// owns the error reply. A datagram is therefore counted and serviced
// exactly once whichever path it ends on.

const (
	// FastReplyMax bounds a fast-path reply. The largest producer is a
	// READDIR at fastReaddirMax budget: ≤ ~120 entries × (16 bytes + padded
	// name) stays under 2.5 KB, and every other fast reply is ≤ 128 bytes.
	// Scratch regions sized to this never need a mid-service fallback.
	FastReplyMax = 4096
	// fastReaddirMax is the largest READDIR count argument serviced on the
	// fast path; bigger windows (nfsproto.MaxData-sized sweeps) go generic.
	fastReaddirMax = 2048
)

// FastEligible reports whether a peeked call may take the shallow path.
// Eligibility is by procedure only — argument-dependent limits (the
// READDIR window) are checked after decode and fall back without side
// effects.
func FastEligible(h *rpc.PeekedCall) bool {
	if h.Prog == nfsproto.Program && h.Vers == nfsproto.Version {
		switch h.Proc {
		case nfsproto.ProcNull, nfsproto.ProcGetattr, nfsproto.ProcLookup,
			nfsproto.ProcSetattr, nfsproto.ProcReadlink,
			nfsproto.ProcReaddir, nfsproto.ProcStatfs:
			return true
		}
		return false
	}
	if h.Prog == nfsproto.MountProgram && h.Vers == nfsproto.MountVersion {
		return h.Proc == nfsproto.MountProcNull || h.Proc == nfsproto.MountProcMnt
	}
	return false
}

// HandleCallFast services one fast-eligible datagram in place. req is the
// raw datagram, h/argOff the result of rpc.PeekCallHeader, out a scratch
// slice (len 0, cap ≥ FastReplyMax) the reply is appended to. It returns
// the reply bytes and ok=true; (nil, true) when the call was consumed but
// produces no reply (an in-flight non-idempotent duplicate); or
// (nil, false) — with no side effects — when the call must take the
// generic path. sp may be nil.
func (s *Server) HandleCallFast(peer string, req []byte, h *rpc.PeekedCall, argOff int, out []byte, sp *metrics.Span) ([]byte, bool) {
	if argOff > len(req) {
		return nil, false
	}
	var r xdr.ByteReader
	r.ResetBytes(req[argOff:])
	var w xdr.ByteWriter
	w.ResetBytes(out)

	// Decode arguments and check bounds first: a fallback from here has
	// touched no counter, cache or table.
	var (
		fh     nfsproto.FH
		name   string
		cookie uint32
		count  uint32
		sattr  nfsproto.Sattr
		hint   *nfsproto.LeaseHint
	)
	if h.Prog == nfsproto.MountProgram {
		switch h.Proc {
		case nfsproto.MountProcNull:
		case nfsproto.MountProcMnt:
			name = string(r.Opaque(nfsproto.MountMaxPath))
		default:
			return nil, false
		}
		if !r.OK() {
			return nil, false
		}
		// The MOUNT program sits outside the NFS call frame on both paths:
		// byte counters only.
		s.cBytesIn.Add(int64(len(req)))
		rpc.AppendReplyHeader(&w, h.XID, rpc.Success)
		if h.Proc == nfsproto.MountProcMnt {
			res := s.mnt(peer, name)
			res.EncodeBytes(&w)
		}
		sp.Stamp(metrics.StageService)
		sp.Stamp(metrics.StageEncode)
		s.cBytesOut.Add(int64(w.Len() - len(out)))
		return w.Bytes(), true
	}
	switch h.Proc {
	case nfsproto.ProcNull:
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
		if count == 0 || count > fastReaddirMax {
			return nil, false
		}
	default:
		return nil, false
	}
	if !r.OK() {
		return nil, false
	}
	if g, ok := nfsproto.DecodeLeaseHintBytes(&r); ok {
		hint = &g
	}

	s.cBytesIn.Add(int64(len(req)))
	f := callFrame{peer: peer, xid: h.XID, proc: h.Proc}
	replay, run := s.admit(nil, &f, len(req), sp)
	if !run {
		if replay == nil {
			return nil, true
		}
		w.PutFixedOpaque(replay.Bytes())
		s.cBytesOut.Add(int64(w.Len() - len(out)))
		return w.Bytes(), true
	}

	rpc.AppendReplyHeader(&w, h.XID, rpc.Success)
	switch h.Proc {
	case nfsproto.ProcGetattr:
		var res procResult
		s.getattrCore(nil, peer, fh, hint, &res)
		res.encodeAttrBytes(&w)
	case nfsproto.ProcSetattr:
		var res procResult
		s.setattrCore(nil, peer, fh, sattr, &res)
		res.encodeAttrBytes(&w)
	case nfsproto.ProcReadlink:
		res := s.readlinkCore(nil, fh)
		res.EncodeBytes(&w)
	case nfsproto.ProcLookup:
		var res procResult
		s.lookupCore(nil, peer, fh, name, hint, sp, &res)
		res.encodeDiropBytes(&w)
	case nfsproto.ProcReaddir:
		res := s.readdirCore(nil, fh, cookie, count, sp)
		res.encodeBytes(&w)
	case nfsproto.ProcStatfs:
		res := s.statfsCore(nil)
		res.EncodeBytes(&w)
	}
	sp.Stamp(metrics.StageService)
	sp.Stamp(metrics.StageEncode)

	var saved *mbuf.Chain
	if nfsproto.NonIdempotent[h.Proc] {
		// The scratch region is the reader's reusable arena; the cached
		// reply needs its own storage (mbuf.FromBytes aliases its argument).
		saved = mbuf.FromBytes(append([]byte(nil), w.Bytes()...))
	}
	n := w.Len() - len(out)
	s.finish(nil, &f, n, false, saved, sp)
	s.cBytesOut.Add(int64(n))
	return w.Bytes(), true
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

func (d *dirWindow) encodeBytes(w *xdr.ByteWriter) {
	w.PutUint32(uint32(d.status))
	if d.status != nfsproto.OK {
		return
	}
	for i := d.first; i < d.end; i++ {
		ent := d.entry(i)
		ent.EncodeBytes(w)
	}
	nfsproto.EncodeDirEndBytes(w, d.eof)
}
