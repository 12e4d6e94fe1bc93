package server

import (
	"time"

	"renonfs/internal/mbuf"
	"renonfs/internal/memfs"
	"renonfs/internal/metrics"
	"renonfs/internal/nfsproto"
	"renonfs/internal/sim"
	"renonfs/internal/xdr"
)

// Procedure cores and the call frame (DESIGN.md §3.4). Every header-only
// procedure — GETATTR, SETATTR, LOOKUP, READLINK, READDIR, STATFS, and MNT
// in mountd.go — is written once here: decoded arguments in, a result out
// (READDIR streams its listing onto the flat writer), knowing nothing
// about how the request arrived; serveFlat (fastpath.go) is their one
// wrapper. The *sim.Proc is threaded through so CPU charges, lease
// evictions and disk sleeps happen under the simulator and vanish over
// real sockets (p == nil); the order of charge, lease check, name-cache and
// buffer-cache operations inside a core is what the simulator's golden
// runs pin, so reorder nothing here casually.

// procResult is the result of the attrstat/diropres procedures. attr lives
// in the struct rather than behind nfsproto.AttrRes's pointer so the result
// never escapes, and the cores fill the wrapper's zero value in place
// rather than return one: handing ~120 bytes back through two or three
// frames was measurable (+25 ns) on a 250 ns GETATTR.
type procResult struct {
	status  nfsproto.Status
	file    nfsproto.FH    // the handle the attributes describe
	attr    nfsproto.Fattr // valid when status == OK
	grant   nfsproto.LeasePiggy
	granted bool // a hinted call earned the piggybacked lease in grant
}

// okResult fills in the success result for n: its attributes and, when the
// call carried a hint the server can honor, the piggybacked lease.
func (s *Server) okResult(r *procResult, peer string, fh nfsproto.FH, n *memfs.Inode, hint *nfsproto.LeaseHint) {
	r.status, r.file, r.attr = nfsproto.OK, fh, s.FS.Attr(n)
	r.grant, r.granted = s.piggyGrant(peer, fh, r.attr.Type, hint)
}

func (s *Server) getattrCore(p *sim.Proc, peer string, fh nfsproto.FH, hint *nfsproto.LeaseHint, r *procResult) {
	s.charge(p, "nfs", costVOP)
	// Attributes of a write-leased file live on the holder; evict first.
	if s.leaseConflict(p, fh, false, peer) {
		r.status = nfsproto.ErrTryLater
		return
	}
	n, err := s.FS.Resolve(fh)
	if err != nil {
		r.status = errStatus(err)
		return
	}
	s.okResult(r, peer, fh, n, hint)
}

func (s *Server) setattrCore(p *sim.Proc, peer string, fh nfsproto.FH, sa nfsproto.Sattr, r *procResult) {
	s.charge(p, "nfs", costVOP)
	if s.leaseConflict(p, fh, true, peer) {
		r.status = nfsproto.ErrTryLater
		return
	}
	n, err := s.FS.Resolve(fh)
	if err != nil {
		r.status = errStatus(err)
		return
	}
	s.FS.Setattr(p, n, sa)
	s.okResult(r, peer, fh, n, nil)
}

func (s *Server) lookupCore(p *sim.Proc, peer string, dirFH nfsproto.FH, name string, hint *nfsproto.LeaseHint, sp *metrics.Span, r *procResult) {
	s.charge(p, "nfs", costVOP)
	dir, err := s.FS.Resolve(dirFH)
	if err != nil {
		r.status = errStatus(err)
		return
	}
	// Name cache first (when the personality has one).
	if s.namec.Enabled() {
		s.charge(p, "namecache", costNameCacheHit)
		if vn, vgen, neg, found := s.namec.Lookup(dir.Ino, dir.Gen, name, sp); found {
			if neg {
				r.status = nfsproto.ErrNoEnt
				return
			}
			if n, err := s.FS.Get(vn, vgen); err == nil {
				s.lookupFound(p, peer, n, hint, r)
				return
			}
			s.namec.Remove(dir.Ino, dir.Gen, name)
		}
	}
	s.scanDirectory(p, dir, sp)
	n, err := s.FS.Lookup(dir, name)
	if err != nil {
		if err == memfs.ErrNoEnt {
			s.namec.EnterNegative(dir.Ino, dir.Gen, name, sp)
		}
		s.countErr()
		r.status = errStatus(err)
		return
	}
	s.namec.Enter(dir.Ino, dir.Gen, name, n.Ino, n.Gen, sp)
	s.lookupFound(p, peer, n, hint, r)
}

// lookupFound finishes a LOOKUP that resolved to n, from either cache tier.
func (s *Server) lookupFound(p *sim.Proc, peer string, n *memfs.Inode, hint *nfsproto.LeaseHint, r *procResult) {
	fh := s.FS.FH(n)
	if s.leaseConflict(p, fh, false, peer) {
		r.status = nfsproto.ErrTryLater
		return
	}
	s.okResult(r, peer, fh, n, hint)
}

func (s *Server) readlinkCore(p *sim.Proc, fh nfsproto.FH) nfsproto.ReadlinkRes {
	s.charge(p, "nfs", costVOP)
	n, err := s.FS.Resolve(fh)
	if err != nil {
		return nfsproto.ReadlinkRes{Status: errStatus(err)}
	}
	target, err := s.FS.Readlink(n)
	return nfsproto.ReadlinkRes{Status: errStatus(err), Path: target}
}

func (s *Server) statfsCore(p *sim.Proc) nfsproto.StatfsRes {
	s.charge(p, "nfs", costVOP)
	return s.FS.Statfs()
}

// readdirCore appends READDIR's result: the window of the listing — "."
// and ".." at positions 0 and 1, then the directory's entries — that
// starts at cookie and fits the count's budget, and whether it reaches the
// listing's end. Entries stream straight onto the wire; a cookie counts
// the entries before it.
func (s *Server) readdirCore(p *sim.Proc, fh nfsproto.FH, cookie, count uint32, sp *metrics.Span, w *xdr.ByteWriter) {
	s.charge(p, "nfs", costVOP)
	dir, err := s.FS.Resolve(fh)
	if err == nil && dir.Type != nfsproto.TypeDir {
		err = memfs.ErrNotDir
	}
	if err != nil {
		w.PutUint32(uint32(errStatus(err)))
		return
	}
	s.scanDirectory(p, dir, sp)
	ents := s.FS.DirEntries(dir)
	w.PutUint32(uint32(nfsproto.OK))
	eof, budget, used := true, readdirBudget(count), 16 // status + eof + terminator
	for i := int(cookie); i < len(ents)+2; i++ {
		ent := nfsproto.DirEntry{FileID: dir.Ino, Name: "..", Cookie: uint32(i + 1)}
		switch {
		case i == 0:
			ent.Name = "."
		case i > 1:
			ent.FileID, ent.Name = ents[i-2].Ino, ents[i-2].Name
		}
		if used += 16 + len(ent.Name); used > budget {
			eof = false
			break
		}
		ent.EncodeBytes(w)
	}
	nfsproto.EncodeDirEndBytes(w, eof)
}

// readdirBudget is the reply budget of a READDIR window: its count
// argument, or MaxData when that is 0 or larger.
func readdirBudget(count uint32) int {
	if count == 0 || count > nfsproto.MaxData {
		return nfsproto.MaxData
	}
	return int(count)
}

// callFrame is what the accounting around one NFS procedure carries from
// admit to finish.
type callFrame struct {
	peer      string
	xid, proc uint32
	begin     time.Duration
}

func (f *callFrame) dupKey() dupKey { return dupKey{peer: f.peer, xid: f.xid, proc: f.proc} }

// admit is everything between "the header names a procedure we serve" and
// the procedure body: the dispatch charges and the duplicate-request claim
// for non-idempotent procedures. run=false means the body must not
// execute: replay is the committed reply of an earlier execution (owned by
// the cache — Clone or copy it), or nil when the original is still in
// flight on another nfsd and this retransmission is dropped (the client
// retransmits again and finds the committed reply). Every admitted call
// reaches finish, which counts it.
func (s *Server) admit(p *sim.Proc, f *callFrame, reqLen int, sp *metrics.Span) (replay *mbuf.Chain, run bool) {
	s.charge(p, "nfs", costDispatch)
	if s.Opts.XDRCopyLayer {
		s.charge(p, "xdr_layer", costXDRCall+costXDRByte*float64(reqLen))
	}
	if nfsproto.NonIdempotent[f.proc] {
		cached, inflight := s.dupc.begin(f.dupKey(), sp)
		sp.Stamp(metrics.StageDupcheck)
		if inflight {
			sp.SetErr()
			return nil, false
		}
		if cached != nil {
			s.cDupHits.Inc()
			metrics.Emit(s.Tracer, metrics.DupCacheHit{Proc: f.proc})
			return cached, false
		}
	}
	f.begin = s.svcNow(p)
	return nil, true
}

// finish closes the frame admit opened: the service-time histogram (its
// count is the procedure's call count), the ServerCall event, the reference
// port's per-byte reply charge, and the dupcache commit. saved is the
// caller's private copy of the reply for the cache — non-nil exactly when
// the procedure is non-idempotent.
func (s *Server) finish(p *sim.Proc, f *callFrame, replyLen int, garbage bool, saved *mbuf.Chain, sp *metrics.Span) {
	// Service time spans decode through dispatch: simulated CPU charges and
	// disk sleeps under the simulator, real elapsed time over sockets.
	svc := s.svcNow(p) - f.begin
	s.procSvc[f.proc].ObserveDuration(svc)
	metrics.Emit(s.Tracer, metrics.ServerCall{
		Proc: f.proc, Peer: f.peer, XID: f.xid,
		NonIdempotent: nfsproto.NonIdempotent[f.proc],
		Service:       svc, Error: garbage,
	})
	if s.Opts.XDRCopyLayer {
		s.charge(p, "xdr_layer", costXDRByte*float64(replyLen))
	}
	if saved != nil {
		s.dupc.commit(f.dupKey(), saved, sp)
	}
}
