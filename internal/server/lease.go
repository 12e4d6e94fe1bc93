package server

import (
	"sort"
	"strconv"
	"strings"
	"time"

	"renonfs/internal/mbuf"
	"renonfs/internal/memfs"
	"renonfs/internal/metrics"
	"renonfs/internal/netsim"
	"renonfs/internal/nfsproto"
	"renonfs/internal/sim"
	"renonfs/internal/xdr"
)

// NQNFS-style cache leases (the paper's Future Directions: "a mechanism
// for doing a delayed write without push on close policy safely").
//
// A lease is short-lived soft state: the server grants a read lease to any
// number of clients or a write lease to one, for at most LeaseDuration.
// While a client holds a write lease its delayed writes need no
// push-on-close — nobody else may cache the file. A conflicting request
// triggers an eviction notice to the holders and a TRYLATER refusal; the
// holders flush, answer VACATED, and the requester's retry succeeds. If a
// holder has crashed, the lease simply expires. A crashed server waits one
// lease period before answering, and statelessness — the property §1
// prizes for trivial crash recovery — is preserved in spirit: no lease
// outlives LeaseDuration.

// DefaultLeaseDuration is the granted lease length when unspecified.
const DefaultLeaseDuration = 30 * time.Second

// leaseState tracks one file's lease.
type leaseState struct {
	mode     uint32
	holders  map[string]holderAddr // peer id -> callback address
	expiry   sim.Time
	vacating bool
}

type holderAddr struct {
	node netsim.NodeID
	port int
}

// leases lazily allocates the lease table.
func (s *Server) leaseTable() map[nfsproto.FH]*leaseState {
	if s.leaseTab == nil {
		s.leaseTab = make(map[nfsproto.FH]*leaseState)
	}
	return s.leaseTab
}

func (s *Server) leaseDuration() sim.Time {
	if s.Opts.LeaseDuration > 0 {
		return s.Opts.LeaseDuration
	}
	return DefaultLeaseDuration
}

// extensionEnabled reports whether the extension procedure is served.
func (s *Server) extensionEnabled(proc uint32) bool {
	switch proc {
	case nfsproto.ProcLease, nfsproto.ProcVacated:
		return s.Opts.Leases
	case nfsproto.ProcReaddirLook:
		return s.Opts.ReaddirLook
	default:
		return false
	}
}

// parsePeerNode recovers the caller's node id from the frontend peer tag
// ("udp:<node>:<port>"). Leases need a callback path, so they are only
// granted to UDP peers.
func parsePeerNode(peer string) (netsim.NodeID, bool) {
	parts := strings.Split(peer, ":")
	if len(parts) != 3 || parts[0] != "udp" {
		return 0, false
	}
	n, err := strconv.Atoi(parts[1])
	if err != nil {
		return 0, false
	}
	return netsim.NodeID(n), true
}

// sendEviction fires the one-way eviction notice at a holder's callback
// port.
func (s *Server) sendEviction(p *sim.Proc, to holderAddr, fh nfsproto.FH) {
	if s.cbSock == nil || p == nil {
		return
	}
	c := &mbuf.Chain{}
	e := xdr.NewEncoder(c)
	e.PutUint32(nfsproto.EvictionMagic)
	e.PutFixedOpaque(fh[:])
	s.cbSock.Send(p, to.node, to.port, c)
	s.cLeaseEvict.Inc()
}

// collectEvictions marks the lease as being vacated and returns the
// callback addresses to notify, in deterministic peer order. It runs under
// leaseMu; the sends happen after the lock is dropped, because the callback
// socket parks the sending proc under the simulator (holding a real mutex
// across a park deadlocks the cooperative scheduler).
func collectEvictions(st *leaseState, except string) []holderAddr {
	if st.vacating {
		return nil
	}
	st.vacating = true
	peers := make([]string, 0, len(st.holders))
	for peer := range st.holders {
		peers = append(peers, peer)
	}
	sort.Strings(peers)
	addrs := make([]holderAddr, 0, len(peers))
	for _, peer := range peers {
		if peer == except {
			continue
		}
		addrs = append(addrs, st.holders[peer])
	}
	return addrs
}

// sendEvictions fires the collected notices (outside leaseMu).
func (s *Server) sendEvictions(p *sim.Proc, fh nfsproto.FH, to []holderAddr) {
	for _, addr := range to {
		s.sendEviction(p, addr, fh)
	}
}

// leaseConflict checks a data operation against the lease table; if the
// caller is not entitled, holders are evicted and the op must answer
// TRYLATER. Called from read/write/setattr when leases are enabled.
func (s *Server) leaseConflict(p *sim.Proc, fh nfsproto.FH, write bool, peer string) bool {
	if !s.Opts.Leases {
		return false
	}
	s.leaseMu.Lock()
	st := s.leaseTable()[fh]
	if st == nil {
		s.leaseMu.Unlock()
		return false
	}
	now := s.now()
	if now >= st.expiry {
		delete(s.leaseTab, fh)
		s.cLeaseExpiries.Inc()
		s.leaseMu.Unlock()
		return false
	}
	if _, holder := st.holders[peer]; holder {
		// The holder's own reads are always covered; its writes are covered
		// by a write lease, and also when it is the sole holder — nobody
		// else caches the file, so a read-leased caller truncating or
		// rewriting its own file needs no eviction round.
		if !write || st.mode == nfsproto.LeaseWrite || len(st.holders) == 1 {
			s.leaseMu.Unlock()
			return false
		}
	}
	if !write && st.mode == nfsproto.LeaseRead {
		s.leaseMu.Unlock()
		return false // reads coexist with read leases
	}
	evict := collectEvictions(st, peer)
	s.leaseMu.Unlock()
	s.cLeaseTryLater.Inc()
	s.sendEvictions(p, fh, evict)
	return true
}

// piggyGrant decides a piggybacked lease hint: issue, extend or ignore.
// Unlike leaseCall it never evicts — a conflicting hint simply goes
// unanswered, leaving eviction to the explicit LEASE path — and it only
// covers regular files (a LOOKUP hint would otherwise scatter leases over
// directories, whose mutations bypass leaseConflict). It does no sends, so
// it is safe to run from both dispatch paths; callers hold no locks.
func (s *Server) piggyGrant(peer string, fh nfsproto.FH, ftype nfsproto.FileType, hint *nfsproto.LeaseHint) (nfsproto.LeasePiggy, bool) {
	var g nfsproto.LeasePiggy
	if hint == nil || !s.Opts.Leases || ftype != nfsproto.TypeReg {
		return g, false
	}
	node, ok := parsePeerNode(peer)
	if !ok {
		return g, false
	}
	addr := holderAddr{node: node, port: int(hint.CallbackPort)}
	now := s.now()
	dur := s.leaseDuration()
	if req := time.Duration(hint.Duration) * time.Second; req > 0 && req < dur {
		dur = req
	}
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	if now < s.noGrantsUntil {
		return g, false // crash recovery: pre-crash leases must expire first
	}
	tab := s.leaseTable()
	st := tab[fh]
	if st != nil && now >= st.expiry {
		delete(tab, fh)
		s.cLeaseExpiries.Inc()
		st = nil
	}
	var isHolder bool
	if st != nil {
		_, isHolder = st.holders[peer]
	}
	mode := hint.Mode
	renewal := false
	switch {
	case st == nil:
		tab[fh] = &leaseState{
			mode:    mode,
			holders: map[string]holderAddr{peer: addr},
			expiry:  now + dur,
		}
	case st.vacating:
		return g, false // an eviction is in flight; stay out of its way
	case isHolder && (st.mode == mode || st.mode == nfsproto.LeaseWrite):
		// Renewal; a write-lease holder hinting for read keeps write.
		mode = st.mode
		st.expiry = now + dur
		renewal = true
	case isHolder && len(st.holders) == 1 && mode == nfsproto.LeaseWrite:
		// Sole holder upgrading read to write.
		st.mode = nfsproto.LeaseWrite
		st.expiry = now + dur
		renewal = true
	case st.mode == nfsproto.LeaseRead && mode == nfsproto.LeaseRead:
		st.holders[peer] = addr
		if exp := now + dur; exp > st.expiry {
			st.expiry = exp
		}
	default:
		return g, false // conflict: no grant, no eviction
	}
	s.cLeaseGrants.Inc()
	s.cLeasePiggy.Inc()
	if renewal {
		s.cLeaseRenewals.Inc()
	}
	metrics.Emit(s.Tracer, metrics.LeaseGrant{
		Peer: peer, File: fh.String(),
		Write: mode == nfsproto.LeaseWrite,
		Term:  time.Duration(dur),
		Piggy: true,
	})
	g.Mode = mode
	g.Duration = uint32(dur / time.Second)
	return g, true
}

func (s *Server) now() sim.Time {
	if s.Node == nil {
		return 0
	}
	return s.Node.Net().Env.Now()
}

// leaseCall serves the LEASE procedure: grant, share, renew or refuse.
func (s *Server) leaseCall(p *sim.Proc, peer string, d *xdr.Decoder, e *xdr.Encoder) error {
	args, err := nfsproto.DecodeLeaseArgs(d)
	if err != nil {
		return err
	}
	s.charge(p, netsim.BucketNFS, costVOP)
	n, rerr := s.FS.Resolve(args.File)
	if rerr != nil {
		(&nfsproto.LeaseRes{Status: errStatus(rerr)}).Encode(e)
		return nil
	}
	node, ok := parsePeerNode(peer)
	if !ok {
		(&nfsproto.LeaseRes{Status: nfsproto.ErrAcces}).Encode(e)
		return nil
	}
	addr := holderAddr{node: node, port: int(args.CallbackPort)}
	now := s.now()
	dur := s.leaseDuration()
	if req := time.Duration(args.Duration) * time.Second; req > 0 && req < dur {
		dur = req
	}
	s.leaseMu.Lock()
	// NQNFS crash recovery: no grants until pre-crash leases have expired.
	if now < s.noGrantsUntil {
		s.leaseMu.Unlock()
		s.cLeaseTryLater.Inc()
		(&nfsproto.LeaseRes{Status: nfsproto.ErrTryLater}).Encode(e)
		return nil
	}
	tab := s.leaseTable()
	st := tab[args.File]
	if st != nil && now >= st.expiry {
		delete(tab, args.File)
		s.cLeaseExpiries.Inc()
		st = nil
	}
	grant := func() {
		attr := s.FS.Attr(n)
		(&nfsproto.LeaseRes{
			Status:   nfsproto.OK,
			Duration: uint32(dur / time.Second),
			Attr:     &attr,
		}).Encode(e)
		s.cLeaseGrants.Inc()
		metrics.Emit(s.Tracer, metrics.LeaseGrant{
			Peer: peer, File: args.File.String(),
			Write: args.Mode == nfsproto.LeaseWrite,
			Term:  time.Duration(dur),
		})
	}
	var isHolder bool
	if st != nil {
		_, isHolder = st.holders[peer]
	}
	var evict []holderAddr
	switch {
	case st == nil:
		tab[args.File] = &leaseState{
			mode:    args.Mode,
			holders: map[string]holderAddr{peer: addr},
			expiry:  now + dur,
		}
		grant()
	case isHolder && (st.mode == args.Mode || st.mode == nfsproto.LeaseWrite):
		// Renewal (a write lease also covers the holder's reads).
		st.expiry = now + dur
		st.vacating = false
		s.cLeaseRenewals.Inc()
		grant()
	case isHolder && len(st.holders) == 1 && args.Mode == nfsproto.LeaseWrite:
		// Sole holder upgrading a read lease to write.
		st.mode = nfsproto.LeaseWrite
		st.expiry = now + dur
		st.vacating = false
		s.cLeaseRenewals.Inc()
		grant()
	case st.mode == nfsproto.LeaseRead && args.Mode == nfsproto.LeaseRead:
		// Read leases are shared.
		st.holders[peer] = addr
		if exp := now + dur; exp > st.expiry {
			st.expiry = exp
		}
		grant()
	default:
		// Conflict: evict and tell the requester to come back.
		evict = collectEvictions(st, "")
		s.cLeaseTryLater.Inc()
		(&nfsproto.LeaseRes{Status: nfsproto.ErrTryLater}).Encode(e)
	}
	s.leaseMu.Unlock()
	s.sendEvictions(p, args.File, evict)
	return nil
}

// vacatedCall serves the VACATED procedure: a holder has flushed and
// released after an eviction notice.
func (s *Server) vacatedCall(p *sim.Proc, peer string, d *xdr.Decoder, e *xdr.Encoder) error {
	args, err := nfsproto.DecodeVacatedArgs(d)
	if err != nil {
		return err
	}
	s.charge(p, netsim.BucketNFS, costVOP)
	s.leaseMu.Lock()
	if st := s.leaseTable()[args.File]; st != nil {
		if _, held := st.holders[peer]; held {
			delete(st.holders, peer)
			s.cLeaseVacates.Inc()
			metrics.Emit(s.Tracer, metrics.LeaseVacate{Peer: peer, File: args.File.String()})
		}
		if len(st.holders) == 0 {
			delete(s.leaseTab, args.File)
		}
	}
	s.leaseMu.Unlock()
	(&nfsproto.StatusRes{Status: nfsproto.OK}).Encode(e)
	return nil
}

// readdirLook serves the readdir_and_lookup_files extension: READDIR
// entries carrying each file's handle and attributes, so a directory
// listing plus per-file stat costs one RPC instead of dozens (Future
// Directions' proposal; NFSv3 later standardized it as READDIRPLUS).
func (s *Server) readdirLook(p *sim.Proc, d *xdr.Decoder, e *xdr.Encoder) error {
	args, err := nfsproto.DecodeReaddirArgs(d)
	if err != nil {
		return err
	}
	s.charge(p, netsim.BucketNFS, costVOP)
	dir, rerr := s.FS.Resolve(args.Dir)
	if rerr != nil {
		(&nfsproto.ReaddirLookRes{Status: errStatus(rerr)}).Encode(e)
		return nil
	}
	if dir.Type != nfsproto.TypeDir {
		(&nfsproto.ReaddirLookRes{Status: nfsproto.ErrNotDir}).Encode(e)
		return nil
	}
	s.scanDirectory(p, dir, nil)
	res := &nfsproto.ReaddirLookRes{Status: nfsproto.OK}
	budget, used := readdirBudget(args.Count), 16
	// Each entry the window holds takes 16+len(name)+FHSize+68 bytes, so it
	// holds at most (budget-16)/(16+FHSize+68) of them; the window is copied
	// that many at a time (and once more should entries removed meanwhile
	// have been skipped), from the cookie's entry on.
	var buf [(nfsproto.MaxData-16)/(16+nfsproto.FHSize+68) + 1]memfs.DirEnt
	from := int(args.Cookie)
	ents, total := s.FS.DirWindow(dir, from, buf[:(budget-16)/(16+nfsproto.FHSize+68)+1])
	for i := from; i < total; i++ {
		if i-from == len(ents) {
			from = i
			if ents, total = s.FS.DirWindow(dir, from, buf[:]); len(ents) == 0 {
				break
			}
		}
		de := ents[i-from]
		n, err := s.FS.Lookup(dir, de.Name)
		if err != nil {
			continue
		}
		// Each embedded lookup still costs attribute work, but no
		// per-entry RPC round trip.
		s.charge(p, netsim.BucketNFS, costVOP/4)
		sz := 16 + len(de.Name) + nfsproto.FHSize + 68
		if used+sz > budget {
			res.EOF = false
			res.Encode(e)
			return nil
		}
		res.Entries = append(res.Entries, nfsproto.LookEntry{
			Entry: nfsproto.DirEntry{FileID: de.Ino, Name: de.Name, Cookie: uint32(i + 1)},
			File:  s.FS.FH(n),
			Attr:  s.FS.Attr(n),
		})
		used += sz
	}
	res.EOF = true
	res.Encode(e)
	return nil
}

// EnableLeaseCallbacks points the server at a UDP socket for eviction
// notices; ServeUDP wires this automatically.
func (s *Server) EnableLeaseCallbacks(sock *netsim.UDPSocket) { s.cbSock = sock }

// Leases returns the number of active leases (tests and monitoring).
func (s *Server) Leases() int {
	n := 0
	now := s.now()
	s.leaseMu.Lock()
	for fh, st := range s.leaseTable() {
		if now < st.expiry {
			n++
		} else {
			delete(s.leaseTab, fh)
			s.cLeaseExpiries.Inc()
		}
	}
	s.leaseMu.Unlock()
	return n
}

// PublishLeaseStats refreshes the lease.active gauge from the live table;
// stats endpoints call it right before snapshotting the registry.
func (s *Server) PublishLeaseStats() {
	s.Metrics.Gauge("lease.active").Set(float64(s.Leases()))
}
