package client

import (
	"cmp"
	"slices"
	"time"

	"renonfs/internal/nfsproto"
	"renonfs/internal/sim"
	"renonfs/internal/xdr"
)

// Client side of the NQNFS-style lease extension (Future Directions): with
// a write lease held, delayed writes need no push-on-close — the server
// guarantees nobody else caches the file, and evicts us (callback + flush
// + VACATED) if somebody asks. Close/open consistency is preserved with
// the write RPC count of the "no consistency" mount, which is exactly the
// bound §5 measures.

// clientLease is one held lease.
type clientLease struct {
	vn     *vnode
	mode   uint32
	expiry sim.Time
}

// leaseMargin is how close to expiry a lease may be and still be relied
// upon; within the margin it is renewed (or the data flushed).
const leaseMargin = 3 * time.Second

// initLeases binds the callback socket and starts the callback and
// renewal processes. Called from NewMount when UseLeases is set. The
// callback port comes from the node's ephemeral range, so many mounts —
// and many simulated environments — coexist without a shared global.
func (m *Mount) initLeases() {
	m.leases = make(map[vnKey]*clientLease)
	m.cbPort = m.Node.EphemeralPort()
	m.cbSock = m.Node.UDPSocket(m.cbPort)
	m.env.Spawn(m.Opts.Name+".lease-cb", m.leaseCallbackProc)
	m.env.Spawn(m.Opts.Name+".lease-renew", m.leaseRenewProc)
}

// leaseFor returns the live lease covering (vn, mode), nil otherwise.
func (m *Mount) leaseFor(vn *vnode, mode uint32) *clientLease {
	l := m.leases[vnKey{vn.fileid, vn.gen}]
	if l == nil {
		return nil
	}
	if m.env.Now()+leaseMargin >= l.expiry {
		return nil // too close to expiry to trust
	}
	if mode == nfsproto.LeaseWrite && l.mode != nfsproto.LeaseWrite {
		return nil
	}
	return l
}

// getLease acquires or renews a lease, retrying through TRYLATER while the
// server evicts a conflicting holder. It returns false when leases are
// unavailable (old server) or cannot be granted; callers fall back to
// ordinary consistency.
func (m *Mount) getLease(p *sim.Proc, vn *vnode, mode uint32) bool {
	if !m.Opts.UseLeases || m.leasesBroken {
		return false
	}
	if m.leaseFor(vn, mode) != nil {
		return true
	}
	durSec := uint32(m.leaseDuration() / time.Second)
	for attempt := 0; attempt < 10; attempt++ {
		d, err := m.call(p, nfsproto.ProcLease, func(e *xdr.Encoder) {
			(&nfsproto.LeaseArgs{
				File: vn.fh, Mode: mode,
				Duration: durSec, CallbackPort: uint32(m.cbPort),
			}).Encode(e)
		})
		if err != nil {
			// PROC_UNAVAIL from a server without the extension surfaces
			// as an RPC-level error: stop asking.
			m.leasesBroken = true
			return false
		}
		res, err := nfsproto.DecodeLeaseRes(d)
		m.tr.Release(d)
		if err != nil {
			m.leasesBroken = true
			return false
		}
		switch res.Status {
		case nfsproto.OK:
			// The grant carries fresh attributes: validate the cache now,
			// then trust it for the lease term. Dirty data survives the
			// purge: it is flushed first (it is newer by definition).
			// Attributes fold in before the purge so invalidate resets
			// vn.size from the server's current size — a foreign truncation
			// must shrink our view, which updateAttrs alone never does.
			changed := vn.hasCachedMtime && res.Attr.Mtime != vn.cachedMtime
			m.updateAttrs(vn, res.Attr, false)
			if changed {
				m.flushVnode(p, vn, true)
				m.invalidate(vn)
			}
			vn.cachedMtime = res.Attr.Mtime
			vn.hasCachedMtime = true
			m.leases[vnKey{vn.fileid, vn.gen}] = &clientLease{
				vn: vn, mode: mode,
				expiry: m.env.Now() + sim.Time(res.Duration)*time.Second,
			}
			m.Stats.LeasesGranted++
			return true
		case nfsproto.ErrTryLater:
			m.Stats.LeaseTryLater++
			p.Sleep(time.Second)
		default:
			return false
		}
	}
	return false
}

// wantHint reports whether RPCs should carry lease piggyback hints.
func (m *Mount) wantHint() bool {
	return m.Opts.UseLeases && !m.leasesBroken
}

// leaseHint appends a piggyback lease request to an RPC's arguments.
// Servers without the extension ignore the trailing bytes.
func (m *Mount) leaseHint(e *xdr.Encoder, mode uint32) {
	(&nfsproto.LeaseHint{
		Mode:         mode,
		Duration:     uint32(m.leaseDuration() / time.Second),
		CallbackPort: uint32(m.cbPort),
	}).Encode(e)
}

// absorbPiggy records a lease grant piggybacked on a reply. Callers fold
// the reply's attributes in first; a fresh read grant over a cache loaded
// under an older mtime purges it (dirty data flushed first — it is newer
// by definition) before the lease starts vouching for it. Write grants
// skip the check: they arrive on our own CREATE/WRITE, whose data the
// cache is authoritative for.
func (m *Mount) absorbPiggy(p *sim.Proc, d *xdr.Decoder, vn *vnode) {
	if !m.wantHint() {
		return
	}
	g := nfsproto.DecodeLeasePiggy(d)
	if g == nil {
		return
	}
	k := vnKey{vn.fileid, vn.gen}
	if g.Mode == nfsproto.LeaseRead && m.leases[k] == nil &&
		vn.hasCachedMtime && vn.attr.Mtime != vn.cachedMtime {
		m.flushVnode(p, vn, true)
		m.invalidate(vn)
	}
	m.leases[k] = &clientLease{
		vn: vn, mode: g.Mode,
		expiry: m.env.Now() + sim.Time(g.Duration)*time.Second,
	}
	// Coherent by contract from here: the server evicts us before the file
	// changes under the lease, so the cache's mtime baseline is current.
	vn.cachedMtime = vn.attr.Mtime
	vn.hasCachedMtime = true
	m.Stats.LeasesGranted++
	m.Stats.LeasePiggyGrants++
}

func (m *Mount) leaseDuration() sim.Time {
	if m.Opts.LeaseDuration > 0 {
		return m.Opts.LeaseDuration
	}
	return 30 * time.Second
}

// vacateAll surrenders every held lease at unmount. Without this, the
// server-side records linger until expiry and the next mount's first
// conflicting access eats a full TRYLATER-until-expiry wait. Dirty data is
// already on the server (Close syncs before calling).
func (m *Mount) vacateAll(p *sim.Proc) {
	if len(m.leases) == 0 || p == nil {
		return
	}
	for _, k := range m.leaseKeys() {
		// A call below parks, and meanwhile an eviction's surrender or a
		// Remove may drop a lease still ahead in keys: it needs no VACATED.
		l := m.leases[k]
		if l == nil {
			continue
		}
		delete(m.leases, k)
		m.vacated(p, l.vn)
	}
}

// leaseKeys returns the held leases' keys in (fileid, gen) order, so that
// map iteration order never leaks into simulated behaviour.
func (m *Mount) leaseKeys() []vnKey {
	keys := make([]vnKey, 0, len(m.leases))
	for k := range m.leases {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b vnKey) int {
		return cmp.Or(cmp.Compare(a.fileid, b.fileid), cmp.Compare(a.gen, b.gen))
	})
	return keys
}

// dropLease forgets a lease without telling the server (expiry handles
// the server side).
func (m *Mount) dropLease(vn *vnode) {
	delete(m.leases, vnKey{vn.fileid, vn.gen})
}

// surrender flushes a leased file and answers the server's eviction.
func (m *Mount) surrender(p *sim.Proc, vn *vnode) {
	m.flushVnode(p, vn, true)
	m.invalidate(vn)
	vn.attrValid = false
	m.dropLease(vn)
	m.vacated(p, vn)
	m.Stats.LeaseEvictions++
}

// vacated tells the server the client has given up vn's lease.
func (m *Mount) vacated(p *sim.Proc, vn *vnode) {
	d, err := m.call(p, nfsproto.ProcVacated, func(e *xdr.Encoder) {
		(&nfsproto.VacatedArgs{File: vn.fh}).Encode(e)
	})
	if err == nil {
		m.tr.Release(d)
	}
}

// leaseCallbackProc handles the server's eviction notices.
func (m *Mount) leaseCallbackProc(p *sim.Proc) {
	for {
		dg, ok := m.cbSock.Recv(p)
		if !ok {
			return
		}
		d := xdr.NewDecoder(dg.Payload)
		dg.Release()
		magic, err := d.Uint32()
		if err != nil || magic != nfsproto.EvictionMagic {
			continue
		}
		raw, err := d.FixedOpaque(nfsproto.FHSize)
		if err != nil {
			continue
		}
		var fh nfsproto.FH
		copy(fh[:], raw)
		_, fileid, gen := fh.Parts()
		l := m.leases[vnKey{fileid, gen}]
		if l == nil {
			continue // already expired or surrendered
		}
		m.surrender(p, l.vn)
	}
}

// leaseRenewProc keeps leases on dirty files alive and flushes before any
// lease is allowed to lapse, so the server never re-grants while we hold
// unwritten data.
func (m *Mount) leaseRenewProc(p *sim.Proc) {
	interval := m.leaseDuration() / 6
	if interval < time.Second {
		interval = time.Second
	}
	for !m.closed {
		p.Sleep(interval)
		if m.closed {
			return
		}
		now := m.env.Now()
		for _, k := range m.leaseKeys() {
			// A renewal below parks, and meanwhile a Remove or an eviction
			// may drop a lease still ahead in the keys.
			l := m.leases[k]
			if l == nil || l.expiry-now > 2*interval+leaseMargin {
				continue
			}
			dirty := len(m.bufc.DirtyBufs(l.vn.fileid, l.vn.gen)) > 0
			if dirty && m.getLease(p, l.vn, l.mode) {
				continue // renewed
			}
			if dirty {
				m.flushVnode(p, l.vn, true)
			}
			delete(m.leases, k)
		}
	}
}

// ReadDirLook lists a directory with the readdir_and_lookup_files
// extension, priming the attribute and name caches from the entries so a
// following per-file stat pass costs no RPCs. It falls back to ReadDir on
// servers without the extension.
func (m *Mount) ReadDirLook(p *sim.Proc, path string) ([]nfsproto.DirEntry, error) {
	return m.readDir(p, path, m.Opts.ReaddirLook && !m.rdlBroken)
}
