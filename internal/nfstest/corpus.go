// Package nfstest is test support shared across packages: the fixture tree
// and the datagram corpus that FuzzFastVsGeneric (internal/server) holds the
// server's two call entries together with, exported so the real-socket
// frontends (internal/nfsnet) can replay the same history through their own
// request paths. Only tests import it.
package nfstest

import (
	"fmt"

	"renonfs/internal/mbuf"
	"renonfs/internal/memfs"
	"renonfs/internal/nfsproto"
	"renonfs/internal/rpc"
	"renonfs/internal/xdr"
)

// EncodeWire flattens one RPC call to the raw datagram bytes the UDP
// readers would peek at.
func EncodeWire(xid, prog, vers, proc uint32, args func(e *xdr.Encoder)) []byte {
	req := &mbuf.Chain{}
	rpc.EncodeCall(req, &rpc.Call{XID: xid, Prog: prog, Vers: vers, Proc: proc})
	if args != nil {
		args(xdr.NewEncoder(req))
	}
	wire := append([]byte(nil), req.Bytes()...)
	req.Free()
	return wire
}

// Handles are the fixture's file handles; Tree builds the fixture the same
// way every time, so they are the same on every filesystem it fills.
type Handles struct{ Root, File, Link, Sub nfsproto.FH }

// Tree fills a fresh filesystem with the differential fixture: a root
// holding a file, 40 bulk files (more than one READDIR window), a symlink
// and a subdirectory. memfs's tick clock stamps files from a counter, so
// two servers over two such trees, fed the same calls, stay bit-identical.
func Tree(fs *memfs.FS) (Handles, error) {
	var err error
	must := func(n *memfs.Inode, e error) *memfs.Inode {
		if err == nil {
			err = e
		}
		return n
	}
	root := fs.Root()
	h := Handles{Root: fs.FH(root)}
	f := must(fs.Create(nil, root, "f", 0644))
	for i := 0; i < 40; i++ {
		must(fs.Create(nil, root, fmt.Sprintf("bulk-%02d", i), 0644))
	}
	ln := must(fs.Symlink(nil, root, "ln", "f", 0777))
	sub := must(fs.Mkdir(nil, root, "sub", 0755))
	if err != nil {
		return h, err
	}
	h.File, h.Link, h.Sub = fs.FH(f), fs.FH(ln), fs.FH(sub)
	return h, nil
}

// Seeds is the corpus, in an order that is itself one history: the cases a
// hand-kept equivalence test used to enumerate (errors, stale handles,
// negative name cache, truncated and cookied READDIR, SETATTR and its
// replay, READLINK, MNT), piggybacked lease hints, generic-only procedures
// between shallow ones, and header errors.
func Seeds(h Handles) [][]byte {
	var stale nfsproto.FH
	stale[0], stale[31] = 0xde, 0xad
	var xid uint32 = 100
	nfs := func(proc uint32, args func(e *xdr.Encoder)) []byte {
		xid++
		return EncodeWire(xid, nfsproto.Program, nfsproto.Version, proc, args)
	}
	mnt := func(proc uint32, args func(e *xdr.Encoder)) []byte {
		xid++
		return EncodeWire(xid, nfsproto.MountProgram, nfsproto.MountVersion, proc, args)
	}
	getattr := func(fh nfsproto.FH) []byte {
		return nfs(nfsproto.ProcGetattr, func(e *xdr.Encoder) { (&nfsproto.GetattrArgs{File: fh}).Encode(e) })
	}
	lookup := func(dir nfsproto.FH, name string) []byte {
		return nfs(nfsproto.ProcLookup, func(e *xdr.Encoder) { (&nfsproto.DiropArgs{Dir: dir, Name: name}).Encode(e) })
	}
	readdir := func(dir nfsproto.FH, cookie, count uint32) []byte {
		return nfs(nfsproto.ProcReaddir, func(e *xdr.Encoder) {
			(&nfsproto.ReaddirArgs{Dir: dir, Cookie: cookie, Count: count}).Encode(e)
		})
	}
	setattr := func(fh nfsproto.FH, mode uint32) []byte {
		return nfs(nfsproto.ProcSetattr, func(e *xdr.Encoder) {
			sa := nfsproto.NewSattr()
			sa.Mode = mode
			(&nfsproto.SetattrArgs{File: fh, Attr: sa}).Encode(e)
		})
	}
	readlink := func(fh nfsproto.FH) []byte {
		return nfs(nfsproto.ProcReadlink, func(e *xdr.Encoder) { (&nfsproto.GetattrArgs{File: fh}).Encode(e) })
	}
	hinted := func(proc uint32, mode uint32, args func(e *xdr.Encoder)) []byte {
		return nfs(proc, func(e *xdr.Encoder) {
			args(e)
			(&nfsproto.LeaseHint{Mode: mode, Duration: 10, CallbackPort: 901}).Encode(e)
		})
	}
	setattrOK := setattr(h.File, 0600)
	mntOK := mnt(nfsproto.MountProcMnt, func(e *xdr.Encoder) { (&nfsproto.MntArgs{DirPath: "/"}).Encode(e) })
	seeds := [][]byte{
		nfs(nfsproto.ProcNull, nil),
		getattr(h.File),
		getattr(stale),
		// Twice: the second answers from the name cache on both servers.
		lookup(h.Root, "f"),
		lookup(h.Root, "f"),
		// ENOENT twice: the second hits the negative name cache.
		lookup(h.Root, "missing"),
		lookup(h.Root, "missing"),
		lookup(h.File, "x"), // not a directory
		lookup(stale, "f"),
		readdir(h.Root, 0, 2048),
		readdir(h.Root, 0, 256),              // a small budget truncates the listing
		readdir(h.Root, 7, 512),              // resume from a mid-listing cookie
		readdir(h.Root, 0, nfsproto.MaxData), // the largest window: FastReplyMax holds its reply
		readdir(h.File, 0, 512),
		readdir(stale, 0, 512),
		nfs(nfsproto.ProcStatfs, func(e *xdr.Encoder) { (&nfsproto.GetattrArgs{File: h.Root}).Encode(e) }),
		// SETATTR is non-idempotent: the retransmission must replay the
		// committed reply on both paths, not advance ctime again.
		setattrOK,
		setattrOK,
		setattr(stale, nfsproto.NoValue),
		readlink(h.Link),
		readlink(h.File), // not a symlink
		readlink(stale),
		mnt(nfsproto.MountProcNull, nil),
		mntOK,
		mnt(nfsproto.MountProcMnt, func(e *xdr.Encoder) { (&nfsproto.MntArgs{DirPath: "/no-such-export"}).Encode(e) }),
		mnt(nfsproto.MountProcDump, nil),
		// Piggybacked leases: grant, renew, share, and the conflicting hint
		// that goes unanswered.
		hinted(nfsproto.ProcGetattr, nfsproto.LeaseRead, func(e *xdr.Encoder) { (&nfsproto.GetattrArgs{File: h.File}).Encode(e) }),
		hinted(nfsproto.ProcLookup, nfsproto.LeaseRead, func(e *xdr.Encoder) { (&nfsproto.DiropArgs{Dir: h.Root, Name: "f"}).Encode(e) }),
		hinted(nfsproto.ProcLookup, nfsproto.LeaseWrite, func(e *xdr.Encoder) { (&nfsproto.DiropArgs{Dir: h.Root, Name: "bulk-03"}).Encode(e) }),
		hinted(nfsproto.ProcLookup, nfsproto.LeaseRead, func(e *xdr.Encoder) { (&nfsproto.DiropArgs{Dir: h.Root, Name: "sub"}).Encode(e) }),
		// Generic-only procedures between shallow ones: the caches the two
		// paths share must see the same history.
		nfs(nfsproto.ProcCreate, func(e *xdr.Encoder) {
			(&nfsproto.CreateArgs{Where: nfsproto.DiropArgs{Dir: h.Root, Name: "missing"}, Attr: nfsproto.NewSattr()}).Encode(e)
		}),
		lookup(h.Root, "missing"),
		nfs(nfsproto.ProcRemove, func(e *xdr.Encoder) { (&nfsproto.DiropArgs{Dir: h.Root, Name: "f"}).Encode(e) }),
		lookup(h.Root, "f"),
		getattr(h.File),
		// Header errors the shallow classifier must leave to the generic path.
		EncodeWire(900, nfsproto.Program, nfsproto.Version+1, nfsproto.ProcNull, nil),
		EncodeWire(901, nfsproto.Program+7, nfsproto.Version, nfsproto.ProcNull, nil),
		EncodeWire(902, nfsproto.Program, nfsproto.Version, nfsproto.NumProcsExt, nil),
		lookup(h.Root, "f")[:60], // truncated arguments
	}
	return seeds
}
