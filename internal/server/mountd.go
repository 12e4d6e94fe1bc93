package server

import (
	"sort"
	"strings"
	"sync"

	"renonfs/internal/memfs"
	"renonfs/internal/netsim"
	"renonfs/internal/nfsproto"
	"renonfs/internal/sim"
	"renonfs/internal/xdr"
)

// The MOUNT protocol server (mountd). Real deployments ran it as a
// separate daemon; here it shares the server's dispatch loop — the same
// frontends serve both RPC programs, and HandleCall routes by program
// number. NULL and MNT, the mount herd, are header-only and served by the
// flat wrapper (fastpath.go); dispatchMount serves the rest.

// Unix errno values the mount protocol uses.
const (
	mntOK      = 0
	mntENOENT  = 2
	mntEACCES  = 13
	mntENOTDIR = 20
)

// mountState tracks exports and active mounts (soft state, like rmtab),
// behind one leaf mutex — mountd traffic is rare enough that striping it
// would be noise.
type mountState struct {
	mu sync.Mutex
	// exports maps export path -> restriction groups (empty = everyone).
	exports map[string][]string
	// mounts maps "host dir" -> entry, for DUMP.
	mounts map[string]nfsproto.MountEntry
}

func newMountState() *mountState {
	return &mountState{
		exports: map[string][]string{"/": nil},
		mounts:  make(map[string]nfsproto.MountEntry),
	}
}

// mountState returns the mount table; New allocates it eagerly, the lazy
// path only serves zero-value Servers built directly in tests.
func (s *Server) mountState() *mountState {
	if s.mounts == nil {
		s.mounts = newMountState()
	}
	return s.mounts
}

// Export adds path to the export list (the root "/" is exported by
// default). Groups restrict which peers may mount; empty allows everyone.
func (s *Server) Export(path string, groups ...string) {
	st := s.mountState()
	st.mu.Lock()
	st.exports[path] = groups
	st.mu.Unlock()
}

// MountsFor returns the active mount entries (DUMP's view).
func (s *Server) MountsFor() []nfsproto.MountEntry {
	st := s.mountState()
	st.mu.Lock()
	out := make([]nfsproto.MountEntry, 0, len(st.mounts))
	for _, e := range st.mounts {
		out = append(out, e)
	}
	st.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Host != out[j].Host {
			return out[i].Host < out[j].Host
		}
		return out[i].Dir < out[j].Dir
	})
	return out
}

// lookupExportPath walks an exported path through the filesystem.
func (s *Server) lookupExportPath(path string) (*memfs.Inode, uint32) {
	st := s.mountState()
	st.mu.Lock()
	_, exported := st.exports[path]
	st.mu.Unlock()
	if !exported {
		return nil, mntEACCES
	}
	n := s.FS.Root()
	for _, comp := range strings.Split(path, "/") {
		if comp == "" {
			continue
		}
		child, err := s.FS.Lookup(n, comp)
		if err != nil {
			return nil, mntENOENT
		}
		n = child
	}
	if n.Type != nfsproto.TypeDir {
		return nil, mntENOTDIR
	}
	return n, mntOK
}

// mnt is the MNT procedure body: resolve the export and record the mount.
func (s *Server) mnt(peer, path string) nfsproto.MntRes {
	n, status := s.lookupExportPath(path)
	if status != mntOK {
		return nfsproto.MntRes{Status: status}
	}
	st := s.mountState()
	st.mu.Lock()
	st.mounts[peer+" "+path] = nfsproto.MountEntry{Host: peer, Dir: path}
	st.mu.Unlock()
	return nfsproto.MntRes{Status: mntOK, File: s.FS.FH(n)}
}

// dispatchMount serves one MOUNT-program procedure other than NULL and MNT.
func (s *Server) dispatchMount(p *sim.Proc, proc uint32, peer string, d *xdr.Decoder, e *xdr.Encoder) error {
	s.charge(p, netsim.BucketNFS, costDispatch)
	st := s.mountState()
	switch proc {
	case nfsproto.MountProcDump:
		nfsproto.EncodeMountList(e, s.MountsFor())
		return nil
	case nfsproto.MountProcUmnt:
		args, err := nfsproto.DecodeMntArgs(d)
		if err != nil {
			return err
		}
		st.mu.Lock()
		delete(st.mounts, peer+" "+args.DirPath)
		st.mu.Unlock()
		return nil
	case nfsproto.MountProcUmntAll:
		st.mu.Lock()
		for k, ent := range st.mounts {
			if ent.Host == peer {
				delete(st.mounts, k)
			}
		}
		st.mu.Unlock()
		return nil
	case nfsproto.MountProcExport:
		var list []nfsproto.ExportEntry
		st.mu.Lock()
		for dir, groups := range st.exports {
			list = append(list, nfsproto.ExportEntry{Dir: dir, Groups: groups})
		}
		st.mu.Unlock()
		sort.Slice(list, func(i, j int) bool { return list[i].Dir < list[j].Dir })
		nfsproto.EncodeExportList(e, list)
		return nil
	default:
		(&nfsproto.StatusRes{Status: nfsproto.ErrIO}).Encode(e)
		return nil
	}
}
