package server

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"renonfs/internal/mbuf"
	"renonfs/internal/nfsproto"
	"renonfs/internal/xdr"
)

// edge is one named datagram sequence for a fresh fixture.
type edge struct {
	name  string
	wires [][]byte
}

// edges are the header-only procedures' edge cases: truncated arguments
// for every procedure, a LOOKUP name and an MNT path over their limits,
// READDIR windows of count 0 (the largest), 2049 and 8192 over the
// long-name directory, a garbage SETATTR and its retransmission, READLINK
// of the long target, and a hinted GETATTR and a hinted LOOKUP that earn a
// lease.
func edges(h fixture) []edge {
	const xid = 500
	nfs := func(proc uint32, args func(e *xdr.Encoder)) []byte {
		return encodeWire(xid, nfsproto.Program, nfsproto.Version, proc, args)
	}
	fh := func(fh nfsproto.FH) func(e *xdr.Encoder) {
		return func(e *xdr.Encoder) { (&nfsproto.GetattrArgs{File: fh}).Encode(e) }
	}
	dirop := func(dir nfsproto.FH, name string) func(e *xdr.Encoder) {
		return func(e *xdr.Encoder) { (&nfsproto.DiropArgs{Dir: dir, Name: name}).Encode(e) }
	}
	readdir := func(count uint32) []byte {
		return nfs(nfsproto.ProcReaddir, func(e *xdr.Encoder) {
			(&nfsproto.ReaddirArgs{Dir: h.Long, Count: count}).Encode(e)
		})
	}
	setattr := nfs(nfsproto.ProcSetattr, func(e *xdr.Encoder) {
		(&nfsproto.SetattrArgs{File: h.File, Attr: nfsproto.NewSattr()}).Encode(e)
	})
	mnt := func(path string) []byte {
		return encodeWire(xid, nfsproto.MountProgram, nfsproto.MountVersion, nfsproto.MountProcMnt,
			func(e *xdr.Encoder) { (&nfsproto.MntArgs{DirPath: path}).Encode(e) })
	}
	hinted := func(proc uint32, args func(e *xdr.Encoder)) []byte {
		return nfs(proc, func(e *xdr.Encoder) {
			args(e)
			(&nfsproto.LeaseHint{Mode: nfsproto.LeaseRead, Duration: 10, CallbackPort: 901}).Encode(e)
		})
	}
	cut := func(wire []byte) []byte { return wire[:len(wire)-4] }
	one := func(name string, wire []byte) edge { return edge{name, [][]byte{wire}} }
	return []edge{
		one("truncated/getattr", cut(nfs(nfsproto.ProcGetattr, fh(h.File)))),
		one("truncated/setattr", cut(setattr)),
		one("truncated/lookup", cut(nfs(nfsproto.ProcLookup, dirop(h.Root, "f")))),
		one("truncated/readlink", cut(nfs(nfsproto.ProcReadlink, fh(h.Link)))),
		one("truncated/readdir", cut(readdir(512))),
		one("truncated/statfs", cut(nfs(nfsproto.ProcStatfs, fh(h.Root)))),
		one("truncated/mnt", cut(mnt("/"))),
		one("lookup/name-too-long", nfs(nfsproto.ProcLookup, dirop(h.Root, strings.Repeat("x", nfsproto.MaxNameLen+1)))),
		one("mnt/path-too-long", mnt("/"+strings.Repeat("p", nfsproto.MountMaxPath))),
		one("readdir/count-0", readdir(0)),
		one("readdir/count-2049", readdir(2049)),
		one("readdir/count-8192", readdir(8192)),
		{"setattr/garbage-retransmitted", [][]byte{cut(setattr), cut(setattr)}},
		one("readlink/long-target", nfs(nfsproto.ProcReadlink, fh(h.LongLink))),
		one("lease/hinted-getattr", hinted(nfsproto.ProcGetattr, fh(h.File))),
		one("lease/hinted-lookup", hinted(nfsproto.ProcLookup, dirop(h.Root, "f"))),
	}
}

// clusterExtents lists the bytes of c that sit in cluster mbufs, one
// off+len run per cluster: the layout netsim's page-remap transmit charge
// reads through ClusterRange.
func clusterExtents(c *mbuf.Chain) string {
	var runs []string
	start, seen := -1, 0
	for i := 0; i <= c.Len(); i++ {
		in, fresh := false, false
		if i < c.Len() {
			n, _ := c.ClusterRange(i, 1)
			in = n == 1
			total, _ := c.ClusterRange(0, i+1)
			fresh, seen = total != seen, total
		}
		if start >= 0 && (!in || fresh) {
			runs = append(runs, fmt.Sprintf("%d+%d", start, i-start))
			start = -1
		}
		if in && start < 0 {
			start = i
		}
	}
	return strings.Join(runs, ",")
}

// edgeReport runs one datagram sequence through the chain entry on a fresh
// fixture and summarizes it: per reply its length, RPC accept status, NFS
// (or mount) status and cluster extents, then digests of the reply bytes
// and of everything the sequence left behind (observe).
func edgeReport(t *testing.T, wires [][]byte) (summary, detail string) {
	s, h := newFuzzServer(t)
	replies := sha256.New()
	var lines, full []string
	for _, wire := range wires {
		rep := s.HandleCall(nil, fuzzPeer, mbuf.FromBytes(wire))
		if rep == nil {
			lines = append(lines, "dropped")
			continue
		}
		b := rep.Bytes()
		line := fmt.Sprintf("%dB accept=%d", len(b), binary.BigEndian.Uint32(b[20:]))
		if len(b) >= 28 {
			line += fmt.Sprintf(" status=%d", binary.BigEndian.Uint32(b[24:]))
		}
		if ext := clusterExtents(rep); ext != "" {
			line += " clusters=" + ext
		}
		lines = append(lines, line)
		full = append(full, fmt.Sprintf("%x", b))
		replies.Write(b)
		rep.Free()
	}
	effects := fmt.Sprintf("%+v", observe(s, []nfsproto.FH{h.Root, h.File, h.Link, h.Sub, h.Long, h.LongLink}))
	digest := sha256.Sum256([]byte(effects))
	summary = fmt.Sprintf("%s | replies %x | effects %x", strings.Join(lines, "; "), replies.Sum(nil)[:6], digest[:6])
	return summary, strings.Join(full, "\n") + "\n" + effects
}

// TestHeaderOnlyEdgesPinned pins the chain entry's answer to every edge
// case of the header-only procedures (edges): truncated arguments
// and over-long names answer GARBAGE_ARGS after the call frame ran (a
// garbage SETATTR's reply is committed and replayed), READDIR windows are
// bounded by their count (0 meaning the largest), the long names and the
// long READLINK target sit in reply clusters where the chain codec put them,
// and a hinted GETATTR and LOOKUP leave with a lease. Each line is what the
// chain-codec wrappers answered before the one flat wrapper replaced them.
func TestHeaderOnlyEdgesPinned(t *testing.T) {
	want := map[string]string{
		"truncated/getattr":             "24B accept=4 | replies aff9180aa897 | effects fddf51a1ab20",
		"truncated/setattr":             "24B accept=4 | replies aff9180aa897 | effects ae52ebf28a64",
		"truncated/lookup":              "24B accept=4 | replies aff9180aa897 | effects 3138a8197dce",
		"truncated/readlink":            "24B accept=4 | replies aff9180aa897 | effects dc070ac449df",
		"truncated/readdir":             "24B accept=4 | replies aff9180aa897 | effects ddef4781bd2e",
		"truncated/statfs":              "24B accept=4 | replies aff9180aa897 | effects 82b650b9e26b",
		"truncated/mnt":                 "24B accept=4 | replies aff9180aa897 | effects 8b16110be9a7",
		"lookup/name-too-long":          "24B accept=4 | replies aff9180aa897 | effects bb92c62dfd10",
		"mnt/path-too-long":             "24B accept=4 | replies aff9180aa897 | effects 24ade47d4aa7",
		"readdir/count-0":               "2668B accept=0 status=0 clusters=80+216,296+216,512+216,728+216,944+216,1160+216,1376+216,1592+216,1808+216,2024+216,2240+216,2456+212 | replies 655c3affb2d0 | effects ececff6fbb8e",
		"readdir/count-2049":            "2020B accept=0 status=0 clusters=80+216,296+216,512+216,728+216,944+216,1160+216,1376+216,1592+216,1808+212 | replies 2dd04deae871 | effects c9f102017d43",
		"readdir/count-8192":            "2668B accept=0 status=0 clusters=80+216,296+216,512+216,728+216,944+216,1160+216,1376+216,1592+216,1808+216,2024+216,2240+216,2456+212 | replies 655c3affb2d0 | effects ececff6fbb8e",
		"setattr/garbage-retransmitted": "24B accept=4; 24B accept=4 | replies 15fec240d0b7 | effects 09071405a378",
		"readlink/long-target":          "332B accept=0 status=0 clusters=32+300 | replies 939ccb8e808c | effects ff33277e50ae",
		"lease/hinted-getattr":          "108B accept=0 status=0 | replies dfdc6632ac33 | effects 1e3cb747c970",
		"lease/hinted-lookup":           "140B accept=0 status=0 | replies 462ae3f87316 | effects 808741695443",
	}
	_, h := newFuzzServer(t)
	for _, c := range edges(h) {
		got, detail := edgeReport(t, c.wires)
		if got != want[c.name] {
			t.Errorf("%s:\n got  %s\n want %s\n%s", c.name, got, want[c.name], detail)
		}
	}
}
