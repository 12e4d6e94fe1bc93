package client

import (
	"fmt"

	"renonfs/internal/netsim"
	"renonfs/internal/nfsproto"
	"renonfs/internal/sim"
	"renonfs/internal/transport"
	"renonfs/internal/xdr"
)

// MountProtocolRoot obtains the file handle of an exported directory via
// the MOUNT protocol (MNT), the way every real NFS mount begins.
func MountProtocolRoot(p *sim.Proc, tr transport.Transport, path string) (nfsproto.FH, error) {
	var fh nfsproto.FH
	d, err := tr.CallProgram(p, nfsproto.MountProgram, nfsproto.MountVersion, nfsproto.MountProcMnt,
		func(e *xdr.Encoder) { (&nfsproto.MntArgs{DirPath: path}).Encode(e) })
	if err != nil {
		return fh, err
	}
	res, err := nfsproto.DecodeMntRes(d)
	if err != nil {
		return fh, err
	}
	if res.Status != 0 {
		return fh, fmt.Errorf("client: mount %q refused (errno %d)", path, res.Status)
	}
	return res.File, nil
}

// MountExport dials the MOUNT protocol for path and returns a Mount rooted
// at the returned handle.
func MountExport(p *sim.Proc, node *netsim.Node, tr transport.Transport, path string, opts Options) (*Mount, error) {
	fh, err := MountProtocolRoot(p, tr, path)
	if err != nil {
		return nil, err
	}
	return NewMount(node, tr, fh, opts), nil
}

// Unmount tells the server's mountd this client is done with the export
// (bookkeeping only; NFS itself is stateless).
func Unmount(p *sim.Proc, tr transport.Transport, path string) error {
	_, err := tr.CallProgram(p, nfsproto.MountProgram, nfsproto.MountVersion, nfsproto.MountProcUmnt,
		func(e *xdr.Encoder) { (&nfsproto.MntArgs{DirPath: path}).Encode(e) })
	return err
}

// Exports lists the server's export table.
func Exports(p *sim.Proc, tr transport.Transport) ([]nfsproto.ExportEntry, error) {
	d, err := tr.CallProgram(p, nfsproto.MountProgram, nfsproto.MountVersion, nfsproto.MountProcExport, nil)
	if err != nil {
		return nil, err
	}
	return nfsproto.DecodeExportList(d)
}
