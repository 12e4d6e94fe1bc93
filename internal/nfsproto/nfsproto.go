// Package nfsproto implements the NFS version 2 protocol (RFC 1094): file
// handles, attributes, and the argument/result bodies of all procedures,
// marshalled directly in mbuf chains per the 4.3BSD Reno approach (no
// intermediate XDR buffers).
package nfsproto

import (
	"encoding/binary"
	"errors"
	"fmt"

	"renonfs/internal/xdr"
)

// Protocol constants (RFC 1094 §2.1, §2.3).
const (
	Program = 100003 // RPC program number
	Version = 2      // protocol version

	MaxData    = 8192 // largest READ/WRITE transfer
	FHSize     = 32   // file handle size, bytes
	MaxNameLen = 255  // largest filename component
	MaxPathLen = 1024 // largest pathname
	CookieSize = 4    // readdir cookie size
)

// Procedure numbers (RFC 1094 §2.2).
const (
	ProcNull       = 0
	ProcGetattr    = 1
	ProcSetattr    = 2
	ProcRoot       = 3 // obsolete
	ProcLookup     = 4
	ProcReadlink   = 5
	ProcRead       = 6
	ProcWritecache = 7 // unused
	ProcWrite      = 8
	ProcCreate     = 9
	ProcRemove     = 10
	ProcRename     = 11
	ProcLink       = 12
	ProcSymlink    = 13
	ProcMkdir      = 14
	ProcRmdir      = 15
	ProcReaddir    = 16
	ProcStatfs     = 17

	NumProcs = 18
)

// ProcName returns the conventional name of an NFS procedure (including
// the NQNFS-style extensions 18-20).
func ProcName(proc uint32) string {
	names := [...]string{
		"null", "getattr", "setattr", "root", "lookup", "readlink",
		"read", "writecache", "write", "create", "remove", "rename",
		"link", "symlink", "mkdir", "rmdir", "readdir", "statfs",
		"lease", "vacated", "readdirlook",
	}
	if proc < uint32(len(names)) {
		return names[proc]
	}
	return fmt.Sprintf("proc%d", proc)
}

// NonIdempotent marks the procedures whose repetition corrupts state: the
// server answers their retransmissions from its duplicate request cache,
// and load generators that replay calls on purpose pick them from here.
var NonIdempotent = [NumProcsExt]bool{
	ProcSetattr: true,
	ProcCreate:  true,
	ProcRemove:  true,
	ProcRename:  true,
	ProcLink:    true,
	ProcSymlink: true,
	ProcMkdir:   true,
	ProcRmdir:   true,
}

// Status codes (RFC 1094 §2.3.1, "stat").
type Status uint32

const (
	OK             Status = 0
	ErrPerm        Status = 1
	ErrNoEnt       Status = 2
	ErrIO          Status = 5
	ErrNXIO        Status = 6
	ErrAcces       Status = 13
	ErrExist       Status = 17
	ErrNoDev       Status = 19
	ErrNotDir      Status = 20
	ErrIsDir       Status = 21
	ErrFBig        Status = 27
	ErrNoSpc       Status = 28
	ErrROFS        Status = 30
	ErrNameTooLong Status = 63
	ErrNotEmpty    Status = 66
	ErrDQuot       Status = 69
	ErrStale       Status = 70
	ErrWFlush      Status = 99
)

// Error converts a non-OK status to a Go error; OK yields nil.
func (s Status) Error() error {
	if s == OK {
		return nil
	}
	return &StatusError{s}
}

// StatusError wraps an NFS error status as a Go error.
type StatusError struct{ Status Status }

func (e *StatusError) Error() string { return fmt.Sprintf("nfs: %s", e.Status) }

// String returns the conventional NFSERR name.
func (s Status) String() string {
	switch s {
	case OK:
		return "NFS_OK"
	case ErrPerm:
		return "NFSERR_PERM"
	case ErrNoEnt:
		return "NFSERR_NOENT"
	case ErrIO:
		return "NFSERR_IO"
	case ErrNXIO:
		return "NFSERR_NXIO"
	case ErrAcces:
		return "NFSERR_ACCES"
	case ErrExist:
		return "NFSERR_EXIST"
	case ErrNoDev:
		return "NFSERR_NODEV"
	case ErrNotDir:
		return "NFSERR_NOTDIR"
	case ErrIsDir:
		return "NFSERR_ISDIR"
	case ErrFBig:
		return "NFSERR_FBIG"
	case ErrNoSpc:
		return "NFSERR_NOSPC"
	case ErrROFS:
		return "NFSERR_ROFS"
	case ErrNameTooLong:
		return "NFSERR_NAMETOOLONG"
	case ErrNotEmpty:
		return "NFSERR_NOTEMPTY"
	case ErrDQuot:
		return "NFSERR_DQUOT"
	case ErrStale:
		return "NFSERR_STALE"
	case ErrWFlush:
		return "NFSERR_WFLUSH"
	case ErrTryLater:
		return "NFSERR_TRYLATER"
	default:
		return fmt.Sprintf("NFSERR_%d", uint32(s))
	}
}

// FileType is the ftype enumeration.
type FileType uint32

const (
	TypeNone FileType = 0
	TypeReg  FileType = 1
	TypeDir  FileType = 2
	TypeBlk  FileType = 3
	TypeChr  FileType = 4
	TypeLnk  FileType = 5
)

// ErrBadProto reports a malformed protocol element.
var ErrBadProto = errors.New("nfsproto: malformed message")

// FH is an NFS file handle: 32 opaque bytes chosen by the server.
type FH [FHSize]byte

// MakeFH packs a filesystem id, file id and generation number into a handle
// the way a BSD server derives handles from (fsid, inode, generation).
func MakeFH(fsid, fileid, gen uint32) FH {
	var fh FH
	binary.BigEndian.PutUint32(fh[0:], fsid)
	binary.BigEndian.PutUint32(fh[4:], fileid)
	binary.BigEndian.PutUint32(fh[8:], gen)
	return fh
}

// Parts unpacks the (fsid, fileid, generation) triple from a handle.
func (fh FH) Parts() (fsid, fileid, gen uint32) {
	return binary.BigEndian.Uint32(fh[0:]),
		binary.BigEndian.Uint32(fh[4:]),
		binary.BigEndian.Uint32(fh[8:])
}

func (fh FH) String() string {
	fsid, fileid, gen := fh.Parts()
	return fmt.Sprintf("fh(%d:%d.%d)", fsid, fileid, gen)
}

func putFH(e *xdr.Encoder, fh FH) { e.PutFixedOpaque(fh[:]) }

func getFH(d *xdr.Decoder) (FH, error) {
	var fh FH
	p, err := d.FixedOpaque(FHSize)
	if err != nil {
		return fh, err
	}
	copy(fh[:], p)
	return fh, nil
}

// Time is the NFS timeval (seconds and microseconds since the epoch).
type Time struct {
	Sec  uint32
	USec uint32
}

// Less reports whether t is strictly earlier than u.
func (t Time) Less(u Time) bool {
	return t.Sec < u.Sec || (t.Sec == u.Sec && t.USec < u.USec)
}

func putTime(e *xdr.Encoder, t Time) {
	e.PutUint32(t.Sec)
	e.PutUint32(t.USec)
}

func getTime(d *xdr.Decoder) (Time, error) {
	var t Time
	var err error
	if t.Sec, err = d.Uint32(); err != nil {
		return t, err
	}
	t.USec, err = d.Uint32()
	return t, err
}

// Fattr is the fattr structure: everything GETATTR returns.
type Fattr struct {
	Type      FileType
	Mode      uint32
	Nlink     uint32
	UID       uint32
	GID       uint32
	Size      uint32
	BlockSize uint32
	Rdev      uint32
	Blocks    uint32
	FSID      uint32
	FileID    uint32
	Atime     Time
	Mtime     Time
	Ctime     Time
}

// Encode marshals the attributes.
func (f *Fattr) Encode(e *xdr.Encoder) {
	e.PutUint32(uint32(f.Type))
	e.PutUint32(f.Mode)
	e.PutUint32(f.Nlink)
	e.PutUint32(f.UID)
	e.PutUint32(f.GID)
	e.PutUint32(f.Size)
	e.PutUint32(f.BlockSize)
	e.PutUint32(f.Rdev)
	e.PutUint32(f.Blocks)
	e.PutUint32(f.FSID)
	e.PutUint32(f.FileID)
	putTime(e, f.Atime)
	putTime(e, f.Mtime)
	putTime(e, f.Ctime)
}

// DecodeFattr unmarshals attributes.
func DecodeFattr(d *xdr.Decoder) (*Fattr, error) {
	f := &Fattr{}
	fields := []*uint32{
		(*uint32)(&f.Type), &f.Mode, &f.Nlink, &f.UID, &f.GID,
		&f.Size, &f.BlockSize, &f.Rdev, &f.Blocks, &f.FSID, &f.FileID,
	}
	for _, p := range fields {
		v, err := d.Uint32()
		if err != nil {
			return nil, err
		}
		*p = v
	}
	var err error
	if f.Atime, err = getTime(d); err != nil {
		return nil, err
	}
	if f.Mtime, err = getTime(d); err != nil {
		return nil, err
	}
	if f.Ctime, err = getTime(d); err != nil {
		return nil, err
	}
	return f, nil
}

// NoValue is the sattr "do not set" sentinel.
const NoValue = 0xffffffff

// Sattr carries settable attributes; NoValue fields are left unchanged.
type Sattr struct {
	Mode  uint32
	UID   uint32
	GID   uint32
	Size  uint32
	Atime Time
	Mtime Time
}

// NewSattr returns an Sattr with every field set to NoValue.
func NewSattr() Sattr {
	nv := Time{NoValue, NoValue}
	return Sattr{Mode: NoValue, UID: NoValue, GID: NoValue, Size: NoValue, Atime: nv, Mtime: nv}
}

// Encode marshals the settable attributes.
func (s *Sattr) Encode(e *xdr.Encoder) {
	e.PutUint32(s.Mode)
	e.PutUint32(s.UID)
	e.PutUint32(s.GID)
	e.PutUint32(s.Size)
	putTime(e, s.Atime)
	putTime(e, s.Mtime)
}

// DecodeSattr unmarshals settable attributes.
func DecodeSattr(d *xdr.Decoder) (Sattr, error) {
	var s Sattr
	var err error
	if s.Mode, err = d.Uint32(); err != nil {
		return s, err
	}
	if s.UID, err = d.Uint32(); err != nil {
		return s, err
	}
	if s.GID, err = d.Uint32(); err != nil {
		return s, err
	}
	if s.Size, err = d.Uint32(); err != nil {
		return s, err
	}
	if s.Atime, err = getTime(d); err != nil {
		return s, err
	}
	s.Mtime, err = getTime(d)
	return s, err
}

func getName(d *xdr.Decoder) (string, error) {
	s, err := d.String()
	if err != nil {
		return "", err
	}
	if len(s) > MaxNameLen {
		return "", fmt.Errorf("%w: name %d bytes", ErrBadProto, len(s))
	}
	return s, nil
}
