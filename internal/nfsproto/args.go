package nfsproto

import (
	"fmt"

	"renonfs/internal/mbuf"
	"renonfs/internal/xdr"
)

// DiropArgs names a file within a directory (diropargs).
type DiropArgs struct {
	Dir  FH
	Name string
}

// Encode marshals the arguments.
func (a *DiropArgs) Encode(e *xdr.Encoder) {
	putFH(e, a.Dir)
	e.PutString(a.Name)
}

// DecodeDiropArgs unmarshals diropargs.
func DecodeDiropArgs(d *xdr.Decoder) (*DiropArgs, error) {
	a := &DiropArgs{}
	var err error
	if a.Dir, err = getFH(d); err != nil {
		return nil, err
	}
	a.Name, err = getName(d)
	return a, err
}

// GetattrArgs carries the handle for GETATTR (and STATFS).
type GetattrArgs struct{ File FH }

// Encode marshals the arguments.
func (a *GetattrArgs) Encode(e *xdr.Encoder) { putFH(e, a.File) }

// DecodeGetattrArgs unmarshals a bare file handle argument.
func DecodeGetattrArgs(d *xdr.Decoder) (*GetattrArgs, error) {
	fh, err := getFH(d)
	return &GetattrArgs{File: fh}, err
}

// SetattrArgs is the SETATTR argument (sattrargs).
type SetattrArgs struct {
	File FH
	Attr Sattr
}

// Encode marshals the arguments.
func (a *SetattrArgs) Encode(e *xdr.Encoder) {
	putFH(e, a.File)
	a.Attr.Encode(e)
}

// ReadArgs is the READ argument (readargs).
type ReadArgs struct {
	File       FH
	Offset     uint32
	Count      uint32
	TotalCount uint32 // unused, per RFC 1094
}

// Encode marshals the arguments.
func (a *ReadArgs) Encode(e *xdr.Encoder) {
	putFH(e, a.File)
	e.PutUint32(a.Offset)
	e.PutUint32(a.Count)
	e.PutUint32(a.TotalCount)
}

// DecodeReadArgs unmarshals readargs.
func DecodeReadArgs(d *xdr.Decoder) (*ReadArgs, error) {
	a := &ReadArgs{}
	var err error
	if a.File, err = getFH(d); err != nil {
		return nil, err
	}
	if a.Offset, err = d.Uint32(); err != nil {
		return nil, err
	}
	if a.Count, err = d.Uint32(); err != nil {
		return nil, err
	}
	if a.Count > MaxData {
		return nil, fmt.Errorf("%w: read count %d", ErrBadProto, a.Count)
	}
	a.TotalCount, err = d.Uint32()
	return a, err
}

// WriteArgs is the WRITE argument (writeargs). Data rides in an mbuf chain
// so bulk payload is never copied through an intermediate buffer.
type WriteArgs struct {
	File        FH
	BeginOffset uint32 // unused, per RFC 1094
	Offset      uint32
	TotalCount  uint32 // unused
	Data        *mbuf.Chain
}

// Encode marshals the arguments, consuming a.Data.
func (a *WriteArgs) Encode(e *xdr.Encoder) {
	putFH(e, a.File)
	e.PutUint32(a.BeginOffset)
	e.PutUint32(a.Offset)
	e.PutUint32(a.TotalCount)
	e.PutOpaqueChain(a.Data)
}

// DecodeWriteArgs unmarshals writeargs; Data is a zero-copy view into the
// request chain, valid only while that chain is — callers that retain the
// payload past the call must Clone it.
func DecodeWriteArgs(d *xdr.Decoder) (*WriteArgs, error) {
	a := &WriteArgs{}
	var err error
	if a.File, err = getFH(d); err != nil {
		return nil, err
	}
	if a.BeginOffset, err = d.Uint32(); err != nil {
		return nil, err
	}
	if a.Offset, err = d.Uint32(); err != nil {
		return nil, err
	}
	if a.TotalCount, err = d.Uint32(); err != nil {
		return nil, err
	}
	data, err := d.OpaqueView()
	if err != nil {
		return nil, err
	}
	if data.Len() > MaxData {
		data.Free()
		return nil, fmt.Errorf("%w: write %d bytes", ErrBadProto, data.Len())
	}
	a.Data = data
	return a, nil
}

// CreateArgs is the CREATE / MKDIR argument (createargs).
type CreateArgs struct {
	Where DiropArgs
	Attr  Sattr
}

// Encode marshals the arguments.
func (a *CreateArgs) Encode(e *xdr.Encoder) {
	a.Where.Encode(e)
	a.Attr.Encode(e)
}

// DecodeCreateArgs unmarshals createargs.
func DecodeCreateArgs(d *xdr.Decoder) (*CreateArgs, error) {
	w, err := DecodeDiropArgs(d)
	if err != nil {
		return nil, err
	}
	attr, err := DecodeSattr(d)
	if err != nil {
		return nil, err
	}
	return &CreateArgs{Where: *w, Attr: attr}, nil
}

// RenameArgs is the RENAME argument (renameargs).
type RenameArgs struct {
	From DiropArgs
	To   DiropArgs
}

// Encode marshals the arguments.
func (a *RenameArgs) Encode(e *xdr.Encoder) {
	a.From.Encode(e)
	a.To.Encode(e)
}

// DecodeRenameArgs unmarshals renameargs.
func DecodeRenameArgs(d *xdr.Decoder) (*RenameArgs, error) {
	from, err := DecodeDiropArgs(d)
	if err != nil {
		return nil, err
	}
	to, err := DecodeDiropArgs(d)
	if err != nil {
		return nil, err
	}
	return &RenameArgs{From: *from, To: *to}, nil
}

// LinkArgs is the LINK argument (linkargs).
type LinkArgs struct {
	From FH
	To   DiropArgs
}

// Encode marshals the arguments.
func (a *LinkArgs) Encode(e *xdr.Encoder) {
	putFH(e, a.From)
	a.To.Encode(e)
}

// DecodeLinkArgs unmarshals linkargs.
func DecodeLinkArgs(d *xdr.Decoder) (*LinkArgs, error) {
	from, err := getFH(d)
	if err != nil {
		return nil, err
	}
	to, err := DecodeDiropArgs(d)
	if err != nil {
		return nil, err
	}
	return &LinkArgs{From: from, To: *to}, nil
}

// SymlinkArgs is the SYMLINK argument (symlinkargs).
type SymlinkArgs struct {
	From DiropArgs
	To   string
	Attr Sattr
}

// Encode marshals the arguments.
func (a *SymlinkArgs) Encode(e *xdr.Encoder) {
	a.From.Encode(e)
	e.PutString(a.To)
	a.Attr.Encode(e)
}

// DecodeSymlinkArgs unmarshals symlinkargs.
func DecodeSymlinkArgs(d *xdr.Decoder) (*SymlinkArgs, error) {
	from, err := DecodeDiropArgs(d)
	if err != nil {
		return nil, err
	}
	to, err := d.String()
	if err != nil {
		return nil, err
	}
	if len(to) > MaxPathLen {
		return nil, fmt.Errorf("%w: symlink target %d bytes", ErrBadProto, len(to))
	}
	attr, err := DecodeSattr(d)
	if err != nil {
		return nil, err
	}
	return &SymlinkArgs{From: *from, To: to, Attr: attr}, nil
}

// ReaddirArgs is the READDIR argument (readdirargs).
type ReaddirArgs struct {
	Dir    FH
	Cookie uint32
	Count  uint32
}

// Encode marshals the arguments.
func (a *ReaddirArgs) Encode(e *xdr.Encoder) {
	putFH(e, a.Dir)
	e.PutUint32(a.Cookie)
	e.PutUint32(a.Count)
}

// DecodeReaddirArgs unmarshals readdirargs.
func DecodeReaddirArgs(d *xdr.Decoder) (*ReaddirArgs, error) {
	a := &ReaddirArgs{}
	var err error
	if a.Dir, err = getFH(d); err != nil {
		return nil, err
	}
	if a.Cookie, err = d.Uint32(); err != nil {
		return nil, err
	}
	a.Count, err = d.Uint32()
	return a, err
}
