package nfsproto

import (
	"fmt"

	"renonfs/internal/mbuf"
	"renonfs/internal/xdr"
)

// AttrRes is the attrstat result: status, then attributes on success. It is
// the result of GETATTR, SETATTR, WRITE and (with data) READ.
type AttrRes struct {
	Status Status
	Attr   *Fattr // nil unless Status == OK
}

// Encode marshals the result.
func (r *AttrRes) Encode(e *xdr.Encoder) {
	e.PutUint32(uint32(r.Status))
	if r.Status == OK {
		r.Attr.Encode(e)
	}
}

// DecodeAttrRes unmarshals attrstat.
func DecodeAttrRes(d *xdr.Decoder) (*AttrRes, error) {
	s, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	o := &struct {
		AttrRes
		attr Fattr
	}{AttrRes: AttrRes{Status: Status(s)}}
	if o.Status == OK {
		if err = decodeFattrInto(d, &o.attr); err != nil {
			return nil, err
		}
		o.Attr = &o.attr
	}
	return &o.AttrRes, nil
}

// DiropRes is the diropres result: status, then handle+attributes. It is
// the result of LOOKUP, CREATE and MKDIR.
type DiropRes struct {
	Status Status
	File   FH
	Attr   *Fattr
}

// Encode marshals the result.
func (r *DiropRes) Encode(e *xdr.Encoder) {
	e.PutUint32(uint32(r.Status))
	if r.Status == OK {
		putFH(e, r.File)
		r.Attr.Encode(e)
	}
}

// DecodeDiropRes unmarshals diropres.
func DecodeDiropRes(d *xdr.Decoder) (*DiropRes, error) {
	s, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	o := &struct {
		DiropRes
		attr Fattr
	}{DiropRes: DiropRes{Status: Status(s)}}
	if o.Status == OK {
		if o.File, err = getFH(d); err != nil {
			return nil, err
		}
		if err = decodeFattrInto(d, &o.attr); err != nil {
			return nil, err
		}
		o.Attr = &o.attr
	}
	return &o.DiropRes, nil
}

// StatusRes is the bare-status result of SETATTR-style procedures: REMOVE,
// RENAME, LINK, SYMLINK, RMDIR.
type StatusRes struct{ Status Status }

// Encode marshals the result.
func (r *StatusRes) Encode(e *xdr.Encoder) { e.PutUint32(uint32(r.Status)) }

// DecodeStatusRes unmarshals a bare status.
func DecodeStatusRes(d *xdr.Decoder) (*StatusRes, error) {
	s, err := d.Uint32()
	return &StatusRes{Status: Status(s)}, err
}

// ReadRes is the READ result. Data rides in an mbuf chain: the Reno server
// grafts buffer-cache pages into the reply without copying.
type ReadRes struct {
	Status Status
	Attr   *Fattr
	Data   *mbuf.Chain
}

// Encode marshals the result, consuming r.Data.
func (r *ReadRes) Encode(e *xdr.Encoder) {
	e.PutUint32(uint32(r.Status))
	if r.Status == OK {
		r.Attr.Encode(e)
		e.PutOpaqueChain(r.Data)
	}
}

// DecodeReadRes unmarshals the READ result; Data is a zero-copy view into
// the reply chain, valid only while that chain is — callers that retain the
// payload must copy it out (CopyTo) or Clone it first.
func DecodeReadRes(d *xdr.Decoder) (*ReadRes, error) {
	r, err := decodeReadHead(d)
	if err != nil || r.Status != OK {
		return r, err
	}
	data, err := d.OpaqueView()
	if err != nil {
		return nil, err
	}
	if data.Len() > MaxData {
		data.Free()
		return nil, fmt.Errorf("%w: read result %d bytes", ErrBadProto, data.Len())
	}
	r.Data = data
	return r, nil
}

// DecodeReadResTo decodes a READ result for a caller that keeps the data:
// it is copied into dst, and n is its length, with no view of the reply
// made. Data longer than dst is an error.
func DecodeReadResTo(d *xdr.Decoder, dst []byte) (r *ReadRes, n int, err error) {
	if r, err = decodeReadHead(d); err != nil || r.Status != OK {
		return r, 0, err
	}
	if n, err = d.OpaqueTo(dst); err != nil {
		return nil, 0, err
	}
	return r, n, nil
}

// decodeReadHead decodes a READ result up to its data: the status and, on
// success, the attributes, allocated together with the result.
func decodeReadHead(d *xdr.Decoder) (*ReadRes, error) {
	s, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	o := &struct {
		ReadRes
		attr Fattr
	}{ReadRes: ReadRes{Status: Status(s)}}
	if o.Status == OK {
		if err = decodeFattrInto(d, &o.attr); err != nil {
			return nil, err
		}
		o.Attr = &o.attr
	}
	return &o.ReadRes, nil
}

// ReadlinkRes is the READLINK result.
type ReadlinkRes struct {
	Status Status
	Path   string
}

// Encode marshals the result.
func (r *ReadlinkRes) Encode(e *xdr.Encoder) {
	e.PutUint32(uint32(r.Status))
	if r.Status == OK {
		e.PutString(r.Path)
	}
}

// DecodeReadlinkRes unmarshals the READLINK result.
func DecodeReadlinkRes(d *xdr.Decoder) (*ReadlinkRes, error) {
	s, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	r := &ReadlinkRes{Status: Status(s)}
	if r.Status == OK {
		if r.Path, err = d.String(); err != nil {
			return nil, err
		}
		if len(r.Path) > MaxPathLen {
			return nil, fmt.Errorf("%w: readlink %d bytes", ErrBadProto, len(r.Path))
		}
	}
	return r, nil
}

// DirEntry is one READDIR entry.
type DirEntry struct {
	FileID uint32
	Name   string
	Cookie uint32 // cookie of the *next* entry position
}

// ReaddirRes is the READDIR result.
type ReaddirRes struct {
	Status  Status
	Entries []DirEntry
	EOF     bool
}

// Encode marshals the result using the XDR linked-list convention.
func (r *ReaddirRes) Encode(e *xdr.Encoder) {
	e.PutUint32(uint32(r.Status))
	if r.Status != OK {
		return
	}
	for _, ent := range r.Entries {
		e.PutBool(true) // entry follows
		e.PutUint32(ent.FileID)
		e.PutString(ent.Name)
		e.PutUint32(ent.Cookie)
	}
	e.PutBool(false) // no more entries
	e.PutBool(r.EOF)
}

// DecodeReaddirRes unmarshals the READDIR result.
func DecodeReaddirRes(d *xdr.Decoder) (*ReaddirRes, error) {
	s, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	r := &ReaddirRes{Status: Status(s)}
	if r.Status != OK {
		return r, nil
	}
	for {
		more, err := d.Bool()
		if err != nil {
			return nil, err
		}
		if !more {
			break
		}
		var ent DirEntry
		if ent.FileID, err = d.Uint32(); err != nil {
			return nil, err
		}
		if ent.Name, err = getName(d); err != nil {
			return nil, err
		}
		if ent.Cookie, err = d.Uint32(); err != nil {
			return nil, err
		}
		r.Entries = append(r.Entries, ent)
		if len(r.Entries) > 4096 {
			return nil, fmt.Errorf("%w: unbounded readdir reply", ErrBadProto)
		}
	}
	if r.EOF, err = d.Bool(); err != nil {
		return nil, err
	}
	return r, nil
}

// StatfsRes is the STATFS result (fsstat).
type StatfsRes struct {
	Status Status
	TSize  uint32 // optimum transfer size
	BSize  uint32 // block size
	Blocks uint32
	BFree  uint32
	BAvail uint32
}

// Encode marshals the result.
func (r *StatfsRes) Encode(e *xdr.Encoder) {
	e.PutUint32(uint32(r.Status))
	if r.Status != OK {
		return
	}
	e.PutUint32(r.TSize)
	e.PutUint32(r.BSize)
	e.PutUint32(r.Blocks)
	e.PutUint32(r.BFree)
	e.PutUint32(r.BAvail)
}

// DecodeStatfsRes unmarshals the STATFS result.
func DecodeStatfsRes(d *xdr.Decoder) (*StatfsRes, error) {
	s, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	r := &StatfsRes{Status: Status(s)}
	if r.Status != OK {
		return r, nil
	}
	fields := []*uint32{&r.TSize, &r.BSize, &r.Blocks, &r.BFree, &r.BAvail}
	for _, p := range fields {
		if *p, err = d.Uint32(); err != nil {
			return nil, err
		}
	}
	return r, nil
}
