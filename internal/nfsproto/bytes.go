package nfsproto

import "renonfs/internal/xdr"

// Flat-buffer encoders for the server's header-only procedures. Each
// EncodeBytes mirrors its chain-based Encode byte-for-byte —
// TestEncodeBytesMatchesEncode holds the pair together — but appends to a
// caller-provided buffer via xdr.ByteWriter instead of assembling an mbuf
// chain. Only the result types a header-only procedure can produce get
// one; payload-bearing results (READ, WRITE) stay on the chain path where
// loaning lives. A READDIR listing streams: one DirEntry.EncodeBytes per
// entry, then EncodeDirEndBytes.

func putTimeBytes(w *xdr.ByteWriter, t Time) {
	w.PutUint32(t.Sec)
	w.PutUint32(t.USec)
}

// EncodeBytes marshals the attributes into w.
func (f *Fattr) EncodeBytes(w *xdr.ByteWriter) {
	w.PutUint32(uint32(f.Type))
	w.PutUint32(f.Mode)
	w.PutUint32(f.Nlink)
	w.PutUint32(f.UID)
	w.PutUint32(f.GID)
	w.PutUint32(f.Size)
	w.PutUint32(f.BlockSize)
	w.PutUint32(f.Rdev)
	w.PutUint32(f.Blocks)
	w.PutUint32(f.FSID)
	w.PutUint32(f.FileID)
	putTimeBytes(w, f.Atime)
	putTimeBytes(w, f.Mtime)
	putTimeBytes(w, f.Ctime)
}

// EncodeBytes marshals the attrstat result into w.
func (r *AttrRes) EncodeBytes(w *xdr.ByteWriter) {
	w.PutUint32(uint32(r.Status))
	if r.Status == OK {
		r.Attr.EncodeBytes(w)
	}
}

// EncodeBytes marshals the diropres result into w.
func (r *DiropRes) EncodeBytes(w *xdr.ByteWriter) {
	w.PutUint32(uint32(r.Status))
	if r.Status == OK {
		w.PutFixedOpaque(r.File[:])
		r.Attr.EncodeBytes(w)
	}
}

// EncodeBytes marshals the READLINK result into w.
func (r *ReadlinkRes) EncodeBytes(w *xdr.ByteWriter) {
	w.PutUint32(uint32(r.Status))
	if r.Status == OK {
		w.PutString(r.Path)
	}
}

// EncodeBytes marshals one element of READDIR's entry list into w.
func (ent *DirEntry) EncodeBytes(w *xdr.ByteWriter) {
	w.PutBool(true) // entry follows
	w.PutUint32(ent.FileID)
	w.PutString(ent.Name)
	w.PutUint32(ent.Cookie)
}

// EncodeDirEndBytes terminates a streamed entry list and appends the EOF
// flag.
func EncodeDirEndBytes(w *xdr.ByteWriter, eof bool) {
	w.PutBool(false) // no more entries
	w.PutBool(eof)
}

// EncodeBytes marshals the STATFS result into w.
func (r *StatfsRes) EncodeBytes(w *xdr.ByteWriter) {
	w.PutUint32(uint32(r.Status))
	if r.Status != OK {
		return
	}
	w.PutUint32(r.TSize)
	w.PutUint32(r.BSize)
	w.PutUint32(r.Blocks)
	w.PutUint32(r.BFree)
	w.PutUint32(r.BAvail)
}

// EncodeBytes marshals the MNT result into w.
func (r *MntRes) EncodeBytes(w *xdr.ByteWriter) {
	w.PutUint32(r.Status)
	if r.Status == 0 {
		w.PutFixedOpaque(r.File[:])
	}
}
