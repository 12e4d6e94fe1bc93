package rpc

import "renonfs/internal/xdr"

// PeekedCall is the part of a CALL header a dispatcher needs to classify a
// datagram: enough to route it, nothing that allocates. The credential and
// verifier bodies are skipped, not captured — the procedures eligible for
// shallow dispatch never consult them (the full DecodeCallInto path still
// does for everything else).
type PeekedCall struct {
	XID  uint32
	Prog uint32
	Vers uint32
	Proc uint32
}

// maxAuthBody mirrors getAuth's RFC 1057 opaque-auth bound.
const maxAuthBody = 400

// PeekCallHeader classifies a raw datagram: it parses the fixed CALL
// header fields into h and skips both authenticators, returning the offset
// of the procedure arguments. ok is false when b is not a structurally
// valid RPC CALL — undecodable datagrams take the generic path, whose full
// decoder owns the error handling. No allocation, no mbuf staging.
func PeekCallHeader(b []byte, h *PeekedCall) (argOff int, ok bool) {
	var r xdr.ByteReader
	r.ResetBytes(b)
	h.XID = r.Uint32()
	mt := r.Uint32()
	rv := r.Uint32()
	h.Prog = r.Uint32()
	h.Vers = r.Uint32()
	h.Proc = r.Uint32()
	if !r.OK() || mt != MsgCall || rv != Version {
		return 0, false
	}
	for i := 0; i < 2; i++ { // cred, then verf
		r.Uint32() // flavor
		if r.Opaque(maxAuthBody); !r.OK() {
			return 0, false
		}
	}
	return r.Offset(), true
}

// AppendReplyHeader writes an accepted REPLY header to w, byte-for-byte
// what EncodeReply produces on a chain
// (TestAppendReplyHeaderMatchesEncodeReply pins this).
func AppendReplyHeader(w *xdr.ByteWriter, xid, acceptStat uint32) {
	w.PutUint32(xid)
	w.PutUint32(MsgReply)
	w.PutUint32(MsgAccepted)
	w.PutUint32(0) // verifier flavor (AUTH_NULL)
	w.PutUint32(0) // verifier body length
	w.PutUint32(acceptStat)
}
