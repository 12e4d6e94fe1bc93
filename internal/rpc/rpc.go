// Package rpc implements the Sun RPC version 2 message layer (RFC 1057
// subset) used by NFS: CALL and REPLY headers with AUTH_NULL / AUTH_UNIX
// credentials, marshalled directly in mbuf chains, plus the record-marking
// standard used to delimit RPC messages on stream transports such as TCP.
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"

	"renonfs/internal/mbuf"
	"renonfs/internal/xdr"
)

// Version is the Sun RPC protocol version implemented.
const Version = 2

// Message types.
const (
	MsgCall  = 0
	MsgReply = 1
)

// Reply status.
const (
	MsgAccepted = 0
	MsgDenied   = 1
)

// Accept status for accepted replies.
const (
	Success      = 0
	ProgUnavail  = 1
	ProgMismatch = 2
	ProcUnavail  = 3
	GarbageArgs  = 4
	SystemErr    = 5
)

// Auth flavors.
const (
	AuthNone = 0
	AuthUnix = 1
)

// ErrBadMessage reports a structurally invalid RPC message.
var ErrBadMessage = errors.New("rpc: bad message")

// Auth is an opaque authenticator.
type Auth struct {
	Flavor uint32
	Body   []byte
}

// UnixCred is the AUTH_UNIX credential body.
type UnixCred struct {
	Stamp   uint32
	Machine string
	UID     uint32
	GID     uint32
	GIDs    []uint32
}

// Encode marshals the credential into an Auth.
func (u *UnixCred) Encode() Auth {
	c := &mbuf.Chain{}
	e := xdr.NewEncoder(c)
	e.PutUint32(u.Stamp)
	e.PutString(u.Machine)
	e.PutUint32(u.UID)
	e.PutUint32(u.GID)
	e.PutUint32(uint32(len(u.GIDs)))
	for _, g := range u.GIDs {
		e.PutUint32(g)
	}
	return Auth{Flavor: AuthUnix, Body: c.Bytes()}
}

// DecodeUnixCred unmarshals an AUTH_UNIX body.
func DecodeUnixCred(body []byte) (*UnixCred, error) {
	d := xdr.NewDecoder(mbuf.FromBytes(body))
	u := &UnixCred{}
	var err error
	if u.Stamp, err = d.Uint32(); err != nil {
		return nil, err
	}
	if u.Machine, err = d.String(); err != nil {
		return nil, err
	}
	if u.UID, err = d.Uint32(); err != nil {
		return nil, err
	}
	if u.GID, err = d.Uint32(); err != nil {
		return nil, err
	}
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if n > 16 {
		return nil, fmt.Errorf("%w: %d gids", ErrBadMessage, n)
	}
	for i := uint32(0); i < n; i++ {
		g, err := d.Uint32()
		if err != nil {
			return nil, err
		}
		u.GIDs = append(u.GIDs, g)
	}
	return u, nil
}

func putAuth(e *xdr.Encoder, a Auth) {
	e.PutUint32(a.Flavor)
	e.PutOpaque(a.Body)
}

func getAuth(d *xdr.Decoder) (Auth, error) {
	var a Auth
	f, err := d.Uint32()
	if err != nil {
		return a, err
	}
	body, err := d.Opaque()
	if err != nil {
		return a, err
	}
	if len(body) > 400 {
		return a, fmt.Errorf("%w: auth body %d bytes", ErrBadMessage, len(body))
	}
	a.Flavor = f
	// The copy must stay: Opaque may return the dissector's straddle
	// scratch, which the second getAuth of a header would overwrite. For
	// the hot path (AUTH_NULL, empty body) append allocates nothing.
	a.Body = append([]byte(nil), body...)
	return a, nil
}

// Call is a parsed RPC CALL header. The procedure arguments follow it in
// the same chain.
type Call struct {
	XID  uint32
	Prog uint32
	Vers uint32
	Proc uint32
	Cred Auth
	Verf Auth
}

// EncodeCall writes the CALL header onto c; the caller appends the
// procedure arguments afterwards.
func EncodeCall(c *mbuf.Chain, call *Call) {
	e := xdr.NewEncoder(c)
	e.PutUint32(call.XID)
	e.PutUint32(MsgCall)
	e.PutUint32(Version)
	e.PutUint32(call.Prog)
	e.PutUint32(call.Vers)
	e.PutUint32(call.Proc)
	putAuth(e, call.Cred)
	putAuth(e, call.Verf)
}

// DecodeCall parses a CALL header from d, leaving the cursor at the start
// of the procedure arguments.
func DecodeCall(d *xdr.Decoder) (*Call, error) {
	call := &Call{}
	if err := DecodeCallInto(d, call); err != nil {
		return nil, err
	}
	return call, nil
}

// DecodeCallInto parses a CALL header into a caller-provided struct, letting
// per-request dispatch loops keep the header off the heap.
func DecodeCallInto(d *xdr.Decoder, call *Call) error {
	var err error
	if call.XID, err = d.Uint32(); err != nil {
		return err
	}
	mt, err := d.Uint32()
	if err != nil {
		return err
	}
	if mt != MsgCall {
		return fmt.Errorf("%w: type %d, want CALL", ErrBadMessage, mt)
	}
	v, err := d.Uint32()
	if err != nil {
		return err
	}
	if v != Version {
		return fmt.Errorf("%w: rpc version %d", ErrBadMessage, v)
	}
	if call.Prog, err = d.Uint32(); err != nil {
		return err
	}
	if call.Vers, err = d.Uint32(); err != nil {
		return err
	}
	if call.Proc, err = d.Uint32(); err != nil {
		return err
	}
	if call.Cred, err = getAuth(d); err != nil {
		return err
	}
	if call.Verf, err = getAuth(d); err != nil {
		return err
	}
	return nil
}

// Reply is a parsed RPC REPLY header. For accepted/success replies the
// procedure results follow in the chain.
type Reply struct {
	XID        uint32
	Denied     bool
	AcceptStat uint32
	Verf       Auth
}

// EncodeReply writes an accepted REPLY header with the given accept status;
// the caller appends results for Success.
func EncodeReply(c *mbuf.Chain, xid, acceptStat uint32) {
	e := xdr.NewEncoder(c)
	e.PutUint32(xid)
	e.PutUint32(MsgReply)
	e.PutUint32(MsgAccepted)
	putAuth(e, Auth{}) // verifier
	e.PutUint32(acceptStat)
}

// DecodeReply parses a REPLY header, leaving the cursor at the results.
func DecodeReply(d *xdr.Decoder) (*Reply, error) {
	r := &Reply{}
	if err := DecodeReplyInto(d, r); err != nil {
		return nil, err
	}
	return r, nil
}

// DecodeReplyInto parses a REPLY header into a caller-provided struct, the
// allocation-free counterpart of DecodeReply for per-reply hot loops.
func DecodeReplyInto(d *xdr.Decoder, r *Reply) error {
	var err error
	if r.XID, err = d.Uint32(); err != nil {
		return err
	}
	mt, err := d.Uint32()
	if err != nil {
		return err
	}
	if mt != MsgReply {
		return fmt.Errorf("%w: type %d, want REPLY", ErrBadMessage, mt)
	}
	stat, err := d.Uint32()
	if err != nil {
		return err
	}
	switch stat {
	case MsgAccepted:
		if r.Verf, err = getAuth(d); err != nil {
			return err
		}
		if r.AcceptStat, err = d.Uint32(); err != nil {
			return err
		}
	case MsgDenied:
		r.Denied = true
	default:
		return fmt.Errorf("%w: reply stat %d", ErrBadMessage, stat)
	}
	return nil
}

// PeekXID extracts the transaction id from a message chain without
// disturbing it, used by transports to match replies to requests.
func PeekXID(c *mbuf.Chain) (uint32, error) {
	var d xdr.Decoder
	d.Reset(c)
	return d.Uint32()
}

// --- Record marking (RFC 1057 §10) -------------------------------------

// lastFrag is the high bit of a record mark, set on the final fragment.
const lastFrag = 0x80000000

// MaxRecord bounds a record-marked message — the assembled record, however
// many fragments carry it; larger records indicate stream desynchronization.
const MaxRecord = 1 << 20

// AddRecordMark prepends a single-fragment record mark to the message.
func AddRecordMark(c *mbuf.Chain) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], lastFrag|uint32(c.Len()))
	c.Prepend(hdr[:])
}

// recordBuf is a scanner's initial buffer: one full-size read, several 8 KB
// WRITE records. A larger record grows it (to at most twice MaxRecord).
const recordBuf = 64 << 10

// RecordScanner reassembles record-marked messages from a byte stream, in
// place. It owns the stream buffer: the transport reads straight into
// Space() and reports the count with Fill, then takes the complete records
// one at a time from Next. A single-fragment record that arrived whole is
// returned as the bytes the read put there — nothing is copied, nothing
// allocated. Only two things move: the fragments of a multi-fragment
// record, each closed up over the mark that separated it from the one
// before, and the incomplete tail of a fill, which the next Space slides to
// the front of the buffer once. It tolerates arbitrary segmentation,
// including marks split across reads.
//
// Lifetime rule: a record is valid until the next Space — "until the next
// read". Next itself never disturbs a record already handed out.
type RecordScanner struct {
	buf []byte
	// buf[r:w] is the stream not yet scanned, r at a record mark. The record
	// under assembly is buf[rec:rec+n], fragments already closed up, with
	// rec+n <= r; while n is 0 nothing is held and rec is meaningless.
	r, w, rec, n int
	// moved counts bytes copied within (or between) buffers, for the tests
	// that pin ingest to zero moves per whole record.
	moved int
}

// ErrRecordTooBig reports a record that would exceed MaxRecord once assembled.
var ErrRecordTooBig = errors.New("rpc: record exceeds maximum size")

// Space returns the buffer's free tail, at least need bytes long, for the
// caller to read stream data into; Fill then says how much arrived. It
// invalidates every record Next has returned.
func (s *RecordScanner) Space(need int) []byte {
	if s.n == 0 {
		s.rec = s.r
	}
	if s.rec > 0 || s.rec+s.n < s.r {
		// Slide what is live to the front: the assembled fragments, then the
		// unscanned tail (often empty) right behind them.
		s.moved += copy(s.buf, s.buf[s.rec:s.rec+s.n])
		s.moved += copy(s.buf[s.n:], s.buf[s.r:s.w])
		s.r, s.w, s.rec = s.n, s.n+s.w-s.r, 0
	}
	if len(s.buf)-s.w < need {
		size := max(2*len(s.buf), s.w+need, recordBuf)
		s.moved += s.w
		s.buf = append(make([]byte, 0, size), s.buf[:s.w]...)[:size]
	}
	return s.buf[s.w:]
}

// Fill records that n bytes were read into the slice Space returned.
func (s *RecordScanner) Fill(n int) { s.w += n }

// Next returns the next complete record, or nil when the buffered stream
// holds none (an empty record is a non-nil empty slice).
func (s *RecordScanner) Next() ([]byte, error) {
	for s.w-s.r >= 4 {
		mark := binary.BigEndian.Uint32(s.buf[s.r:])
		m := int(mark &^ lastFrag)
		if m > MaxRecord-s.n {
			return nil, ErrRecordTooBig
		}
		if s.w-s.r < 4+m {
			break
		}
		if s.n == 0 {
			s.rec = s.r + 4
		} else {
			s.moved += copy(s.buf[s.rec+s.n:], s.buf[s.r+4:s.r+4+m])
		}
		s.n += m
		s.r += 4 + m
		if mark&lastFrag != 0 {
			rec := s.buf[s.rec : s.rec+s.n : s.rec+s.n]
			s.n = 0
			return rec, nil
		}
	}
	return nil, nil
}

// Buffered returns the number of stream bytes held that no returned record
// has accounted for: assembled fragments plus unscanned stream.
func (s *RecordScanner) Buffered() int { return s.n + s.w - s.r }

// ChainScanner is RecordScanner for a stream that arrives as mbuf chains (a
// simulated TCP connection's segments): it takes each chain whole and cuts
// the records out of the stream as chains that share its storage, so no
// byte of a record moves; only a mark split across mbufs is gathered. A
// record stays valid for as long as its holder keeps it.
type ChainScanner struct {
	stream mbuf.Chain // not yet scanned, at a record mark
	rec    mbuf.Chain // the fragments of the record under assembly
}

// Feed appends c to the stream; c is emptied.
func (s *ChainScanner) Feed(c *mbuf.Chain) { s.stream.AppendChain(c) }

// Next returns the next complete record, or nil when the stream holds none
// (an empty record is a non-nil empty chain).
func (s *ChainScanner) Next() (*mbuf.Chain, error) {
	var d mbuf.Dissector
	for s.stream.Len() >= 4 {
		d.Reset(&s.stream)
		b, _ := d.Next(4)
		mark := binary.BigEndian.Uint32(b)
		m := int(mark &^ lastFrag)
		if m > MaxRecord-s.rec.Len() {
			return nil, ErrRecordTooBig
		}
		if s.stream.Len() < 4+m {
			break
		}
		s.stream.TrimFront(4)
		s.stream.MoveFront(&s.rec, m)
		if mark&lastFrag != 0 {
			rec := &mbuf.Chain{}
			rec.AppendChain(&s.rec)
			return rec, nil
		}
	}
	return nil, nil
}
