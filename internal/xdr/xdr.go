// Package xdr implements the subset of the External Data Representation
// (RFC 1014) used by Sun RPC and the NFS version 2 protocol, operating
// directly on mbuf chains via the build/dissect cursors so that no
// intermediate serialization buffer exists — the property the 4.3BSD Reno
// implementation relies on to avoid memory-to-memory copies.
//
// All quantities are big-endian and all items are padded to 4-byte
// alignment, per the XDR standard.
package xdr

import (
	"encoding/binary"
	"errors"
	"fmt"

	"renonfs/internal/mbuf"
)

// ErrBadValue reports a malformed XDR item (e.g. an absurd string length).
var ErrBadValue = errors.New("xdr: bad value")

// Pad returns n rounded up to 4-byte alignment.
func Pad(n int) int { return (n + 3) &^ 3 }

// Encoder writes XDR items onto an mbuf chain. The mbuf Builder is embedded
// by value, so one allocation covers both (and Reset allows reuse).
type Encoder struct {
	b mbuf.Builder
}

// NewEncoder returns an Encoder appending to chain c.
func NewEncoder(c *mbuf.Chain) *Encoder {
	e := &Encoder{}
	e.b.Reset(c)
	return e
}

// Reset re-points the encoder at c for reuse without allocation.
func (e *Encoder) Reset(c *mbuf.Chain) { e.b.Reset(c) }

// Chain returns the chain being appended to.
func (e *Encoder) Chain() *mbuf.Chain { return e.b.Chain() }

// PutUint32 encodes a 32-bit unsigned integer.
func (e *Encoder) PutUint32(v uint32) {
	binary.BigEndian.PutUint32(e.b.Next(4), v)
}

// PutInt32 encodes a 32-bit signed integer.
func (e *Encoder) PutInt32(v int32) { e.PutUint32(uint32(v)) }

// PutUint64 encodes a 64-bit unsigned integer (XDR hyper).
func (e *Encoder) PutUint64(v uint64) {
	binary.BigEndian.PutUint64(e.b.Next(8), v)
}

// PutBool encodes an XDR boolean.
func (e *Encoder) PutBool(v bool) {
	if v {
		e.PutUint32(1)
	} else {
		e.PutUint32(0)
	}
}

// PutFixedOpaque encodes opaque data of known, agreed length (no length
// prefix), padded to 4 bytes.
func (e *Encoder) PutFixedOpaque(p []byte) {
	e.b.WriteBytes(p)
	if pad := Pad(len(p)) - len(p); pad > 0 {
		b := e.b.Next(pad)
		for i := range b {
			b[i] = 0
		}
	}
}

// PutOpaque encodes variable-length opaque data: length prefix, data, pad.
func (e *Encoder) PutOpaque(p []byte) {
	e.PutUint32(uint32(len(p)))
	e.PutFixedOpaque(p)
}

// PutOpaqueChain encodes variable-length opaque data whose payload is
// already in an mbuf chain, grafting the chain on without copying (the way
// the Reno server lends buffer-cache pages into the reply). The chain is
// consumed.
func (e *Encoder) PutOpaqueChain(c *mbuf.Chain) {
	n := c.Len()
	e.PutUint32(uint32(n))
	e.Chain().AppendChain(c)
	if pad := Pad(n) - n; pad > 0 {
		b := e.b.Next(pad)
		for i := range b {
			b[i] = 0
		}
	}
}

// PutString encodes an XDR string.
func (e *Encoder) PutString(s string) {
	e.PutUint32(uint32(len(s)))
	e.PutFixedOpaque([]byte(s))
}

// Decoder reads XDR items from an mbuf chain. The mbuf Dissector is embedded
// by value (one allocation, inline straddle scratch included).
type Decoder struct {
	d   mbuf.Dissector
	src *mbuf.Chain
	// MaxItem bounds variable-length items to guard against garbage
	// lengths; zero means the package default (1 MiB).
	MaxItem int
}

const defaultMaxItem = 1 << 20

// NewDecoder returns a Decoder reading from the start of c.
func NewDecoder(c *mbuf.Chain) *Decoder {
	d := &Decoder{}
	d.Reset(c)
	return d
}

// Reset re-points the decoder at the start of c for reuse without
// allocation.
func (d *Decoder) Reset(c *mbuf.Chain) { d.d.Reset(c); d.src = c }

// Source returns the chain the decoder was last pointed at.
func (d *Decoder) Source() *mbuf.Chain { return d.src }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return d.d.Remaining() }

// Uint32 decodes a 32-bit unsigned integer.
func (d *Decoder) Uint32() (uint32, error) {
	p, err := d.d.Next(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(p), nil
}

// Int32 decodes a 32-bit signed integer.
func (d *Decoder) Int32() (int32, error) {
	v, err := d.Uint32()
	return int32(v), err
}

// Uint64 decodes a 64-bit unsigned integer.
func (d *Decoder) Uint64() (uint64, error) {
	p, err := d.d.Next(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(p), nil
}

// Bool decodes an XDR boolean.
func (d *Decoder) Bool() (bool, error) {
	v, err := d.Uint32()
	if err != nil {
		return false, err
	}
	switch v {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, fmt.Errorf("%w: bool discriminant %d", ErrBadValue, v)
	}
}

// FixedOpaque decodes opaque data of known length. The returned slice is
// only valid until the next decode call.
func (d *Decoder) FixedOpaque(n int) ([]byte, error) {
	p, err := d.d.Next(n)
	if err != nil {
		return nil, err
	}
	if pad := Pad(n) - n; pad > 0 {
		if err := d.d.Skip(pad); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (d *Decoder) maxItem() int {
	if d.MaxItem > 0 {
		return d.MaxItem
	}
	return defaultMaxItem
}

// Opaque decodes variable-length opaque data. The returned slice is only
// valid until the next decode call.
func (d *Decoder) Opaque() ([]byte, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if int(n) > d.maxItem() {
		return nil, fmt.Errorf("%w: opaque length %d", ErrBadValue, n)
	}
	return d.FixedOpaque(int(n))
}

// OpaqueCopy decodes variable-length opaque data into a fresh slice the
// caller may retain.
func (d *Decoder) OpaqueCopy() ([]byte, error) {
	p, err := d.Opaque()
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(p))
	copy(out, p)
	return out, nil
}

// OpaqueView decodes variable-length opaque data as a zero-copy view into
// the source chain — the bulk counterpart of Opaque. The returned chain
// shares storage with the message being decoded, so it remains valid exactly
// as long as that chain does; callers that outlive the message must Clone.
// No bytes are copied regardless of payload size or mbuf layout.
func (d *Decoder) OpaqueView() (*mbuf.Chain, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if int(n) > d.maxItem() {
		return nil, fmt.Errorf("%w: opaque length %d", ErrBadValue, n)
	}
	c, err := d.d.NextChain(int(n))
	if err != nil {
		return nil, err
	}
	if pad := Pad(int(n)) - int(n); pad > 0 {
		if err := d.d.Skip(pad); err != nil {
			c.Free()
			return nil, err
		}
	}
	return c, nil
}

// OpaqueTo decodes variable-length opaque data into dst and returns its
// length: the copy a caller that keeps the bytes makes anyway, taken from
// the source chain without a view. Data longer than dst is an error.
func (d *Decoder) OpaqueTo(dst []byte) (int, error) {
	n, err := d.Uint32()
	if err != nil {
		return 0, err
	}
	if int(n) > len(dst) {
		return 0, fmt.Errorf("%w: opaque length %d past %d", ErrBadValue, n, len(dst))
	}
	if err := d.d.CopyOut(dst[:n]); err != nil {
		return 0, err
	}
	if pad := Pad(int(n)) - int(n); pad > 0 {
		if err := d.d.Skip(pad); err != nil {
			return 0, err
		}
	}
	return int(n), nil
}

// String decodes an XDR string.
func (d *Decoder) String() (string, error) {
	p, err := d.Opaque()
	if err != nil {
		return "", err
	}
	return string(p), nil
}

// Skip advances past n raw bytes (already-aligned callers only).
func (d *Decoder) Skip(n int) error { return d.d.Skip(n) }
