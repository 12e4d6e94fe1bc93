package xdr

import (
	"testing"

	"renonfs/internal/mbuf"
)

// FuzzXDRDecode drives the decoder over arbitrary bytes with a mixed
// sequence of typed reads. Corrupt or truncated input must surface as an
// error from the failing read — never a panic, never an over-long
// allocation (Opaque/String are bounded by MaxItem).
func FuzzXDRDecode(f *testing.F) {
	valid := &mbuf.Chain{}
	e := NewEncoder(valid)
	e.PutUint32(42)
	e.PutUint64(1 << 40)
	e.PutBool(true)
	e.PutOpaque([]byte("file handle bytes"))
	e.PutString("lost+found")
	e.PutFixedOpaque(make([]byte, 32))
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})                         // huge opaque length
	f.Add([]byte{0x7f, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x01}) // length > remaining
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(mbuf.FromBytes(data))
		for {
			if _, err := d.Uint32(); err != nil {
				return
			}
			if b, err := d.Opaque(); err != nil {
				return
			} else if len(b) > d.maxItem() {
				t.Fatalf("Opaque returned %d bytes, above the %d item bound", len(b), d.maxItem())
			}
			if s, err := d.String(); err != nil {
				return
			} else if len(s) > d.maxItem() {
				t.Fatalf("String returned %d bytes, above the %d item bound", len(s), d.maxItem())
			}
			if _, err := d.Uint64(); err != nil {
				return
			}
			if _, err := d.Bool(); err != nil {
				return
			}
			if _, err := d.FixedOpaque(8); err != nil {
				return
			}
		}
	})
}

// FuzzXDRRoundTrip checks the encoder/decoder pair agree on what they
// exchanged, with the fuzzer choosing the payloads.
func FuzzXDRRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint64(0), []byte(nil), "")
	f.Add(uint32(1<<31), uint64(1)<<63, []byte{1, 2, 3}, "name")
	f.Fuzz(func(t *testing.T, a uint32, b uint64, op []byte, s string) {
		c := &mbuf.Chain{}
		e := NewEncoder(c)
		e.PutUint32(a)
		e.PutUint64(b)
		e.PutOpaque(op)
		e.PutString(s)
		d := NewDecoder(c)
		if got, err := d.Uint32(); err != nil || got != a {
			t.Fatalf("uint32: %v %v", got, err)
		}
		if got, err := d.Uint64(); err != nil || got != b {
			t.Fatalf("uint64: %v %v", got, err)
		}
		got, err := d.OpaqueCopy()
		if err != nil || string(got) != string(op) {
			t.Fatalf("opaque: %q %v", got, err)
		}
		if got, err := d.String(); err != nil || got != s {
			t.Fatalf("string: %q %v", got, err)
		}
	})
}
