package xdr

import (
	"bytes"
	"testing"
	"testing/quick"

	"renonfs/internal/mbuf"
	"renonfs/internal/metrics"
)

func TestPad(t *testing.T) {
	cases := map[int]int{0: 0, 1: 4, 2: 4, 3: 4, 4: 4, 5: 8, 8: 8, 9: 12}
	for in, want := range cases {
		if got := Pad(in); got != want {
			t.Errorf("Pad(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestScalarRoundTrip(t *testing.T) {
	c := &mbuf.Chain{}
	e := NewEncoder(c)
	e.PutUint32(0xdeadbeef)
	e.PutInt32(-42)
	e.PutUint64(1 << 40)
	e.PutBool(true)
	e.PutBool(false)

	d := NewDecoder(c)
	if v, err := d.Uint32(); err != nil || v != 0xdeadbeef {
		t.Fatalf("Uint32 = %x, %v", v, err)
	}
	if v, err := d.Int32(); err != nil || v != -42 {
		t.Fatalf("Int32 = %d, %v", v, err)
	}
	if v, err := d.Uint64(); err != nil || v != 1<<40 {
		t.Fatalf("Uint64 = %d, %v", v, err)
	}
	if v, err := d.Bool(); err != nil || !v {
		t.Fatalf("Bool = %v, %v", v, err)
	}
	if v, err := d.Bool(); err != nil || v {
		t.Fatalf("Bool = %v, %v", v, err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("remaining = %d", d.Remaining())
	}
}

func TestBoolBadDiscriminant(t *testing.T) {
	c := &mbuf.Chain{}
	NewEncoder(c).PutUint32(7)
	if _, err := NewDecoder(c).Bool(); err == nil {
		t.Fatal("expected error for bad bool")
	}
}

func TestOpaqueRoundTrip(t *testing.T) {
	f := func(p []byte) bool {
		c := &mbuf.Chain{}
		e := NewEncoder(c)
		e.PutOpaque(p)
		e.PutUint32(0x1234) // sentinel proves alignment was respected
		if c.Len() != 4+Pad(len(p))+4 {
			return false
		}
		d := NewDecoder(c)
		got, err := d.Opaque()
		if err != nil || !bytes.Equal(got, p) {
			return false
		}
		s, err := d.Uint32()
		return err == nil && s == 0x1234 && d.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStringRoundTrip(t *testing.T) {
	f := func(s string) bool {
		c := &mbuf.Chain{}
		e := NewEncoder(c)
		e.PutString(s)
		e.PutString("after")
		d := NewDecoder(c)
		g1, err1 := d.String()
		g2, err2 := d.String()
		return err1 == nil && err2 == nil && g1 == s && g2 == "after"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFixedOpaqueAlignment(t *testing.T) {
	c := &mbuf.Chain{}
	e := NewEncoder(c)
	e.PutFixedOpaque([]byte{1, 2, 3}) // pads to 4
	e.PutUint32(9)
	d := NewDecoder(c)
	p, err := d.FixedOpaque(3)
	if err != nil || len(p) != 3 || p[0] != 1 {
		t.Fatalf("FixedOpaque = %v, %v", p, err)
	}
	if v, err := d.Uint32(); err != nil || v != 9 {
		t.Fatalf("Uint32 after fixed opaque = %d, %v", v, err)
	}
}

func TestOpaqueChainZeroCopy(t *testing.T) {
	reg := metrics.NewRegistry()
	mbuf.CountInto(reg)
	defer mbuf.CountInto(nil)
	payload := &mbuf.Chain{}
	page := make([]byte, 2048)
	for i := range page {
		page[i] = byte(i)
	}
	payload.AppendExt(page)

	c := &mbuf.Chain{}
	e := NewEncoder(c)
	e.PutOpaqueChain(payload)
	// Only the 4-byte length should have been materialized by copying.
	if copied := reg.Counter("mbuf.copied_bytes").Value(); copied > 16 {
		t.Fatalf("PutOpaqueChain copied %d bytes", copied)
	}
	d := NewDecoder(c)
	d.MaxItem = 4096
	got, err := d.Opaque()
	if err != nil || len(got) != 2048 {
		t.Fatalf("Opaque = len %d, %v", len(got), err)
	}
	if got[0] != 0 || got[100] != 100 {
		t.Fatal("payload corrupted")
	}
}

func TestGarbageLengthRejected(t *testing.T) {
	c := &mbuf.Chain{}
	NewEncoder(c).PutUint32(0xffffffff)
	d := NewDecoder(c)
	if _, err := d.Opaque(); err == nil {
		t.Fatal("expected error for absurd opaque length")
	}
	c2 := &mbuf.Chain{}
	e := NewEncoder(c2)
	e.PutUint32(100) // claims 100 bytes but supplies none
	if _, err := NewDecoder(c2).Opaque(); err == nil {
		t.Fatal("expected error for truncated opaque")
	}
}

func TestOpaqueCopyRetainable(t *testing.T) {
	c := &mbuf.Chain{}
	e := NewEncoder(c)
	e.PutOpaque([]byte("keepme"))
	e.PutOpaque([]byte("second"))
	d := NewDecoder(c)
	first, err := d.OpaqueCopy()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Opaque(); err != nil {
		t.Fatal(err)
	}
	if string(first) != "keepme" {
		t.Fatalf("retained copy corrupted: %q", first)
	}
}
