package rpc

import (
	"bytes"
	"testing"

	"renonfs/internal/mbuf"
	"renonfs/internal/xdr"
)

func TestCallRoundTrip(t *testing.T) {
	cred := (&UnixCred{Stamp: 99, Machine: "uvax2", UID: 100, GID: 10, GIDs: []uint32{10, 20}}).Encode()
	call := &Call{XID: 0xabc123, Prog: 100003, Vers: 2, Proc: 4, Cred: cred}
	c := &mbuf.Chain{}
	EncodeCall(c, call)
	// Args follow the header.
	xdr.NewEncoder(c).PutUint32(777)

	d := xdr.NewDecoder(c)
	got, err := DecodeCall(d)
	if err != nil {
		t.Fatal(err)
	}
	if got.XID != call.XID || got.Prog != call.Prog || got.Vers != call.Vers || got.Proc != call.Proc {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.Cred.Flavor != AuthUnix {
		t.Fatalf("cred flavor = %d", got.Cred.Flavor)
	}
	u, err := DecodeUnixCred(got.Cred.Body)
	if err != nil {
		t.Fatal(err)
	}
	if u.Machine != "uvax2" || u.UID != 100 || len(u.GIDs) != 2 {
		t.Fatalf("cred = %+v", u)
	}
	if arg, err := d.Uint32(); err != nil || arg != 777 {
		t.Fatalf("args after header = %d, %v", arg, err)
	}
}

func TestReplyRoundTrip(t *testing.T) {
	c := &mbuf.Chain{}
	EncodeReply(c, 55, Success)
	xdr.NewEncoder(c).PutUint32(1234)
	d := xdr.NewDecoder(c)
	r, err := DecodeReply(d)
	if err != nil {
		t.Fatal(err)
	}
	if r.XID != 55 || r.Denied || r.AcceptStat != Success {
		t.Fatalf("reply = %+v", r)
	}
	if v, err := d.Uint32(); err != nil || v != 1234 {
		t.Fatalf("results = %d, %v", v, err)
	}
}

// TestAppendReplyHeaderMatchesEncodeReply holds the flat reply header the
// server's header-only procedures answer with to the chain one every other
// reply starts with.
func TestAppendReplyHeaderMatchesEncodeReply(t *testing.T) {
	for _, stat := range []uint32{Success, ProcUnavail, GarbageArgs} {
		c := &mbuf.Chain{}
		EncodeReply(c, 0xfeed, stat)
		var w xdr.ByteWriter
		AppendReplyHeader(&w, 0xfeed, stat)
		if got := c.Bytes(); !bytes.Equal(w.Bytes(), got) {
			t.Errorf("accept %d: flat %x, chain %x", stat, w.Bytes(), got)
		}
	}
}

func TestReplyErrorStatuses(t *testing.T) {
	for _, stat := range []uint32{ProgUnavail, ProcUnavail, GarbageArgs, SystemErr} {
		c := &mbuf.Chain{}
		EncodeReply(c, 1, stat)
		r, err := DecodeReply(xdr.NewDecoder(c))
		if err != nil {
			t.Fatal(err)
		}
		if r.AcceptStat != stat {
			t.Fatalf("stat = %d, want %d", r.AcceptStat, stat)
		}
	}
}

func TestDecodeCallRejectsReply(t *testing.T) {
	c := &mbuf.Chain{}
	EncodeReply(c, 9, Success)
	if _, err := DecodeCall(xdr.NewDecoder(c)); err == nil {
		t.Fatal("DecodeCall accepted a REPLY")
	}
}

func TestDecodeTruncated(t *testing.T) {
	c := &mbuf.Chain{}
	call := &Call{XID: 1, Prog: 100003, Vers: 2, Proc: 6}
	EncodeCall(c, call)
	full := c.Bytes()
	for cut := 0; cut < len(full); cut += 5 {
		part := mbuf.FromBytes(full[:cut])
		if _, err := DecodeCall(xdr.NewDecoder(part)); err == nil {
			t.Fatalf("truncated call at %d decoded without error", cut)
		}
	}
}

func TestPeekXID(t *testing.T) {
	c := &mbuf.Chain{}
	EncodeCall(c, &Call{XID: 0xfeedface, Prog: 100003, Vers: 2, Proc: 1})
	xid, err := PeekXID(c)
	if err != nil || xid != 0xfeedface {
		t.Fatalf("PeekXID = %x, %v", xid, err)
	}
	// Peeking must not consume the chain.
	if _, err := DecodeCall(xdr.NewDecoder(c)); err != nil {
		t.Fatalf("decode after peek: %v", err)
	}
}

func TestUnixCredGidBound(t *testing.T) {
	c := &mbuf.Chain{}
	e := xdr.NewEncoder(c)
	e.PutUint32(1)
	e.PutString("m")
	e.PutUint32(0)
	e.PutUint32(0)
	e.PutUint32(1000) // absurd gid count
	if _, err := DecodeUnixCred(c.Bytes()); err == nil {
		t.Fatal("expected error for absurd gid count")
	}
}
