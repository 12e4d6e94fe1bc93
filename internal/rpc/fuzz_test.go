package rpc

import (
	"testing"

	"renonfs/internal/mbuf"
	"renonfs/internal/xdr"
)

// FuzzRPCDecode feeds arbitrary bytes to every parser that faces the
// network: call and reply headers, the xid peek, and whatever the
// record-mark scanner makes of the bytes. Garbage must come back as an
// error, never a panic.
func FuzzRPCDecode(f *testing.F) {
	call := &mbuf.Chain{}
	EncodeCall(call, &Call{XID: 7, Prog: 100003, Vers: 2, Proc: 4,
		Cred: (&UnixCred{Machine: "fuzz", UID: 1, GID: 1}).Encode()})
	f.Add(call.Bytes())
	reply := &mbuf.Chain{}
	EncodeReply(reply, 7, Success)
	f.Add(reply.Bytes())
	marked := &mbuf.Chain{}
	EncodeCall(marked, &Call{XID: 9, Prog: 100003, Vers: 2, Proc: 1})
	AddRecordMark(marked)
	f.Add(marked.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x00, 0x00, 0x04, 1, 2, 3, 4}) // tiny record
	f.Add([]byte{0x80, 0xff, 0xff, 0xff})             // record mark over MaxRecord
	f.Fuzz(func(t *testing.T, data []byte) {
		c := mbuf.FromBytes(data)
		_, _ = PeekXID(c)
		_, _ = DecodeCall(xdr.NewDecoder(mbuf.FromBytes(data)))
		_, _ = DecodeReply(xdr.NewDecoder(mbuf.FromBytes(data)))

		// A record the scanner emits must decode or error — not panic.
		// (FuzzRecordScanner holds the scanner itself to its reference.)
		var scan RecordScanner
		scan.Fill(copy(scan.Space(len(data)), data))
		for {
			rec, err := scan.Next()
			if rec == nil || err != nil {
				break
			}
			_, _ = DecodeCall(xdr.NewDecoder(mbuf.FromBytes(rec)))
		}
	})
}

// FuzzRPCCallRoundTrip: any call header the encoder writes, the decoder
// reads back unchanged.
func FuzzRPCCallRoundTrip(f *testing.F) {
	f.Add(uint32(1), uint32(100003), uint32(2), uint32(6))
	f.Fuzz(func(t *testing.T, xid, prog, vers, proc uint32) {
		c := &mbuf.Chain{}
		EncodeCall(c, &Call{XID: xid, Prog: prog, Vers: vers, Proc: proc})
		got, err := DecodeCall(xdr.NewDecoder(c))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.XID != xid || got.Prog != prog || got.Vers != vers || got.Proc != proc {
			t.Fatalf("round trip changed the header: %+v", got)
		}
	})
}
