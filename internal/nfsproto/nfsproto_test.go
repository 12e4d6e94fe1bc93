package nfsproto

import (
	"bytes"
	"testing"
	"testing/quick"

	"renonfs/internal/mbuf"
	"renonfs/internal/xdr"
)

func enc() (*mbuf.Chain, *xdr.Encoder) {
	c := &mbuf.Chain{}
	return c, xdr.NewEncoder(c)
}

func TestFHParts(t *testing.T) {
	fh := MakeFH(3, 1234, 7)
	fsid, fileid, gen := fh.Parts()
	if fsid != 3 || fileid != 1234 || gen != 7 {
		t.Fatalf("Parts = %d,%d,%d", fsid, fileid, gen)
	}
}

func TestStatusErrors(t *testing.T) {
	if OK.Error() != nil {
		t.Fatal("OK should map to nil error")
	}
	err := ErrStale.Error()
	if err == nil {
		t.Fatal("ErrStale should map to an error")
	}
	se, ok := err.(*StatusError)
	if !ok || se.Status != ErrStale {
		t.Fatalf("err = %#v", err)
	}
	if ErrNoEnt.String() != "NFSERR_NOENT" {
		t.Fatalf("String = %q", ErrNoEnt.String())
	}
}

func TestTimeLess(t *testing.T) {
	a := Time{10, 500}
	if !a.Less(Time{11, 0}) || !a.Less(Time{10, 501}) {
		t.Fatal("Less failed on later times")
	}
	if a.Less(a) || a.Less(Time{9, 999999}) {
		t.Fatal("Less failed on earlier/equal times")
	}
}

func TestFattrRoundTrip(t *testing.T) {
	f := func(typ, mode, nlink, uid, gid, size, fsid, fileid, asec, msec uint32) bool {
		in := &Fattr{
			Type: FileType(typ % 6), Mode: mode, Nlink: nlink, UID: uid, GID: gid,
			Size: size, BlockSize: 8192, Blocks: (size + 8191) / 8192,
			FSID: fsid, FileID: fileid,
			Atime: Time{asec, 1}, Mtime: Time{msec, 2}, Ctime: Time{msec, 3},
		}
		c, e := enc()
		in.Encode(e)
		out, err := DecodeFattr(xdr.NewDecoder(c))
		return err == nil && *out == *in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSattrRoundTrip(t *testing.T) {
	in := NewSattr()
	in.Size = 0 // truncate
	c, e := enc()
	in.Encode(e)
	out, err := DecodeSattr(xdr.NewDecoder(c))
	if err != nil || out != in {
		t.Fatalf("out = %+v, err = %v", out, err)
	}
	if out.Mode != NoValue || out.Size != 0 {
		t.Fatal("NoValue sentinel lost")
	}
}

func TestDiropArgsRoundTrip(t *testing.T) {
	in := &DiropArgs{Dir: MakeFH(1, 2, 3), Name: "Makefile"}
	c, e := enc()
	in.Encode(e)
	out, err := DecodeDiropArgs(xdr.NewDecoder(c))
	if err != nil || out.Dir != in.Dir || out.Name != in.Name {
		t.Fatalf("out = %+v, err = %v", out, err)
	}
}

func TestDiropArgsNameTooLong(t *testing.T) {
	long := string(bytes.Repeat([]byte{'a'}, MaxNameLen+1))
	in := &DiropArgs{Dir: MakeFH(1, 2, 3), Name: long}
	c, e := enc()
	in.Encode(e)
	if _, err := DecodeDiropArgs(xdr.NewDecoder(c)); err == nil {
		t.Fatal("overlong name accepted")
	}
}

func TestReadArgsRoundTripAndBound(t *testing.T) {
	in := &ReadArgs{File: MakeFH(1, 9, 0), Offset: 8192, Count: 8192}
	c, e := enc()
	in.Encode(e)
	out, err := DecodeReadArgs(xdr.NewDecoder(c))
	if err != nil || *out != *in {
		t.Fatalf("out = %+v, err = %v", out, err)
	}
	bad := &ReadArgs{File: MakeFH(1, 9, 0), Count: MaxData + 1}
	c2, e2 := enc()
	bad.Encode(e2)
	if _, err := DecodeReadArgs(xdr.NewDecoder(c2)); err == nil {
		t.Fatal("oversized read count accepted")
	}
}

func TestWriteArgsRoundTrip(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5a}, 4096)
	in := &WriteArgs{File: MakeFH(2, 3, 4), Offset: 16384, Data: mbuf.FromBytes(payload)}
	c, e := enc()
	in.Encode(e)
	out, err := DecodeWriteArgs(xdr.NewDecoder(c))
	if err != nil {
		t.Fatal(err)
	}
	if out.File != in.File || out.Offset != 16384 {
		t.Fatalf("header mismatch: %+v", out)
	}
	if !bytes.Equal(out.Data.Bytes(), payload) {
		t.Fatal("payload mismatch")
	}
}

func TestCreateArgsRoundTrip(t *testing.T) {
	attr := NewSattr()
	attr.Mode = 0644
	in := &CreateArgs{Where: DiropArgs{Dir: MakeFH(1, 1, 1), Name: "new.c"}, Attr: attr}
	c, e := enc()
	in.Encode(e)
	out, err := DecodeCreateArgs(xdr.NewDecoder(c))
	if err != nil || out.Where.Name != "new.c" || out.Attr.Mode != 0644 {
		t.Fatalf("out = %+v, err = %v", out, err)
	}
}

func TestRenameLinkSymlinkRoundTrip(t *testing.T) {
	r := &RenameArgs{
		From: DiropArgs{Dir: MakeFH(1, 1, 0), Name: "a"},
		To:   DiropArgs{Dir: MakeFH(1, 2, 0), Name: "b"},
	}
	c, e := enc()
	r.Encode(e)
	gr, err := DecodeRenameArgs(xdr.NewDecoder(c))
	if err != nil || gr.From.Name != "a" || gr.To.Name != "b" {
		t.Fatalf("rename out = %+v, err = %v", gr, err)
	}

	l := &LinkArgs{From: MakeFH(1, 5, 0), To: DiropArgs{Dir: MakeFH(1, 2, 0), Name: "ln"}}
	c2, e2 := enc()
	l.Encode(e2)
	gl, err := DecodeLinkArgs(xdr.NewDecoder(c2))
	if err != nil || gl.From != l.From || gl.To.Name != "ln" {
		t.Fatalf("link out = %+v, err = %v", gl, err)
	}

	s := &SymlinkArgs{From: DiropArgs{Dir: MakeFH(1, 2, 0), Name: "sl"}, To: "/target/path", Attr: NewSattr()}
	c3, e3 := enc()
	s.Encode(e3)
	gs, err := DecodeSymlinkArgs(xdr.NewDecoder(c3))
	if err != nil || gs.To != "/target/path" || gs.From.Name != "sl" {
		t.Fatalf("symlink out = %+v, err = %v", gs, err)
	}
}

func TestAttrResRoundTrip(t *testing.T) {
	attr := &Fattr{Type: TypeReg, Size: 100, FileID: 42, BlockSize: 8192}
	in := &AttrRes{Status: OK, Attr: attr}
	c, e := enc()
	in.Encode(e)
	out, err := DecodeAttrRes(xdr.NewDecoder(c))
	if err != nil || out.Status != OK || *out.Attr != *attr {
		t.Fatalf("out = %+v, err = %v", out, err)
	}
	// Error result carries no attributes.
	c2, e2 := enc()
	(&AttrRes{Status: ErrStale}).Encode(e2)
	out2, err := DecodeAttrRes(xdr.NewDecoder(c2))
	if err != nil || out2.Status != ErrStale || out2.Attr != nil {
		t.Fatalf("out2 = %+v, err = %v", out2, err)
	}
}

func TestDiropResRoundTrip(t *testing.T) {
	attr := &Fattr{Type: TypeDir, FileID: 7, BlockSize: 8192}
	in := &DiropRes{Status: OK, File: MakeFH(1, 7, 0), Attr: attr}
	c, e := enc()
	in.Encode(e)
	out, err := DecodeDiropRes(xdr.NewDecoder(c))
	if err != nil || out.File != in.File || out.Attr.FileID != 7 {
		t.Fatalf("out = %+v, err = %v", out, err)
	}
}

func TestReadResRoundTrip(t *testing.T) {
	data := bytes.Repeat([]byte{9}, MaxData)
	in := &ReadRes{Status: OK, Attr: &Fattr{Type: TypeReg, Size: MaxData}, Data: mbuf.FromBytes(data)}
	c, e := enc()
	in.Encode(e)
	out, err := DecodeReadRes(xdr.NewDecoder(c))
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != OK || !bytes.Equal(out.Data.Bytes(), data) {
		t.Fatal("read result mismatch")
	}
}

func TestReaddirResRoundTrip(t *testing.T) {
	in := &ReaddirRes{
		Status: OK,
		Entries: []DirEntry{
			{FileID: 2, Name: ".", Cookie: 1},
			{FileID: 1, Name: "..", Cookie: 2},
			{FileID: 10, Name: "file-with-a-longer-name.c", Cookie: 3},
		},
		EOF: true,
	}
	c, e := enc()
	in.Encode(e)
	out, err := DecodeReaddirRes(xdr.NewDecoder(c))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Entries) != 3 || !out.EOF {
		t.Fatalf("out = %+v", out)
	}
	for i := range in.Entries {
		if out.Entries[i] != in.Entries[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, out.Entries[i], in.Entries[i])
		}
	}
}

func TestStatfsResRoundTrip(t *testing.T) {
	in := &StatfsRes{Status: OK, TSize: 8192, BSize: 8192, Blocks: 10000, BFree: 5000, BAvail: 4500}
	c, e := enc()
	in.Encode(e)
	out, err := DecodeStatfsRes(xdr.NewDecoder(c))
	if err != nil || *out != *in {
		t.Fatalf("out = %+v, err = %v", out, err)
	}
}

func TestReadlinkResRoundTrip(t *testing.T) {
	in := &ReadlinkRes{Status: OK, Path: "/usr/share/misc"}
	c, e := enc()
	in.Encode(e)
	out, err := DecodeReadlinkRes(xdr.NewDecoder(c))
	if err != nil || out.Path != in.Path {
		t.Fatalf("out = %+v, err = %v", out, err)
	}
}

func TestProcName(t *testing.T) {
	if ProcName(ProcLookup) != "lookup" || ProcName(ProcWrite) != "write" {
		t.Fatal("wrong proc names")
	}
	if ProcName(99) != "proc99" {
		t.Fatalf("ProcName(99) = %q", ProcName(99))
	}
}

// TestEncodeBytesMatchesEncode holds each header-only result's flat encoder
// to its chain encoder byte for byte: the server answers with the first,
// clients and codec benchmarks build the second. Long names and targets
// cross an mbuf, so the chain side spans clusters too.
func TestEncodeBytesMatchesEncode(t *testing.T) {
	attr := Fattr{Type: TypeReg, Mode: 0644, Nlink: 1, Size: 12345, BlockSize: 8192,
		Blocks: 2, FSID: 1, FileID: 77, Atime: Time{1, 2}, Mtime: Time{3, 4}, Ctime: Time{5, 6}}
	long := string(bytes.Repeat([]byte{'n'}, MaxNameLen))
	listing := ReaddirRes{Status: OK, EOF: true, Entries: []DirEntry{
		{FileID: 1, Name: ".", Cookie: 1}, {FileID: 9, Name: long, Cookie: 2}, {FileID: 10, Name: "abc", Cookie: 3}}}
	type pair struct {
		name  string
		chain func(e *xdr.Encoder)
		flat  func(w *xdr.ByteWriter)
	}
	pairs := []pair{
		{"attrstat", (&AttrRes{Status: OK, Attr: &attr}).Encode, (&AttrRes{Status: OK, Attr: &attr}).EncodeBytes},
		{"attrstat error", (&AttrRes{Status: ErrStale}).Encode, (&AttrRes{Status: ErrStale}).EncodeBytes},
		{"diropres", (&DiropRes{Status: OK, File: MakeFH(1, 77, 3), Attr: &attr}).Encode,
			(&DiropRes{Status: OK, File: MakeFH(1, 77, 3), Attr: &attr}).EncodeBytes},
		{"diropres error", (&DiropRes{Status: ErrNoEnt}).Encode, (&DiropRes{Status: ErrNoEnt}).EncodeBytes},
		{"readlink", (&ReadlinkRes{Status: OK, Path: long + "/x"}).Encode, (&ReadlinkRes{Status: OK, Path: long + "/x"}).EncodeBytes},
		{"statfs", (&StatfsRes{Status: OK, TSize: 8192, BSize: 4096, Blocks: 10, BFree: 5, BAvail: 4}).Encode,
			(&StatfsRes{Status: OK, TSize: 8192, BSize: 4096, Blocks: 10, BFree: 5, BAvail: 4}).EncodeBytes},
		{"mnt", (&MntRes{File: MakeFH(1, 2, 3)}).Encode, (&MntRes{File: MakeFH(1, 2, 3)}).EncodeBytes},
		{"mnt error", (&MntRes{Status: 13}).Encode, (&MntRes{Status: 13}).EncodeBytes},
		{"lease piggyback", (&LeasePiggy{Mode: LeaseWrite, Duration: 30}).Encode, (&LeasePiggy{Mode: LeaseWrite, Duration: 30}).EncodeBytes},
		{"readdir", listing.Encode, func(w *xdr.ByteWriter) {
			w.PutUint32(uint32(listing.Status))
			for i := range listing.Entries {
				listing.Entries[i].EncodeBytes(w)
			}
			EncodeDirEndBytes(w, listing.EOF)
		}},
	}
	for _, p := range pairs {
		c, e := enc()
		p.chain(e)
		var w xdr.ByteWriter
		p.flat(&w)
		if got := c.Bytes(); !bytes.Equal(w.Bytes(), got) {
			t.Errorf("%s: flat %x\n chain %x", p.name, w.Bytes(), got)
		}
	}
}
