package memfs

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"renonfs/internal/mbuf"
	"renonfs/internal/nfsproto"
	"renonfs/internal/sim"
)

func newFS() *FS { return New(1, nil, nil) }

// readAt reads len(dst) bytes at off through ReadLoan, the one read path,
// and copies the loaned bytes out into dst.
func readAt(fs *FS, n *Inode, off uint32, dst []byte) (int, error) {
	var c mbuf.Chain
	got, err := fs.ReadLoan(nil, n, off, uint32(len(dst)), true, &c, nil)
	c.CopyTo(dst)
	c.Free()
	return got, err
}

func TestCreateLookupRemove(t *testing.T) {
	fs := newFS()
	root := fs.Root()
	f, err := fs.Create(nil, root, "hello.c", 0644)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs.Lookup(root, "hello.c")
	if err != nil || got != f {
		t.Fatalf("lookup = %v, %v", got, err)
	}
	if _, err := fs.Create(nil, root, "hello.c", 0644); err != ErrExist {
		t.Fatalf("duplicate create = %v", err)
	}
	if err := fs.Remove(nil, root, "hello.c"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Lookup(root, "hello.c"); err != ErrNoEnt {
		t.Fatalf("lookup after remove = %v", err)
	}
	if fs.NumInodes() != 1 {
		t.Fatalf("inodes = %d, want 1 (root)", fs.NumInodes())
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs := newFS()
	f, _ := fs.Create(nil, fs.Root(), "data", 0644)
	payload := make([]byte, 20000)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	if err := fs.WriteAt(nil, f, 0, payload, 2); err != nil {
		t.Fatal(err)
	}
	if f.Size != 20000 {
		t.Fatalf("size = %d", f.Size)
	}
	dst := make([]byte, 20000)
	n, err := readAt(fs, f, 0, dst)
	if err != nil || n != 20000 {
		t.Fatalf("read = %d, %v", n, err)
	}
	if !bytes.Equal(dst, payload) {
		t.Fatal("data corrupted")
	}
}

func TestReadAtEOFAndHoles(t *testing.T) {
	fs := newFS()
	f, _ := fs.Create(nil, fs.Root(), "sparse", 0644)
	fs.WriteAt(nil, f, 3*BlockSize, []byte("end"), 1)
	if f.Size != 3*BlockSize+3 {
		t.Fatalf("size = %d", f.Size)
	}
	// The hole reads as zeros.
	dst := make([]byte, 100)
	n, _ := readAt(fs, f, BlockSize, dst)
	if n != 100 {
		t.Fatalf("hole read = %d", n)
	}
	for _, b := range dst {
		if b != 0 {
			t.Fatal("hole not zero")
		}
	}
	// Reads past EOF are empty; reads crossing EOF are short.
	if n, _ := readAt(fs, f, f.Size+10, dst); n != 0 {
		t.Fatalf("read past EOF = %d", n)
	}
	if n, _ := readAt(fs, f, f.Size-2, dst); n != 2 {
		t.Fatalf("read across EOF = %d", n)
	}
}

func TestWriteReadProperty(t *testing.T) {
	f := func(chunks [][]byte, offs []uint16) bool {
		fs := newFS()
		fi, _ := fs.Create(nil, fs.Root(), "f", 0644)
		shadow := make([]byte, 1<<17)
		maxEnd := uint32(0)
		for i, ch := range chunks {
			if len(ch) == 0 || i >= len(offs) {
				continue
			}
			off := uint32(offs[i]) % (1 << 16)
			if len(ch) > 4096 {
				ch = ch[:4096]
			}
			if err := fs.WriteAt(nil, fi, off, ch, 1); err != nil {
				return false
			}
			copy(shadow[off:], ch)
			if off+uint32(len(ch)) > maxEnd {
				maxEnd = off + uint32(len(ch))
			}
		}
		if fi.Size != maxEnd {
			return false
		}
		dst := make([]byte, maxEnd)
		n, err := readAt(fs, fi, 0, dst)
		if err != nil || uint32(n) != maxEnd {
			return false
		}
		return bytes.Equal(dst, shadow[:maxEnd])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMkdirRmdir(t *testing.T) {
	fs := newFS()
	d, err := fs.Mkdir(nil, fs.Root(), "src", 0755)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Root().Nlink != 3 {
		t.Fatalf("root nlink = %d", fs.Root().Nlink)
	}
	fs.Create(nil, d, "a.c", 0644)
	if err := fs.Rmdir(nil, fs.Root(), "src"); err != ErrNotEmpty {
		t.Fatalf("rmdir non-empty = %v", err)
	}
	fs.Remove(nil, d, "a.c")
	if err := fs.Rmdir(nil, fs.Root(), "src"); err != nil {
		t.Fatal(err)
	}
	if fs.Root().Nlink != 2 {
		t.Fatalf("root nlink = %d after rmdir", fs.Root().Nlink)
	}
}

func TestRename(t *testing.T) {
	fs := newFS()
	root := fs.Root()
	d1, _ := fs.Mkdir(nil, root, "d1", 0755)
	d2, _ := fs.Mkdir(nil, root, "d2", 0755)
	f, _ := fs.Create(nil, d1, "old", 0644)
	if err := fs.Rename(nil, d1, "old", d2, "new"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Lookup(d1, "old"); err != ErrNoEnt {
		t.Fatal("source still present")
	}
	got, err := fs.Lookup(d2, "new")
	if err != nil || got != f {
		t.Fatalf("target = %v, %v", got, err)
	}
	// Rename over an existing file replaces it.
	g, _ := fs.Create(nil, d2, "other", 0644)
	_ = g
	if err := fs.Rename(nil, d2, "new", d2, "other"); err != nil {
		t.Fatal(err)
	}
	got, err = fs.Lookup(d2, "other")
	if err != nil || got != f {
		t.Fatalf("replaced target = %v, %v", got, err)
	}
}

func TestLinkAndNlink(t *testing.T) {
	fs := newFS()
	f, _ := fs.Create(nil, fs.Root(), "orig", 0644)
	if err := fs.Link(nil, f, fs.Root(), "alias"); err != nil {
		t.Fatal(err)
	}
	if f.Nlink != 2 {
		t.Fatalf("nlink = %d", f.Nlink)
	}
	fs.Remove(nil, fs.Root(), "orig")
	if got, err := fs.Lookup(fs.Root(), "alias"); err != nil || got != f {
		t.Fatal("alias lost after removing original")
	}
	fs.Remove(nil, fs.Root(), "alias")
	if fs.NumInodes() != 1 {
		t.Fatalf("inode leak: %d", fs.NumInodes())
	}
}

func TestSymlinkReadlink(t *testing.T) {
	fs := newFS()
	l, err := fs.Symlink(nil, fs.Root(), "lnk", "/usr/include", 0777)
	if err != nil {
		t.Fatal(err)
	}
	target, err := fs.Readlink(l)
	if err != nil || target != "/usr/include" {
		t.Fatalf("readlink = %q, %v", target, err)
	}
	if _, err := fs.Readlink(fs.Root()); err == nil {
		t.Fatal("readlink of a directory succeeded")
	}
}

func TestSetattrTruncate(t *testing.T) {
	fs := newFS()
	f, _ := fs.Create(nil, fs.Root(), "t", 0644)
	fs.WriteAt(nil, f, 0, bytes.Repeat([]byte{0xff}, 2*BlockSize), 1)
	s := nfsproto.NewSattr()
	s.Size = 100
	fs.Setattr(nil, f, s)
	if f.Size != 100 {
		t.Fatalf("size = %d", f.Size)
	}
	// Growing back exposes zeros, not stale data.
	s2 := nfsproto.NewSattr()
	s2.Size = 200
	fs.Setattr(nil, f, s2)
	dst := make([]byte, 100)
	readAt(fs, f, 100, dst)
	for _, b := range dst {
		if b != 0 {
			t.Fatal("stale data after re-extend")
		}
	}
	// Mode change.
	s3 := nfsproto.NewSattr()
	s3.Mode = 0600
	fs.Setattr(nil, f, s3)
	if f.Mode != 0600 {
		t.Fatalf("mode = %o", f.Mode)
	}
}

func TestFHResolve(t *testing.T) {
	fs := newFS()
	f, _ := fs.Create(nil, fs.Root(), "x", 0644)
	fh := fs.FH(f)
	got, err := fs.Resolve(fh)
	if err != nil || got != f {
		t.Fatalf("resolve = %v, %v", got, err)
	}
	fs.Remove(nil, fs.Root(), "x")
	if _, err := fs.Resolve(fh); err != ErrStale {
		t.Fatalf("stale resolve = %v", err)
	}
	other := nfsproto.MakeFH(99, 2, 1)
	if _, err := fs.Resolve(other); err != ErrStale {
		t.Fatalf("wrong-fsid resolve = %v", err)
	}
}

func TestMtimeAdvancesOnWrite(t *testing.T) {
	fs := newFS()
	f, _ := fs.Create(nil, fs.Root(), "m", 0644)
	before := f.Mtime
	fs.WriteAt(nil, f, 0, []byte("x"), 1)
	if !before.Less(f.Mtime) {
		t.Fatalf("mtime did not advance: %v -> %v", before, f.Mtime)
	}
}

func TestDiskChargesTime(t *testing.T) {
	env := sim.New(1)
	defer env.Close()
	disk := NewRD53(env, "rd53")
	fs := New(1, disk, nil)
	var elapsed sim.Time
	env.Spawn("writer", func(p *sim.Proc) {
		f, _ := fs.Create(p, fs.Root(), "big", 0644)
		start := p.Now()
		for i := 0; i < 12; i++ {
			fs.WriteAt(p, f, uint32(i*BlockSize), make([]byte, BlockSize), 2)
		}
		elapsed = p.Now() - start
	})
	env.RunAll()
	// 12 blocks x (8K data + 512B inode) ≈ 12 x (34+27.4) ms ≈ 740 ms.
	if elapsed < 400*time.Millisecond || elapsed > 2*time.Second {
		t.Fatalf("12 sync block writes took %v", elapsed)
	}
	if disk.WriteOps != 2+12*2 {
		t.Fatalf("WriteOps = %d", disk.WriteOps)
	}
	if disk.Utilization() == 0 {
		t.Fatal("disk utilization not tracked")
	}
}

func TestStatfs(t *testing.T) {
	fs := newFS()
	f, _ := fs.Create(nil, fs.Root(), "f", 0644)
	fs.WriteAt(nil, f, 0, make([]byte, 3*BlockSize), 1)
	st := fs.Statfs()
	if st.Blocks-st.BFree != 3 {
		t.Fatalf("used = %d, want 3", st.Blocks-st.BFree)
	}
	fs.Remove(nil, fs.Root(), "f")
	st = fs.Statfs()
	if st.Blocks != st.BFree {
		t.Fatal("blocks not freed")
	}
}

func TestNumDirBlocks(t *testing.T) {
	fs := newFS()
	d, _ := fs.Mkdir(nil, fs.Root(), "d", 0755)
	if NumDirBlocks(d) != 1 {
		t.Fatal("empty dir should occupy one block")
	}
	for i := 0; i < 100; i++ {
		fs.Create(nil, d, string(rune('a'+i%26))+string(rune('0'+i/26)), 0644)
	}
	if nb := NumDirBlocks(d); nb != 4 {
		t.Fatalf("100 entries = %d blocks, want 4", nb)
	}
}
