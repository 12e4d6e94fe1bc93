package memfs

import (
	"fmt"
	"sync"
	"testing"

	"renonfs/internal/mbuf"
	"renonfs/internal/nfsproto"
)

// Concurrent readers, writers and namespace churn on one filesystem: the
// per-file RW locking must keep -race quiet while the loaned-block COW
// discipline keeps every reply chain's bytes stable. Run with -race.
func TestConcurrentReadWriteNamespace(t *testing.T) {
	fs := New(1, nil, nil)
	f, err := fs.Create(nil, fs.Root(), "shared", 0644)
	if err != nil {
		t.Fatal(err)
	}
	pattern := make([]byte, 2*BlockSize)
	for i := range pattern {
		pattern[i] = byte(i % 251)
	}
	if err := fs.WriteAt(nil, f, 0, pattern, 0); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Loaning readers: every loaned chain must linearize to exactly the
	// bytes that were on loan — writers replace blocks, never mutate them.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c := &mbuf.Chain{}
				got, err := fs.ReadLoan(nil, f, 0, BlockSize, true, c, nil)
				if err != nil {
					t.Errorf("ReadLoan: %v", err)
					c.Free()
					return
				}
				b := c.Bytes()
				if len(b) != got {
					t.Errorf("loan len %d != got %d", len(b), got)
				}
				// The first byte tells which generation of the block was
				// loaned (original pattern or a writer's 0xAA fill); the
				// whole view must be that one generation, never a mix.
				for j := 0; j < got; j += 997 {
					want := byte(j % 251)
					if b[0] == 0xAA {
						want = 0xAA
					}
					if b[j] != want {
						t.Errorf("torn loan at %d: got %#x want %#x", j, b[j], want)
						break
					}
				}
				c.Free()
			}
		}()
	}

	// Writers: rewrite block 0 (forcing COW against outstanding loans) and
	// append at the tail.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			blk := make([]byte, BlockSize)
			for i := range blk {
				blk[i] = 0xAA
			}
			for i := 0; i < 300; i++ {
				if err := fs.WriteAt(nil, f, 0, blk, 0); err != nil {
					t.Errorf("WriteAt: %v", err)
					return
				}
				if err := fs.WriteAt(nil, f, uint32(2+seed)*BlockSize, blk[:512], 0); err != nil {
					t.Errorf("WriteAt tail: %v", err)
					return
				}
				fs.Attr(f)
			}
		}(w)
	}

	// Namespace churn in parallel with the data traffic.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			name := fmt.Sprintf("churn%d", i%8)
			if _, err := fs.Create(nil, fs.Root(), name, 0644); err != nil && err != ErrExist {
				t.Errorf("Create: %v", err)
				return
			}
			fs.Lookup(fs.Root(), name)
			var buf [4]DirEnt
			fs.DirWindow(fs.Root(), 1, buf[:])
			fs.DirBlocks(fs.Root())
			if i%3 == 0 {
				fs.Remove(nil, fs.Root(), name)
			}
			fs.Statfs()
		}
	}()

	// Setattr truncation against the readers/writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			tr := nfsproto.NewSattr()
			tr.Size = uint32(2 * BlockSize)
			fs.Setattr(nil, f, tr)
		}
		close(stop)
	}()

	wg.Wait()
}
