package memfs

import (
	"fmt"
	"math/rand"
	"testing"

	"renonfs/internal/nfsproto"
)

// TestRandomizedTreeOpsAgainstModel drives random namespace operations and
// checks the filesystem against a shadow model: name → kind, link counts,
// and inode accounting.
func TestRandomizedTreeOpsAgainstModel(t *testing.T) {
	type entry struct {
		isDir bool
		links int // shadow link count for files
	}
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		fs := New(1, nil, nil)
		root := fs.Root()
		// All operations happen in one directory plus one subdirectory to
		// keep the model simple while still exercising every code path.
		sub, err := fs.Mkdir(nil, root, "sub", 0755)
		if err != nil {
			t.Fatal(err)
		}
		dirs := []*Inode{root, sub}
		shadow := []map[string]*entry{{"sub": {isDir: true}}, {}}

		name := func() string { return fmt.Sprintf("n%02d", rng.Intn(12)) }
		for step := 0; step < 400; step++ {
			di := rng.Intn(2)
			d, sh := dirs[di], shadow[di]
			nm := name()
			switch rng.Intn(6) {
			case 0: // create file
				_, err := fs.Create(nil, d, nm, 0644)
				if sh[nm] != nil {
					if err != ErrExist {
						t.Fatalf("step %d: create over %q = %v, want ErrExist", step, nm, err)
					}
				} else {
					if err != nil {
						t.Fatalf("step %d: create %q: %v", step, nm, err)
					}
					sh[nm] = &entry{links: 1}
				}
			case 1: // mkdir
				_, err := fs.Mkdir(nil, d, nm, 0755)
				if sh[nm] != nil {
					if err != ErrExist {
						t.Fatalf("step %d: mkdir over %q = %v", step, nm, err)
					}
				} else if err != nil {
					t.Fatalf("step %d: mkdir %q: %v", step, nm, err)
				} else {
					sh[nm] = &entry{isDir: true}
				}
			case 2: // remove file
				err := fs.Remove(nil, d, nm)
				switch {
				case sh[nm] == nil:
					if err != ErrNoEnt {
						t.Fatalf("step %d: remove missing %q = %v", step, nm, err)
					}
				case sh[nm].isDir:
					if err != ErrIsDir {
						t.Fatalf("step %d: remove dir %q = %v", step, nm, err)
					}
				default:
					if err != nil {
						t.Fatalf("step %d: remove %q: %v", step, nm, err)
					}
					delete(sh, nm)
				}
			case 3: // rmdir
				err := fs.Rmdir(nil, d, nm)
				switch {
				case sh[nm] == nil:
					if err != ErrNoEnt {
						t.Fatalf("step %d: rmdir missing %q = %v", step, nm, err)
					}
				case !sh[nm].isDir:
					if err != ErrNotDir {
						t.Fatalf("step %d: rmdir file %q = %v", step, nm, err)
					}
				default:
					// May be non-empty (root's "sub" or a dir with entries).
					n, _ := fs.Lookup(d, nm)
					if n != nil && dirLen(fs, n) > 0 {
						if err != ErrNotEmpty {
							t.Fatalf("step %d: rmdir non-empty %q = %v", step, nm, err)
						}
					} else if err == nil {
						delete(sh, nm)
					}
				}
			case 4: // rename within the directory
				dst := name()
				err := fs.Rename(nil, d, nm, d, dst)
				src := sh[nm]
				tgt := sh[dst]
				switch {
				case src == nil:
					if err != ErrNoEnt {
						t.Fatalf("step %d: rename missing %q = %v", step, nm, err)
					}
				case nm == dst:
					if err != nil {
						t.Fatalf("step %d: self-rename %q = %v, want nil", step, nm, err)
					}
				case tgt != nil && tgt.isDir:
					if err != ErrIsDir {
						t.Fatalf("step %d: rename onto dir %q = %v", step, dst, err)
					}
				default:
					if err != nil {
						t.Fatalf("step %d: rename %q->%q: %v", step, nm, dst, err)
					}
					delete(sh, nm)
					sh[dst] = src
				}
			case 5: // lookup agrees with the model
				n, err := fs.Lookup(d, nm)
				if sh[nm] == nil {
					if err != ErrNoEnt {
						t.Fatalf("step %d: lookup missing %q = %v", step, nm, err)
					}
				} else if err != nil {
					t.Fatalf("step %d: lookup %q: %v", step, nm, err)
				} else if (n.Type == nfsproto.TypeDir) != sh[nm].isDir {
					t.Fatalf("step %d: %q kind mismatch", step, nm)
				}
			}
		}
		// Final sweep: the directory listings match the shadow exactly.
		for di, d := range dirs {
			ents, _ := fs.DirWindow(d, 0, make([]DirEnt, dirLen(fs, d)))
			if len(ents) != len(shadow[di]) {
				t.Fatalf("trial %d: dir %d has %d entries, model %d", trial, di, len(ents), len(shadow[di]))
			}
			for _, e := range ents {
				if shadow[di][e.Name] == nil {
					t.Fatalf("trial %d: unexpected entry %q", trial, e.Name)
				}
			}
		}
		// Inode accounting: live inodes == root + reachable entries.
		want := 1
		for _, sh := range shadow {
			want += len(sh)
		}
		if fs.NumInodes() != want {
			t.Fatalf("trial %d: inodes = %d, model %d (leak or double-free)", trial, fs.NumInodes(), want)
		}
	}
}

// dirLen returns the directory's entry count.
func dirLen(fs *FS, dir *Inode) int {
	_, total := fs.DirWindow(dir, 0, nil)
	return total
}
