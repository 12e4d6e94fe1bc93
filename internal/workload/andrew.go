package workload

import (
	"fmt"
	"math/rand"

	"renonfs/internal/client"
	"renonfs/internal/mbuf"
	"renonfs/internal/memfs"
	"renonfs/internal/netsim"
	"renonfs/internal/sim"
)

// chainOf wraps a byte slice in an mbuf chain (fresh each call, so encode
// closures stay repeatable for retransmission).
func chainOf(b []byte) *mbuf.Chain { return mbuf.FromBytes(b) }

// Client CPU costs for the benchmark's "real work", µs at 1 MIPS.
const (
	// scanCPUPerByte models phase IV's grep+wc passes over every byte.
	scanCPUPerByte = 35.0
	// compileCPUPerByte models phase V's C compilation per source byte
	// (pcc on a MicroVAXII was about this slow).
	compileCPUPerByte = 950.0
	// linkCPUPerByte models the final ld pass over the objects.
	linkCPUPerByte = 300.0
	// execCPU models one fork+exec+loader pass: the benchmark phases run
	// a command per file (cp, grep, wc, cc, as). Together with the I/O it
	// stretches the phases over real minutes, which is what ages the
	// 5-second attribute caches between file touches, as in the original
	// 23-minute runs.
	execCPU = 50_000.0
)

// TreeFile is one file of the benchmark source tree.
type TreeFile struct {
	Dir  string
	Name string
	Size int
	C    bool // compiled in phase V
	H    bool // header, re-read by every compile
}

// AndrewTree returns the deterministic source tree: 6 subdirectories,
// 280 files, ~800 KB, 68 C files and 48 headers — sized so the benchmark
// issues RPC volumes comparable to the paper's Table 3 (a few thousand per
// run).
func AndrewTree() []TreeFile {
	rng := rand.New(rand.NewSource(1991))
	var files []TreeFile
	srcDirs := []string{"cmds", "lib", "util", "sys"}
	nC, nH := 68, 48
	for i := 0; i < nC; i++ {
		files = append(files, TreeFile{
			Dir: srcDirs[i%3], Name: fmt.Sprintf("src%02d.c", i),
			Size: 3000 + rng.Intn(9000), C: true,
		})
	}
	for i := 0; i < nH; i++ {
		files = append(files, TreeFile{
			Dir: "lib", Name: fmt.Sprintf("hdr%02d.h", i),
			Size: 800 + rng.Intn(2200), H: true,
		})
	}
	for i := 0; i < 100; i++ {
		files = append(files, TreeFile{
			Dir: srcDirs[3-i%2], Name: fmt.Sprintf("misc%03d", i),
			Size: 500 + rng.Intn(4000),
		})
	}
	for i := 0; i < 64; i++ {
		files = append(files, TreeFile{
			Dir: "doc", Name: fmt.Sprintf("doc%02d.ms", i),
			Size: 1000 + rng.Intn(6000),
		})
	}
	return files
}

// TreeBytes returns the total size of the tree.
func TreeBytes(files []TreeFile) int {
	n := 0
	for _, f := range files {
		n += f.Size
	}
	return n
}

// PreloadServerTree installs the source tree directly into the server's
// filesystem (no RPCs), under /src.
func PreloadServerTree(fs *memfs.FS, files []TreeFile) error {
	root := fs.Root()
	src, err := fs.Mkdir(nil, root, "src", 0755)
	if err != nil {
		return err
	}
	dirs := map[string]*memfs.Inode{"": src}
	content := make([]byte, 16384)
	for i := range content {
		content[i] = byte('a' + i%26)
	}
	for _, f := range files {
		dir := dirs[f.Dir]
		if dir == nil {
			dir, err = fs.Mkdir(nil, src, f.Dir, 0755)
			if err != nil {
				return err
			}
			dirs[f.Dir] = dir
		}
		ino, err := fs.Create(nil, dir, f.Name, 0644)
		if err != nil {
			return err
		}
		for off := 0; off < f.Size; off += len(content) {
			n := f.Size - off
			if n > len(content) {
				n = len(content)
			}
			if err := fs.WriteAt(nil, ino, uint32(off), content[:n], 0); err != nil {
				return err
			}
		}
	}
	return nil
}

// AndrewResult holds the benchmark outcome.
type AndrewResult struct {
	// PhaseTimes are the elapsed virtual times of phases I..V.
	PhaseTimes [5]sim.Time
	// RPC counts snapshot (delta over the run).
	RPC client.Stats
}

// PhaseI_IV returns the combined time of phases I-IV (the paper's Tables
// 2 and 4 report I-IV and V separately).
func (r *AndrewResult) PhaseI_IV() sim.Time {
	return r.PhaseTimes[0] + r.PhaseTimes[1] + r.PhaseTimes[2] + r.PhaseTimes[3]
}

// RunAndrew executes the five phases through the client mount: the source
// tree is read from /src and the working copy built under /work.
//
//	I   create the target directory tree
//	II  copy the source tree
//	III stat every file (recursive ls -l)
//	IV  read every byte of every file (grep + wc)
//	V   compile: every .c re-reads headers, burns compile CPU, writes a .o;
//	    a final link reads all objects and writes the binary
func RunAndrew(p *sim.Proc, m *client.Mount, files []TreeFile) (*AndrewResult, error) {
	res := &AndrewResult{}
	base := m.Stats
	node := m.Node

	// exec charges one command spawn (fork+exec+loader).
	exec := func() {
		node.ChargeCPU(p, netsim.BucketExec, node.Model.Cost(execCPU))
	}

	phase := func(i int, fn func() error) error {
		start := p.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("phase %d: %w", i+1, err)
		}
		res.PhaseTimes[i] = p.Now() - start
		return nil
	}

	dirs := map[string]bool{}
	for _, f := range files {
		dirs[f.Dir] = true
	}

	// Phase I: make directories.
	if err := phase(0, func() error {
		if err := m.Mkdir(p, "work", 0755); err != nil {
			return err
		}
		for _, d := range sortedKeyList(dirs) {
			if d == "" {
				continue
			}
			if err := m.Mkdir(p, "work/"+d, 0755); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	srcPath := func(f TreeFile) string {
		if f.Dir == "" {
			return "src/" + f.Name
		}
		return "src/" + f.Dir + "/" + f.Name
	}
	workPath := func(f TreeFile) string {
		if f.Dir == "" {
			return "work/" + f.Name
		}
		return "work/" + f.Dir + "/" + f.Name
	}

	// Phase II: copy every file in 4 KB chunks (cp's buffer of the era).
	if err := phase(1, func() error {
		buf := make([]byte, 4096)
		for _, f := range files {
			exec() // one cp per file
			in, err := m.Open(p, srcPath(f))
			if err != nil {
				return err
			}
			out, err := m.Create(p, workPath(f), 0644)
			if err != nil {
				return err
			}
			for {
				n, err := in.Read(p, buf)
				if err != nil {
					return err
				}
				if n == 0 {
					break
				}
				if _, err := out.Write(p, buf[:n]); err != nil {
					return err
				}
			}
			in.Close(p)
			if err := out.Close(p); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Phase III: stat everything (ls -lR).
	if err := phase(2, func() error {
		exec() // the recursive ls
		if _, err := m.ReadDir(p, "work"); err != nil {
			return err
		}
		for _, d := range sortedKeyList(dirs) {
			if d == "" {
				continue
			}
			if _, err := m.ReadDir(p, "work/"+d); err != nil {
				return err
			}
		}
		for _, f := range files {
			if _, err := m.Getattr(p, workPath(f)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Phase IV: read every byte twice — the benchmark runs grep and then
	// wc as separate commands, each opening (and walking to) every file.
	if err := phase(3, func() error {
		buf := make([]byte, 4096)
		for pass := 0; pass < 2; pass++ {
			for _, f := range files {
				exec() // one spawn per file per command
				in, err := m.Open(p, workPath(f))
				if err != nil {
					return err
				}
				total := 0
				for {
					n, err := in.Read(p, buf)
					if err != nil {
						return err
					}
					if n == 0 {
						break
					}
					total += n
				}
				in.Close(p)
				node.ChargeCPU(p, netsim.BucketUserWork, node.Model.CostBytes(scanCPUPerByte, total/2))
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Phase V: compile and link.
	if err := phase(4, func() error {
		var headers []TreeFile
		var objects []TreeFile
		for _, f := range files {
			if f.H {
				headers = append(headers, f)
			}
		}
		buf := make([]byte, 4096)
		readAll := func(path string) (int, error) {
			in, err := m.Open(p, path)
			if err != nil {
				return 0, err
			}
			total := 0
			for {
				n, err := in.Read(p, buf)
				if err != nil {
					return total, err
				}
				if n == 0 {
					break
				}
				total += n
			}
			in.Close(p)
			return total, nil
		}
		for _, f := range files {
			if !f.C {
				continue
			}
			exec() // cc driver
			exec() // assembler pass
			// make re-scans the directory for dependency timestamps; .o
			// writes keep changing its mtime, so the listing re-fetches.
			dir := "work"
			if f.Dir != "" {
				dir = "work/" + f.Dir
			}
			if _, err := m.ReadDir(p, dir); err != nil {
				return err
			}
			n, err := readAll(workPath(f))
			if err != nil {
				return err
			}
			// Each compile re-reads a third of the headers; header bytes
			// compile cheaply (mostly declarations).
			hdrBytes := 0
			for i, h := range headers {
				if i%3 != 0 {
					continue
				}
				hn, err := readAll(workPath(h))
				if err != nil {
					return err
				}
				hdrBytes += hn
			}
			node.ChargeCPU(p, netsim.BucketCompile, node.Model.CostBytes(compileCPUPerByte, n+hdrBytes/4))
			// Object file ≈ 60% of the source size.
			obj := TreeFile{Dir: f.Dir, Name: f.Name[:len(f.Name)-2] + ".o", Size: f.Size * 6 / 10}
			out, err := m.Create(p, workPath(obj), 0644)
			if err != nil {
				return err
			}
			data := make([]byte, obj.Size)
			if _, err := out.Write(p, data); err != nil {
				return err
			}
			if err := out.Close(p); err != nil {
				return err
			}
			objects = append(objects, obj)
		}
		// Link: read every object, write the binary.
		exec()
		total := 0
		for _, o := range objects {
			n, err := readAll(workPath(o))
			if err != nil {
				return err
			}
			total += n
		}
		node.ChargeCPU(p, netsim.BucketLink, node.Model.CostBytes(linkCPUPerByte, total))
		bin, err := m.Create(p, "work/a.out", 0755)
		if err != nil {
			return err
		}
		if _, err := bin.Write(p, make([]byte, total)); err != nil {
			return err
		}
		if err := bin.Close(p); err != nil {
			return err
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// RPC deltas.
	res.RPC = m.Stats
	for i := range res.RPC.Calls {
		res.RPC.Calls[i] -= base.Calls[i]
	}
	return res, nil
}

// sortedKeyList returns map keys in sorted order for determinism.
func sortedKeyList(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}
