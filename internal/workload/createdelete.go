package workload

import (
	"fmt"

	"renonfs/internal/client"
	"renonfs/internal/memfs"
	"renonfs/internal/sim"
	"renonfs/internal/stats"
)

// Bench filesystem abstraction: the Create-Delete benchmark runs both
// against NFS mounts and against a local filesystem with its own disk
// (Table 5's "Local" row).

// BenchFS is the minimal filesystem surface Create-Delete needs.
type BenchFS interface {
	CreateFile(p *sim.Proc, name string) (BenchFile, error)
	RemoveFile(p *sim.Proc, name string) error
}

// BenchFile is an open benchmark file.
type BenchFile interface {
	Write(p *sim.Proc, data []byte) (int, error)
	Close(p *sim.Proc) error
}

// MountFS adapts a client mount to BenchFS.
type MountFS struct{ M *client.Mount }

// CreateFile implements BenchFS.
func (m MountFS) CreateFile(p *sim.Proc, name string) (BenchFile, error) {
	return m.M.Create(p, name, 0644)
}

// RemoveFile implements BenchFS.
func (m MountFS) RemoveFile(p *sim.Proc, name string) error { return m.M.Remove(p, name) }

// LocalFS adapts memfs with a local disk to BenchFS, with the local UNIX
// semantics of the era: synchronous metadata (create/remove wait for the
// directory and inode writes), write-behind data (write system calls queue
// disk writes that drain FIFO behind the metadata ones).
type LocalFS struct {
	FS     *memfs.FS
	env    *sim.Env
	jobs   *sim.Queue[int] // async data writes, bytes each
	drain  *sim.Cond
	queued int
}

// NewLocalFS builds a local filesystem over an RD53 and starts its
// write-behind process.
func NewLocalFS(env *sim.Env, fs *memfs.FS) *LocalFS {
	l := &LocalFS{FS: fs, env: env, jobs: sim.NewQueue[int](env, "localfs.writes"), drain: sim.NewCond(env)}
	env.Spawn("localfs.writer", func(p *sim.Proc) {
		for {
			n, ok := l.jobs.Recv(p)
			if !ok {
				return
			}
			l.FS.Disk.Write(p, n)
			l.queued--
			if l.queued == 0 {
				l.drain.Broadcast()
			}
		}
	})
	return l
}

type localFile struct {
	l   *LocalFS
	ino *memfs.Inode
	off uint32
}

// CreateFile implements BenchFS: synchronous metadata writes via memfs.
func (l *LocalFS) CreateFile(p *sim.Proc, name string) (BenchFile, error) {
	ino, err := l.FS.Create(p, l.FS.Root(), name, 0644)
	if err != nil {
		return nil, err
	}
	return &localFile{l: l, ino: ino}, nil
}

// RemoveFile implements BenchFS. Unlink waits for the file's in-flight
// write-behind I/O first (as the kernel must before freeing the blocks),
// which is what makes Create-Delete of large files cost real disk time
// even locally (Table 5's Local row).
func (l *LocalFS) RemoveFile(p *sim.Proc, name string) error {
	l.WaitIdle(p)
	return l.FS.Remove(p, l.FS.Root(), name)
}

// Write implements BenchFile: data lands in memory now, disk writes are
// queued (data block + inode update per 8K block, write-behind).
func (f *localFile) Write(p *sim.Proc, data []byte) (int, error) {
	if err := f.l.FS.WriteAt(p, f.ino, f.off, data, 0); err != nil {
		return 0, err
	}
	f.off += uint32(len(data))
	for off := 0; off < len(data); off += memfs.BlockSize {
		n := len(data) - off
		if n > memfs.BlockSize {
			n = memfs.BlockSize
		}
		f.l.queued += 2
		f.l.jobs.Send(n)
		f.l.jobs.Send(512)
	}
	return len(data), nil
}

// Close implements BenchFile (nothing to do locally).
func (f *localFile) Close(p *sim.Proc) error { return nil }

// WaitIdle blocks until write-behind drains (between configurations).
func (l *LocalFS) WaitIdle(p *sim.Proc) {
	for l.queued > 0 {
		l.drain.Wait(p)
	}
}

// CreateDeleteResult is the mean iteration time for one configuration and
// size.
type CreateDeleteResult struct {
	Config string
	Size   int
	MeanMS float64
}

// RunCreateDelete measures the Ousterhout Create-Delete benchmark: each
// iteration creates a file, writes size bytes in 4 KB chunks, closes it and
// deletes it.
func RunCreateDelete(p *sim.Proc, fs BenchFS, config string, size, iters int) (*CreateDeleteResult, error) {
	var times stats.Samples
	chunk := make([]byte, 4096)
	for i := range chunk {
		chunk[i] = byte(i)
	}
	for it := 0; it < iters; it++ {
		name := fmt.Sprintf("cd-%s-%d", config, it)
		start := p.Now()
		f, err := fs.CreateFile(p, name)
		if err != nil {
			return nil, fmt.Errorf("create: %w", err)
		}
		for off := 0; off < size; off += len(chunk) {
			n := size - off
			if n > len(chunk) {
				n = len(chunk)
			}
			if _, err := f.Write(p, chunk[:n]); err != nil {
				return nil, fmt.Errorf("write: %w", err)
			}
		}
		if err := f.Close(p); err != nil {
			return nil, fmt.Errorf("close: %w", err)
		}
		if err := fs.RemoveFile(p, name); err != nil {
			return nil, fmt.Errorf("remove: %w", err)
		}
		times.Add(p.Now() - start)
	}
	return &CreateDeleteResult{Config: config, Size: size, MeanMS: times.Mean()}, nil
}
