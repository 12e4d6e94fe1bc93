package main

// The -clients mode: real-socket multiclient load against the parallel nfsd
// pool (internal/nfsnet), as opposed to the simulated experiments. One point
// measures N concurrent UDP clients hammering READ(8K)+LOOKUP and prints the
// window's nfsstat tables: where the microsecond went stage by stage, how the
// readers dispatched and what the nfsd pool served.

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"renonfs/internal/memfs"
	"renonfs/internal/metrics"
	"renonfs/internal/nfsnet"
	"renonfs/internal/nfsproto"
	"renonfs/internal/server"
)

// pointResult carries one measured point plus its telemetry.
type pointResult struct {
	opsPerS float64
	window  *metrics.Snapshot // the registry's delta over the measured window
	spans   []metrics.Span
}

// measureClients runs one point: n concurrent UDP clients against a fresh
// real-socket server with the given ingest reader count, each looping
// READ(8K)+LOOKUP for warmup+dur. Only the final dur is measured: ops
// completed during warmup are not counted toward ops/s, and the registry is
// reported as the delta over the measurement window, so cold caches and
// socket setup never pollute the curve.
func measureClients(n, nfsds, readers int, warmup, dur time.Duration) (*pointResult, error) {
	fs := memfs.New(1, nil, nil)
	opts := server.Reno()
	opts.NFSDs = nfsds
	opts.Readers = readers
	srv := server.New(fs, opts)
	s, err := nfsnet.Serve(srv, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer s.Close()
	root := srv.RootFH()

	setup, err := nfsnet.DialUDP(s.UDPAddr())
	if err != nil {
		return nil, err
	}
	cr, err := setup.Create(root, "bench.dat", 0644)
	if err != nil || cr.Status != nfsproto.OK {
		setup.Close()
		return nil, fmt.Errorf("create bench.dat: %v (res %+v)", err, cr)
	}
	if _, err := setup.Write(cr.File, 0, make([]byte, nfsproto.MaxData)); err != nil {
		setup.Close()
		return nil, err
	}
	setup.Close()

	var ops atomic.Int64
	errc := make(chan error, n)
	var wg sync.WaitGroup
	measStart := time.Now().Add(warmup)
	stop := measStart.Add(dur)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := nfsnet.DialUDP(s.UDPAddr())
			if err != nil {
				errc <- err
				return
			}
			defer cl.Close()
			for {
				now := time.Now()
				if !now.Before(stop) {
					return
				}
				if _, err := cl.Read(cr.File, 0, nfsproto.MaxData); err != nil {
					errc <- fmt.Errorf("read: %w", err)
					return
				}
				if _, err := cl.Lookup(root, "bench.dat"); err != nil {
					errc <- fmt.Errorf("lookup: %w", err)
					return
				}
				// Warmup ops run but are never counted.
				if now.After(measStart) {
					ops.Add(2)
				}
			}
		}()
	}
	// Baseline snapshot at the start of the measurement window; the tables
	// print the delta, not the whole run.
	if d := time.Until(measStart); d > 0 {
		time.Sleep(d)
	}
	baseline := srv.Metrics.Snapshot()
	wg.Wait()
	select {
	case err := <-errc:
		return nil, err
	default:
	}
	return &pointResult{
		opsPerS: float64(ops.Load()) / dur.Seconds(),
		window:  srv.Metrics.Snapshot().Delta(baseline),
		spans:   s.Stages().Ring().Slowest(),
	}, nil
}

// runClients serves the -clients N mode: one point, printed with the
// window's nfsstat tables; with tracePath the slowest spans dump as Chrome
// trace JSON.
func runClients(n, nfsds, readers int, warmup, dur time.Duration, tracePath string) {
	res, err := measureClients(n, nfsds, readers, warmup, dur)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nfsbench: -clients: %v\n", err)
		os.Exit(1)
	}
	rdesc := fmt.Sprintf("%d reader(s)", readers)
	if readers == 0 {
		rdesc = fmt.Sprintf("%d reader(s) [GOMAXPROCS]", runtime.GOMAXPROCS(0))
	}
	fmt.Printf("%d client(s) x %v (+%v warmup) against %d nfsds, %s: %.0f ops/s (READ 8K + LOOKUP)\n",
		n, dur, warmup, nfsds, rdesc, res.opsPerS)
	nfsnet.RenderStats(os.Stdout, res.window, true)
	writeTrace(tracePath, res.spans)
}

// writeTrace dumps spans as Chrome trace-event JSON (no-op for empty path).
func writeTrace(path string, spans []metrics.Span) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nfsbench: -trace: %v\n", err)
		return
	}
	defer f.Close()
	if err := metrics.WriteChromeTrace(f, spans, nfsproto.ProcName); err != nil {
		fmt.Fprintf(os.Stderr, "nfsbench: -trace: %v\n", err)
		return
	}
	fmt.Printf("wrote %s (%d spans; open at chrome://tracing)\n", path, len(spans))
}
