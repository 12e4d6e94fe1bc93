// Command nfsstat is the reproduction's equivalent of the 4.3BSD nfsstat
// utility: it polls a running nfsd's stats endpoint and renders the
// per-procedure call counts and service-time percentiles.
//
// Usage:
//
//	nfsstat                          one cumulative snapshot and exit
//	nfsstat -i 1s                    re-render cumulative totals every second
//	nfsstat -i 1s -z                 interval deltas (the classic `nfsstat -z`
//	                                 zero-the-counters workflow, done client
//	                                 side so concurrent observers don't fight)
//	nfsstat -json                    dump the raw JSON snapshot
//
// The tables are internal/nfsnet.RenderStats — the same ones nfsd prints
// on ^C: per-procedure service times, totals and mbuf copy traffic, the
// shallow-dispatch and send-coalescing counters, leases, the per-stage
// "where the microsecond goes" breakdown, the UDP ingest readers and the
// kernel's receive drops, the nfsd pool, the dupcache shards and any
// contended lock sites. Under -z every counter, histogram percentile and
// max is the interval's.
//
// The endpoint address must match nfsd's -stats flag.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"renonfs/internal/metrics"
	"renonfs/internal/nfsnet"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:12050", "nfsd stats endpoint (host:port)")
		interval = flag.Duration("i", 0, "poll interval (0: print once and exit)")
		count    = flag.Int("n", 0, "number of polls when -i is set (0: forever)")
		zero     = flag.Bool("z", false, "show interval deltas instead of cumulative totals")
		raw      = flag.Bool("json", false, "print the raw JSON snapshot")
	)
	flag.Parse()

	var prev *metrics.Snapshot
	for n := 0; ; n++ {
		snap, err := fetch(*addr, *raw)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nfsstat: %v\n", err)
			os.Exit(1)
		}
		if !*raw {
			view := snap
			if *zero {
				view = snap.Delta(prev)
				prev = snap
			}
			nfsnet.RenderStats(os.Stdout, view, *zero && n > 0)
		}
		if *interval <= 0 || (*count > 0 && n+1 >= *count) {
			return
		}
		time.Sleep(*interval)
	}
}

// fetch GETs one snapshot; with raw it also echoes the body to stdout.
func fetch(addr string, raw bool) (*metrics.Snapshot, error) {
	resp, err := http.Get("http://" + addr + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("endpoint returned %s", resp.Status)
	}
	if raw {
		os.Stdout.Write(body)
		fmt.Println()
	}
	snap := &metrics.Snapshot{}
	if err := json.Unmarshal(body, snap); err != nil {
		return nil, fmt.Errorf("bad snapshot: %v", err)
	}
	return snap, nil
}
