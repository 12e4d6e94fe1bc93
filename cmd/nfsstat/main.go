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
// Besides the per-procedure table it renders the parallel-dispatch view:
// the sharded UDP ingest frontend (rpc.reader.<id>.reads/.fast/.inline/
// .wakeups and the socket strategy), the shallow-dispatch counters
// (rpc.fastpath.calls/.fallbacks — UDP datagrams and TCP records both, so
// calls exceeds the readers' fast column by the TCP share) and the UDP
// reply-coalescing counters (rpc.send.batches/.batched_msgs — the
// batches/msgs ratio is send syscalls per reply), the lease extension's
// traffic when any were granted (lease.grants/.piggy_grants/.renewals,
// the trylater/eviction/vacate/expiry conflict counters and the live
// lease.active gauge), the nfsd worker pool
// (rpc.nfsd.busy, per-worker calls
// and busy time), the sharded duplicate-request-cache counters
// (server.dupc.*), the
// stage-level "where the microsecond goes" pipeline breakdown
// (rpc.stage.<name>.us percentiles — with -z these delta per interval,
// so a latency regression shows up in the stage where it happens), and
// any lock sites that saw contention (lock.<site>.*).
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
	"sort"
	"strings"
	"time"

	"renonfs/internal/metrics"
	"renonfs/internal/stats"
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
			render(view, *zero && n > 0)
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

// render prints the per-procedure table (calls, errors via counters;
// latency from the service-time histograms) plus the remaining counters.
func render(snap *metrics.Snapshot, delta bool) {
	title := "nfs server per-procedure (cumulative)"
	if delta {
		title = "nfs server per-procedure (interval delta)"
	}
	tb := stats.NewTable(title, "proc", "calls", "svc mean ms", "p50", "p95", "p99", "max")
	procs := make([]string, 0, 8)
	for name := range snap.Counters {
		if p, ok := strings.CutPrefix(name, "nfs.calls."); ok {
			procs = append(procs, p)
		}
	}
	sort.Strings(procs)
	for _, p := range procs {
		calls := snap.Counters["nfs.calls."+p]
		if calls == 0 {
			continue
		}
		h := snap.Histograms["nfs.service_ms."+p]
		tb.AddRow(p, calls,
			fmt.Sprintf("%.3f", h.Mean()),
			fmt.Sprintf("%.3f", h.Quantile(50)),
			fmt.Sprintf("%.3f", h.Quantile(95)),
			fmt.Sprintf("%.3f", h.Quantile(99)),
			fmt.Sprintf("%.3f", h.Max))
	}
	fmt.Print(tb.String())
	fmt.Printf("calls %d  errors %d  dup hits %d  bytes in %d  bytes out %d\n",
		snap.Counters["nfs.calls"], snap.Counters["nfs.errors"],
		snap.Counters["nfs.dup_hits"], snap.Counters["nfs.bytes_in"],
		snap.Counters["nfs.bytes_out"])
	if msgs := snap.Counters["rpc.send.batched_msgs"]; msgs+snap.Counters["rpc.fastpath.calls"] > 0 {
		fmt.Printf("fastpath (udp+tcp) %d calls  %d fallbacks  batched udp sends %d syscalls / %d replies (%.3f per reply)\n",
			snap.Counters["rpc.fastpath.calls"], snap.Counters["rpc.fastpath.fallbacks"],
			snap.Counters["rpc.send.batches"], msgs,
			float64(snap.Counters["rpc.send.batches"])/float64(max(msgs, 1)))
	}
	renderLeases(snap)
	renderStages(snap, delta)
	renderReaders(snap)
	renderWorkers(snap)
	renderLocks(snap)
	fmt.Println()
}

// stageOrder is the pipeline in wire order (matching metrics.StageNames),
// then the cross-stage aggregates.
var stageOrder = []string{"read", "queue", "decode", "dupcheck", "service", "encode", "send", "lockwait", "total"}

// renderStages prints the per-stage latency table: where inside the server
// each request's microseconds went. Under -z the histograms are interval
// deltas, so the percentiles describe just the last polling window.
func renderStages(snap *metrics.Snapshot, delta bool) {
	title := "where the microsecond goes (per-stage, µs, cumulative)"
	if delta {
		title = "where the microsecond goes (per-stage, µs, interval delta)"
	}
	tb := stats.NewTable(title, "stage", "count", "p50", "p95", "p99", "max")
	shown := false
	for _, st := range stageOrder {
		h, ok := snap.Histograms["rpc.stage."+st+".us"]
		if !ok || h.Count == 0 {
			continue
		}
		shown = true
		tb.AddRow(st, h.Count,
			fmt.Sprintf("%.1f", h.Quantile(50)),
			fmt.Sprintf("%.1f", h.Quantile(95)),
			fmt.Sprintf("%.1f", h.Quantile(99)),
			fmt.Sprintf("%.1f", h.Max))
	}
	if shown {
		fmt.Print(tb.String())
	}
}

// renderLeases prints the NQNFS lease extension's traffic when the server
// has granted any: total and piggybacked grants, renewals, the conflict
// side (trylater refusals, evictions, vacates, expiries) and the live
// table size (lease.active, refreshed by the stats endpoint per poll).
func renderLeases(snap *metrics.Snapshot) {
	grants := snap.Counters["lease.grants"]
	if grants == 0 {
		return
	}
	fmt.Printf("leases: %d grants (%d piggybacked, %d renewals)  %d trylater  %d evictions  %d vacates  %d expiries  %.0f active\n",
		grants, snap.Counters["lease.piggy_grants"], snap.Counters["lease.renewals"],
		snap.Counters["lease.trylater"], snap.Counters["lease.evictions"],
		snap.Counters["lease.vacates"], snap.Counters["lease.expiries"],
		snap.Gauges["lease.active"])
}

// renderLocks prints the lock.<site>.* contention counters, busiest first.
func renderLocks(snap *metrics.Snapshot) {
	type row struct {
		name   string
		waits  int64
		waitUS int64
	}
	rows := []row{}
	for name, v := range snap.Counters {
		if site, ok := strings.CutPrefix(name, "lock."); ok {
			if site, ok := strings.CutSuffix(site, ".contended"); ok && v > 0 {
				rows = append(rows, row{site, v, snap.Counters["lock."+site+".wait_us"]})
			}
		}
	}
	if len(rows) == 0 {
		return
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].waitUS > rows[j].waitUS })
	tb := stats.NewTable("lock contention", "site", "waits", "wait ms")
	for _, r := range rows {
		tb.AddRow(r.name, r.waits, fmt.Sprintf("%.3f", float64(r.waitUS)/1000))
	}
	fmt.Print(tb.String())
}

// renderReaders prints the sharded UDP ingest view: one row per reader
// (rpc.reader.<id>.reads / .fast / .inline / .wakeups), showing how evenly
// datagrams spread across the frontend and how many each reader served
// itself, on the shallow dispatch path (fast) or through the generic
// dispatch (inline) — the rest, reads - fast - inline, it spilled to the
// nfsd pool. With SO_REUSEPORT sockets the kernel's 4-tuple hash does the
// spreading; on a shared socket the readers rotate on the fd read lock (and
// spill everything).
func renderReaders(snap *metrics.Snapshot) {
	ids := make([]string, 0, 8)
	for name := range snap.Counters {
		if rest, ok := strings.CutPrefix(name, "rpc.reader."); ok {
			if id, ok := strings.CutSuffix(rest, ".reads"); ok {
				ids = append(ids, id)
			}
		}
	}
	if len(ids) == 0 {
		return
	}
	sort.Slice(ids, func(i, j int) bool {
		if len(ids[i]) != len(ids[j]) {
			return len(ids[i]) < len(ids[j]) // numeric order for numeric ids
		}
		return ids[i] < ids[j]
	})
	mode := "shared socket"
	if snap.Counters["rpc.reader.reuseport"] != 0 {
		mode = "SO_REUSEPORT"
	}
	tb := stats.NewTable(fmt.Sprintf("udp ingest (%d readers, %s)", len(ids), mode),
		"reader", "reads", "fast", "inline", "wakeups")
	for _, id := range ids {
		tb.AddRow("reader."+id,
			snap.Counters["rpc.reader."+id+".reads"],
			snap.Counters["rpc.reader."+id+".fast"],
			snap.Counters["rpc.reader."+id+".inline"],
			snap.Counters["rpc.reader."+id+".wakeups"])
	}
	fmt.Print(tb.String())
}

// renderWorkers prints the parallel-dispatch view: the nfsd pool's busy
// gauge and per-worker tallies (how evenly the queue spreads load), plus
// the sharded duplicate-request-cache counters.
func renderWorkers(snap *metrics.Snapshot) {
	workers := make([]string, 0, 8)
	for name := range snap.Counters {
		if rest, ok := strings.CutPrefix(name, "rpc.nfsd."); ok {
			if id, ok := strings.CutSuffix(rest, ".calls"); ok {
				workers = append(workers, id)
			}
		}
	}
	if len(workers) > 0 {
		sort.Slice(workers, func(i, j int) bool {
			if len(workers[i]) != len(workers[j]) {
				return len(workers[i]) < len(workers[j]) // numeric order for numeric ids
			}
			return workers[i] < workers[j]
		})
		tb := stats.NewTable(fmt.Sprintf("nfsd worker pool (%d workers, %.0f busy now)",
			len(workers), snap.Gauges["rpc.nfsd.busy"]),
			"nfsd", "calls", "busy ms")
		for _, id := range workers {
			tb.AddRow("nfsd."+id,
				snap.Counters["rpc.nfsd."+id+".calls"],
				fmt.Sprintf("%.1f", float64(snap.Counters["rpc.nfsd."+id+".busy_us"])/1000))
		}
		fmt.Print(tb.String())
	}
	if hits, ok := snap.Counters["server.dupc.shard_hits"]; ok {
		fmt.Printf("dupcache shards: %d hits  %d lock contentions  %d in-flight drops\n",
			hits, snap.Counters["server.dupc.contended"],
			snap.Counters["server.dupc.inflight_drops"])
	}
}
