package nfsnet

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"renonfs/internal/metrics"
	"renonfs/internal/stats"
)

// RenderStats writes a registry snapshot as the nfsstat tables; nfsstat
// and nfsd's shutdown summary both print through it. Sections the snapshot
// has nothing for are left out: the per-procedure calls and service times
// (nfs.service_ms.<proc>; a histogram's count is the procedure's call count,
// and their sum the calls total), the totals and mbuf copy lines,
// the shallow-dispatch and send-coalescing line (rpc.fastpath.*,
// rpc.send.*), the lease traffic, "where the microsecond goes" per stage
// (rpc.stage.<name>.us), the UDP ingest readers (rpc.readers and
// rpc.reader.reuseport are gauges, so they survive a Delta) and the
// kernel's receive drops (rpc.udp.kernel_drops), the nfsd pool,
// the dupcache's in-flight drops and the contended lock sites
// (lock.<site>.*).
//
// Histogram percentiles and maxima are bucket midpoints, within 6.25 % of
// the exact nearest-rank value, and follow the tables' rule: one with fewer
// than stats.MinTail samples above its rank prints "-", and the count column
// beside it is the n.
//
// delta labels a Snapshot.Delta view — nfsstat -z's interval: every count,
// percentile and max covers the interval.
func RenderStats(w io.Writer, snap *metrics.Snapshot, delta bool) {
	c := snap.Counters
	view := "cumulative"
	if delta {
		view = "interval delta"
	}

	tb := stats.NewTable("nfs server per-procedure ("+view+")",
		"proc", "calls", "svc mean ms", "p50", "p95", "p99", "max")
	procs := make([]string, 0, 8)
	for name, h := range snap.Histograms {
		if p, ok := strings.CutPrefix(name, "nfs.service_ms."); ok && h.Count > 0 {
			procs = append(procs, p)
		}
	}
	sort.Strings(procs)
	var calls int64
	for _, p := range procs {
		h := snap.Histograms["nfs.service_ms."+p]
		calls += h.Count
		tb.AddRow(p, h.Count, fmt.Sprintf("%.3f", h.Mean()),
			quantile(h, 50, 3), quantile(h, 95, 3), quantile(h, 99, 3),
			fmt.Sprintf("%.3f", h.Max()))
	}
	fmt.Fprint(w, tb.String())
	fmt.Fprintf(w, "calls %d  errors %d  dup hits %d  bytes in %d  bytes out %d\n",
		calls, c["nfs.errors"], c["nfs.dup_hits"], c["nfs.bytes_in"], c["nfs.bytes_out"])
	if _, ok := c["mbuf.copied_bytes"]; ok {
		fmt.Fprintf(w, "mbuf: %d bytes copied  %d bytes loaned  pool %d hits / %d misses\n",
			c["mbuf.copied_bytes"], c["mbuf.loaned_bytes"], c["mbuf.pool_hits"], c["mbuf.pool_misses"])
	}
	if msgs := c["rpc.send.batched_msgs"]; msgs+c["rpc.fastpath.calls"] > 0 {
		fmt.Fprintf(w, "fastpath (udp+tcp) %d calls  batched udp sends %d syscalls / %d replies (%.3f per reply)\n",
			c["rpc.fastpath.calls"], c["rpc.send.batches"], msgs,
			float64(c["rpc.send.batches"])/float64(max(msgs, 1)))
	}
	if grants := c["lease.grants"]; grants > 0 {
		fmt.Fprintf(w, "leases: %d grants (%d piggybacked, %d renewals)  %d trylater  %d evictions  %d vacates  %d expiries  %.0f active\n",
			grants, c["lease.piggy_grants"], c["lease.renewals"], c["lease.trylater"],
			c["lease.evictions"], c["lease.vacates"], c["lease.expiries"], snap.Gauges["lease.active"])
	}

	tb = stats.NewTable("where the microsecond goes (per-stage, µs, "+view+")",
		"stage", "count", "p50", "p95", "p99", "max")
	stages := metrics.StageNames()
	for _, st := range append(stages[:], "lockwait", "total") {
		if h := snap.Histograms["rpc.stage."+st+".us"]; h.Count > 0 {
			tb.AddRow(st, h.Count, quantile(h, 50, 1), quantile(h, 95, 1), quantile(h, 99, 1),
				fmt.Sprintf("%.1f", h.Max()))
		}
	}
	if len(tb.Rows) > 0 {
		fmt.Fprint(w, tb.String())
	}

	// The sharded UDP ingest: how evenly datagrams spread across readers and
	// how many each served itself, on the shallow path (fast) or through the
	// generic dispatch (inline) — the rest, reads - fast - inline, it spilled
	// to the nfsd pool — and how many the kernel dropped before any read.
	if ids := counterIDs(c, "rpc.reader.", ".reads"); len(ids) > 0 {
		mode := "shared socket"
		if snap.Gauges["rpc.reader.reuseport"] != 0 {
			mode = "SO_REUSEPORT"
		}
		tb = stats.NewTable(fmt.Sprintf("udp ingest (%.0f readers, %s)", snap.Gauges["rpc.readers"], mode),
			"reader", "reads", "fast", "inline", "wakeups")
		for _, id := range ids {
			p := "rpc.reader." + id
			tb.AddRow("reader."+id, c[p+".reads"], c[p+".fast"], c[p+".inline"], c[p+".wakeups"])
		}
		fmt.Fprint(w, tb.String())
		fmt.Fprintf(w, "udp kernel receive drops %d\n", c["rpc.udp.kernel_drops"])
	}

	if ids := counterIDs(c, "rpc.nfsd.", ".calls"); len(ids) > 0 {
		tb = stats.NewTable(fmt.Sprintf("nfsd worker pool (%d workers, %.0f busy now)",
			len(ids), snap.Gauges["rpc.nfsd.busy"]),
			"nfsd", "calls", "busy ms")
		for _, id := range ids {
			tb.AddRow("nfsd."+id, c["rpc.nfsd."+id+".calls"],
				fmt.Sprintf("%.1f", float64(c["rpc.nfsd."+id+".busy_us"])/1000))
		}
		fmt.Fprint(w, tb.String())
	}
	if drops, ok := c["server.dupc.inflight_drops"]; ok {
		fmt.Fprintf(w, "dupcache: %d in-flight drops\n", drops)
	}

	// Lock sites that saw contention, longest total wait first.
	sites := counterIDs(c, "lock.", ".contended")
	sites = slices.DeleteFunc(sites, func(s string) bool { return c["lock."+s+".contended"] == 0 })
	if len(sites) > 0 {
		sort.SliceStable(sites, func(i, j int) bool {
			return c["lock."+sites[i]+".wait_us"] > c["lock."+sites[j]+".wait_us"]
		})
		tb = stats.NewTable("lock contention", "site", "waits", "wait ms")
		for _, s := range sites {
			tb.AddRow(s, c["lock."+s+".contended"], fmt.Sprintf("%.3f", float64(c["lock."+s+".wait_us"])/1000))
		}
		fmt.Fprint(w, tb.String())
	}
	fmt.Fprintln(w)
}

// quantile formats h's p-th percentile with prec decimals, or "-" where it
// is undefined.
func quantile(h metrics.HistogramSnapshot, p float64, prec int) string {
	v, ok := h.Quantile(p)
	return stats.Fixed(v, prec, ok)
}

// counterIDs returns the <id>s of the counters named prefix+<id>+suffix,
// numeric ids in numeric order.
func counterIDs(c map[string]int64, prefix, suffix string) []string {
	var ids []string
	for name := range c {
		if rest, ok := strings.CutPrefix(name, prefix); ok {
			if id, ok := strings.CutSuffix(rest, suffix); ok {
				ids = append(ids, id)
			}
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		if len(ids[i]) != len(ids[j]) {
			return len(ids[i]) < len(ids[j])
		}
		return ids[i] < ids[j]
	})
	return ids
}
