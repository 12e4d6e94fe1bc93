// Command nfsd runs the user-space NFS v2 server over real UDP and TCP
// sockets — the same protocol core (mbuf/XDR codec, dispatch, caches,
// duplicate-request cache) the simulator exercises, demonstrating the
// implementation's transport independence on genuine sockets.
//
// Usage:
//
//	nfsd -udp 127.0.0.1:12049 -tcp 127.0.0.1:12049 -stats 127.0.0.1:12050
//
// -nfsds sizes the parallel worker pool: UDP requests and every TCP
// connection dispatch concurrently into the server core, so NFSDs means
// real parallelism here, not just simulated daemons. -readers sizes the
// sharded UDP ingest frontend (SO_REUSEPORT sockets where the platform
// supports it, shared-socket reader goroutines elsewhere); 0 runs one
// reader per GOMAXPROCS.
//
// The exported filesystem is in-memory and seeded with a small demo tree.
// The root file handle is printed in hex; cmd/nfsstone and the quickstart
// example show a client side.
//
// The -stats listener serves the live metrics registry (per-procedure call
// counters and service-time histograms):
//
//	GET /stats       JSON snapshot (the cmd/nfsstat wire format)
//	GET /stats.txt   the same snapshot as aligned text
//	GET /trace       the slowest-span ring as Chrome trace-event JSON
//	                 (load at chrome://tracing or ui.perfetto.dev)
//
// -tracedump FILE writes the same Chrome trace JSON to FILE at shutdown.
//
// On ^C the server prints a per-procedure summary table, the stage-level
// "where the microsecond goes" breakdown, and the lock-contention sites
// before exiting.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"

	"renonfs/internal/lockstat"
	"renonfs/internal/memfs"
	"renonfs/internal/metrics"
	"renonfs/internal/nfsnet"
	"renonfs/internal/nfsproto"
	"renonfs/internal/server"
	"renonfs/internal/stats"
)

func main() {
	var (
		udpAddr   = flag.String("udp", "127.0.0.1:12049", "UDP listen address")
		tcpAddr   = flag.String("tcp", "127.0.0.1:12049", "TCP listen address")
		statsAddr = flag.String("stats", "127.0.0.1:12050", "stats HTTP listen address (empty disables)")
		ultrix    = flag.Bool("ultrix", false, "serve with the Ultrix (reference-port) personality")
		nfsds     = flag.Int("nfsds", 8, "parallel nfsd worker goroutines (the UDP dispatch pool)")
		readers   = flag.Int("readers", 0, "sharded UDP ingest readers (0 = one per GOMAXPROCS; clamped to -nfsds)")
		exports   = flag.String("exports", "/,/etc,/home", "comma-separated export paths")
		rdlook    = flag.Bool("readdirlook", true, "serve the readdir_and_lookup_files extension")
		leases    = flag.Bool("leases", false, "serve the NQNFS-style lease extension (grants need the simulator's peer addressing for callbacks; real-socket clients fall back to plain consistency)")
		traceDump = flag.String("tracedump", "", "write the slowest-span Chrome trace JSON here at shutdown")
	)
	flag.Parse()

	fs := memfs.New(1, nil, nil)
	root := fs.Root()
	etc, _ := fs.Mkdir(nil, root, "etc", 0755)
	motd, _ := fs.Create(nil, etc, "motd", 0644)
	fs.WriteAt(nil, motd, 0, []byte("welcome to renonfs: a 4.3BSD Reno NFS reproduction\n"), 0)
	fs.Mkdir(nil, root, "home", 0755)

	opts := server.Reno()
	if *ultrix {
		opts = server.Ultrix()
	}
	opts.ReaddirLook = *rdlook
	opts.Leases = *leases
	if *nfsds > 0 {
		opts.NFSDs = *nfsds
	}
	opts.Readers = *readers
	srv := server.New(fs, opts)
	for _, path := range strings.Split(*exports, ",") {
		if path != "" {
			srv.Export(path)
		}
	}
	s, err := nfsnet.Serve(srv, *udpAddr, *tcpAddr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nfsd: %v\n", err)
		os.Exit(1)
	}
	defer s.Close()
	rootFH := srv.RootFH()
	ingest := "shared socket"
	if s.ReusePort() {
		ingest = "SO_REUSEPORT sockets"
	}
	fmt.Printf("nfsd (%s personality) serving\n  udp %s (%d readers, %s)\n  tcp %s\n  exports %s\n  root fh %x (or MNT \"/\" via the MOUNT protocol)\n",
		opts.Name, s.UDPAddr(), s.Readers(), ingest, s.TCPAddr(), *exports, rootFH[:12])
	if *statsAddr != "" {
		go serveStats(*statsAddr, s)
		fmt.Printf("  stats http://%s/stats (poll with cmd/nfsstat; /trace for a span dump)\n", *statsAddr)
	}
	fmt.Println("^C to stop")

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
	fmt.Println()
	printFinal(s)
	if *traceDump != "" {
		if err := writeTrace(*traceDump, s); err != nil {
			fmt.Fprintf(os.Stderr, "nfsd: trace dump: %v\n", err)
		} else {
			fmt.Printf("slow-span trace written to %s (open at chrome://tracing)\n", *traceDump)
		}
	}
}

// writeTrace dumps the slowest-span ring as Chrome trace JSON.
func writeTrace(path string, s *nfsnet.Server) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return metrics.WriteChromeTrace(f, s.Stages().Ring().Slowest(), nfsproto.ProcName)
}

// serveStats exposes the registry over HTTP. Snapshots read atomics only,
// so serving concurrently with request handling needs no locking; the mbuf
// pool/copy counters, the lazily published nfsd-pool gauge and the lockstat
// site counters are refreshed on each request so nfsstat sees live numbers.
func serveStats(addr string, s *nfsnet.Server) {
	srv := s.Core()
	reg := srv.Metrics
	refresh := func() {
		srv.PublishMbufStats()
		srv.PublishLeaseStats()
		s.PublishStats()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		refresh()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(reg.Snapshot())
	})
	mux.HandleFunc("/stats.txt", func(w http.ResponseWriter, r *http.Request) {
		refresh()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		reg.Snapshot().WriteText(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		metrics.WriteChromeTrace(w, s.Stages().Ring().Slowest(), nfsproto.ProcName)
	})
	if err := http.ListenAndServe(addr, mux); err != nil {
		fmt.Fprintf(os.Stderr, "nfsd: stats endpoint: %v\n", err)
	}
}

// printFinal renders the shutdown summary: one row per procedure that was
// called, with its service-time distribution, the stage-level latency
// breakdown, the lock-contention sites and the totals.
func printFinal(s *nfsnet.Server) {
	srv := s.Core()
	srv.PublishMbufStats()
	srv.PublishLeaseStats()
	s.PublishStats()
	snap := srv.Metrics.Snapshot()
	tb := stats.NewTable("per-procedure totals",
		"proc", "calls", "svc mean ms", "p50", "p99", "max")
	for proc := uint32(0); proc < nfsproto.NumProcsExt; proc++ {
		n := snap.Counters["nfs.calls."+nfsproto.ProcName(proc)]
		if n == 0 {
			continue
		}
		h := snap.Histograms["nfs.service_ms."+nfsproto.ProcName(proc)]
		tb.AddRow(nfsproto.ProcName(proc), n,
			fmt.Sprintf("%.3f", h.Mean()),
			fmt.Sprintf("%.3f", h.Quantile(50)),
			fmt.Sprintf("%.3f", h.Quantile(99)),
			fmt.Sprintf("%.3f", h.Max))
	}
	fmt.Print(tb.String())
	fmt.Printf("totals: %d calls, %d errors, %d duplicate replays suppressed, %d bytes in, %d bytes out\n",
		snap.Counters["nfs.calls"], snap.Counters["nfs.errors"], snap.Counters["nfs.dup_hits"],
		snap.Counters["nfs.bytes_in"], snap.Counters["nfs.bytes_out"])
	fmt.Printf("mbuf: %d bytes copied, %d bytes loaned, pool %d hits / %d misses\n",
		snap.Counters["mbuf.copied_bytes"], snap.Counters["mbuf.loaned_bytes"],
		snap.Counters["mbuf.pool_hits"], snap.Counters["mbuf.pool_misses"])
	if msgs := snap.Counters["rpc.send.batched_msgs"]; msgs+snap.Counters["rpc.fastpath.calls"] > 0 {
		fmt.Printf("fastpath (udp+tcp): %d calls, %d fallbacks; batched udp sends: %d syscalls / %d replies (%.3f per reply)\n",
			snap.Counters["rpc.fastpath.calls"], snap.Counters["rpc.fastpath.fallbacks"],
			snap.Counters["rpc.send.batches"], msgs,
			float64(snap.Counters["rpc.send.batches"])/float64(max(msgs, 1)))
	}
	if grants := snap.Counters["lease.grants"]; grants > 0 {
		fmt.Printf("leases: %d grants (%d piggybacked, %d renewals), %d trylater, %d evictions, %d vacates, %d expiries, %.0f active\n",
			grants, snap.Counters["lease.piggy_grants"], snap.Counters["lease.renewals"],
			snap.Counters["lease.trylater"], snap.Counters["lease.evictions"],
			snap.Counters["lease.vacates"], snap.Counters["lease.expiries"],
			snap.Gauges["lease.active"])
	}
	printReaders(snap, s)
	printStages(snap)
	printLocks()
}

// printReaders renders the per-reader ingest spread: how many datagrams
// each sharded reader read, how many of them it served itself — on the
// shallow dispatch path (fast) or through the generic dispatch (inline);
// the rest, reads - fast - inline, it spilled to the nfsd pool — and how
// often it woke from a blocking read.
func printReaders(snap *metrics.Snapshot, s *nfsnet.Server) {
	n := s.Readers()
	if n <= 1 {
		return
	}
	mode := "shared socket"
	if s.ReusePort() {
		mode = "SO_REUSEPORT"
	}
	tb := stats.NewTable(fmt.Sprintf("udp ingest (%d readers, %s)", n, mode),
		"reader", "reads", "fast", "inline", "wakeups")
	for i := 0; i < n; i++ {
		tb.AddRow(i,
			snap.Counters[fmt.Sprintf("rpc.reader.%d.reads", i)],
			snap.Counters[fmt.Sprintf("rpc.reader.%d.fast", i)],
			snap.Counters[fmt.Sprintf("rpc.reader.%d.inline", i)],
			snap.Counters[fmt.Sprintf("rpc.reader.%d.wakeups", i)])
	}
	fmt.Print(tb.String())
}

// printStages renders the per-stage pipeline latency table from the
// rpc.stage.* histograms.
func printStages(snap *metrics.Snapshot) {
	tb := stats.NewTable("where the microsecond goes (per-stage, µs)",
		"stage", "count", "p50", "p95", "p99", "max")
	names := metrics.StageNames()
	rows := append(names[:], "lockwait", "total")
	shown := false
	for _, st := range rows {
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

// printLocks renders the lockstat sites that saw contention.
func printLocks() {
	shown := false
	for _, st := range lockstat.Stats() {
		if st.Contended == 0 {
			continue
		}
		if !shown {
			fmt.Println("lock contention (waits/total wait):")
			shown = true
		}
		fmt.Printf("  %-20s %8d waits  %10.3f ms\n", st.Name, st.Contended, float64(st.WaitNS)/1e6)
	}
}
