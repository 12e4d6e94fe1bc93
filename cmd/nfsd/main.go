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
//	GET /stats.txt   the same snapshot as the nfsstat tables
//	GET /trace       the slowest-span ring as Chrome trace-event JSON
//	                 (load at chrome://tracing or ui.perfetto.dev)
//
// -tracedump FILE writes the same Chrome trace JSON to FILE at shutdown.
//
// On ^C the server prints the same tables cmd/nfsstat renders from /stats
// (nfsnet.RenderStats, cumulative) before exiting.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"

	"renonfs/internal/mbuf"
	"renonfs/internal/memfs"
	"renonfs/internal/metrics"
	"renonfs/internal/nfsnet"
	"renonfs/internal/nfsproto"
	"renonfs/internal/server"
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
	if *nfsds > 0 {
		opts.NFSDs = *nfsds
	}
	opts.Readers = *readers
	srv := server.New(fs, opts)
	mbuf.CountInto(srv.Metrics) // the copy traffic §3 of the paper is about
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
	nfsnet.RenderStats(os.Stdout, snapshot(s), false)
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

// snapshot refreshes the lazily published metrics — the lease table size,
// the nfsd-pool gauge and the lockstat site counters — and copies the
// registry. It reads atomics only, so it runs concurrently with request
// handling without locking.
func snapshot(s *nfsnet.Server) *metrics.Snapshot {
	srv := s.Core()
	srv.PublishLeaseStats()
	s.PublishStats()
	return srv.Metrics.Snapshot()
}

// serveStats exposes a fresh snapshot per request over HTTP.
func serveStats(addr string, s *nfsnet.Server) {
	mux := http.NewServeMux()
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(snapshot(s))
	})
	mux.HandleFunc("/stats.txt", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		nfsnet.RenderStats(w, snapshot(s), false)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		metrics.WriteChromeTrace(w, s.Stages().Ring().Slowest(), nfsproto.ProcName)
	})
	if err := http.ListenAndServe(addr, mux); err != nil {
		fmt.Fprintf(os.Stderr, "nfsd: stats endpoint: %v\n", err)
	}
}
