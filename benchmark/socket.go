package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"syscall"
	"time"

	"renonfs/internal/metrics"
	"renonfs/internal/nfsnet"
	"renonfs/internal/nfsproto"
)

const (
	warmupOps     = 12 * streamLen // fixed-count warm-up: whole stream cycles, ~50,000 ops
	setupRepeats  = 3              // children per end-to-end run; every metric is the median over them
	readBackCount = 256
)

// rig is one nfsd child brought to the point of the first timed op.
type rig struct {
	d      *nfsd
	sync   *nfsnet.Client // populate and read-back
	g      *loadgen
	setupS float64
}

func (r *rig) close() {
	r.g.conn.Close()
	r.sync.Close()
	r.d.stop()
}

// setUp is everything setup_s covers: spawn and readiness probe, MNT,
// populate through NFS, template generation, connect, fixed-count warm-up.
func setUp(w *workload, cfg *config, stats bool) (*rig, error) {
	t0 := time.Now()
	d, err := spawnNfsd(cfg.nfsd, stats)
	if err != nil {
		return nil, err
	}
	r := &rig{d: d}
	fail := func(err error) (*rig, error) {
		if r.sync != nil {
			r.sync.Close()
		}
		d.stop()
		return nil, err
	}
	if r.sync, err = nfsnet.DialUDP(d.addr); err != nil {
		return fail(err)
	}
	mnt, err := r.sync.Mnt("/")
	if err != nil || mnt.Status != 0 {
		return fail(fmt.Errorf("MNT /: %v %v", mnt, err))
	}
	ds, err := populate(r.sync, mnt.File, w, cfg.seed)
	if err != nil {
		return fail(fmt.Errorf("populate: %w", err))
	}
	network := "udp"
	if w.tcp {
		network = "tcp"
	}
	conn, err := net.Dial(network, d.addr)
	if err != nil {
		return fail(err)
	}
	r.g = newLoadgen(buildStream(w, ds, cfg.seed), w.window, conn)
	r.g.run(warmupOps, 0)
	r.setupS = time.Since(t0).Seconds()
	return r, nil
}

// windowResult is what a client and /proc saw of one timed phase.
type windowResult struct {
	phase
	sorted       []uint32
	server, self procUsage // deltas over the window (hwmMB absolute)
}

func selfUsage() procUsage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	us := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return procUsage{userUS: us(ru.Utime), sysUS: us(ru.Stime)}
}

// window runs the timed phase on r.
func (r *rig) window(dur time.Duration) (*windowResult, error) {
	u0, err := readUsage(r.d.pid)
	if err != nil {
		return nil, err
	}
	s0 := selfUsage()
	r.g.cpu = func() float64 { return cpuUS(r.d.pid) }
	p := r.g.run(0, dur)
	s1 := selfUsage()
	u1, err := readUsage(r.d.pid)
	if err != nil {
		return nil, err
	}
	if p.ops == 0 {
		return nil, fmt.Errorf("no op completed (%s)", r.g.firstErr)
	}
	return &windowResult{phase: p, sorted: sortedLat(p.lat),
		server: procUsage{userUS: u1.userUS - u0.userUS, sysUS: u1.sysUS - u0.sysUS, hwmMB: u1.hwmMB, ctxsw: u1.ctxsw - u0.ctxsw},
		self:   procUsage{userUS: s1.userUS - s0.userUS, sysUS: s1.sysUS - s0.sysUS}}, nil
}

// sliceStats are the per-slice readings the end-to-end metrics are drawn from.
type sliceStats struct {
	rate, p50, cpu []float64 // ops/s, µs, server CPU µs per op
}

func (wr *windowResult) slices() sliceStats {
	var st sliceStats
	for i := 1; i < len(wr.marks); i++ {
		a, b := wr.marks[i-1], wr.marks[i]
		p50, ok := percentile(sortedLat(wr.lat[a.done:b.done]), 0.50)
		if !ok {
			continue // a slice this empty is a stall, and no decile will pick it
		}
		n := float64(b.done - a.done)
		st.rate = append(st.rate, n/(float64(b.at-a.at)/1e9))
		st.p50 = append(st.p50, p50/1e3)
		st.cpu = append(st.cpu, (b.cpuUS-a.cpuUS)/n)
	}
	return st
}

func (wr *windowResult) opsPerS() float64 { return float64(wr.ops) / (float64(wr.wallNS) / 1e9) }

// readBack verifies the export after a window that wrote to it.
func (r *rig) readBack(w *workload) {
	if !w.data {
		return
	}
	r.g.readBack(func(fh nfsproto.FH, off uint32) ([]byte, error) {
		res, err := r.sync.Read(fh, off, blockSize)
		if err != nil {
			return nil, err
		}
		if res.Status != nfsproto.OK {
			return nil, fmt.Errorf("status %v", res.Status)
		}
		return res.Data.Bytes(), nil
	}, readBackCount)
}

// runSocketE2E is the end-to-end pass, tracing off. The window is shared out
// over setupRepeats fresh children, each set up from nothing, and every metric
// is the median of the children's readings: two instances of one binary differ
// by several percent in CPU per op (where their pages and sockets happen to
// land), and a run that measured a single child would inherit its luck.
func runSocketE2E(w *workload, cfg *config) (*result, error) {
	res := newResult(0, 0)
	var setups, rate, p50, cpu, rss []float64
	for i := 0; i < setupRepeats; i++ {
		r, err := setUp(w, cfg, false)
		if err != nil {
			return nil, err
		}
		wr, err := r.window(cfg.window() / setupRepeats)
		if err == nil {
			r.readBack(w)
		}
		res.attempted, res.failed = res.attempted+r.g.attempted, res.failed+r.g.failed
		r.close()
		if err != nil {
			return nil, err
		}
		st := wr.slices()
		setups = append(setups, r.setupS)
		rate = append(rate, bestDecile(st.rate, true))
		p50 = append(p50, bestDecile(st.p50, false))
		cpu = append(cpu, bestDecile(st.cpu, false))
		rss = append(rss, wr.server.hwmMB)
		wp50, _ := percentile(wr.sorted, 0.50)
		wp99, _ := percentile(wr.sorted, 0.99)
		fmt.Printf("# %s child %d: set-up %.3f s; %d ops in %.3f s, %d slices; whole window %.0f ops/s, p50 %.1f us, p99 %.1f us, server cpu %.2f us/op; %d retransmits, %d stale replies; template sha256 %s\n",
			w.name, i+1, r.setupS, wr.ops, float64(wr.wallNS)/1e9, len(st.rate), wr.opsPerS(), wp50/1e3, wp99/1e3,
			(wr.server.userUS+wr.server.sysUS)/float64(wr.ops), r.g.retransmits, r.g.stale, r.g.s.sha256[:16])
	}
	fmt.Printf("# best-decile slice of each child: ops/s %.0f, p50 %.1f us, server cpu %.2f us/op\n", rate, p50, cpu)
	res.set("setup_s", median(setups))
	res.set("ops_per_s", median(rate))
	res.set("lat_p50_us", median(p50))
	res.set("server_cpu_us_per_op", median(cpu))
	res.set("server_rss_mb", median(rss))
	return res, nil
}

// runSocketTraced is the traced pass. Tracing is out of band: the child's
// /stats registry scraped before and after a window, /proc, and the
// in-process ladder. A first window against a child started the end-to-end
// way (no -stats listener) gives the rate trace.overhead_frac compares with.
func runSocketTraced(w *workload, cfg *config) (*result, error) {
	half := cfg.window() / 2
	ref, err := setUp(w, cfg, false)
	if err != nil {
		return nil, err
	}
	refWin, err := ref.window(half)
	attempted, failed := ref.g.attempted, ref.g.failed
	ref.close()
	if err != nil {
		return nil, err
	}

	r, err := setUp(w, cfg, true)
	if err != nil {
		return nil, err
	}
	defer r.close()
	before, err := scrape(r.d.statsURL)
	if err != nil {
		return nil, err
	}
	wr, err := r.window(half)
	if err != nil {
		return nil, err
	}
	after, err := scrape(r.d.statsURL)
	if err != nil {
		return nil, err
	}
	r.readBack(w)
	res := newResult(attempted+r.g.attempted, failed+r.g.failed)
	for _, d := range layerMetrics {
		res.set(d.name, 0) // a layer this workload never enters reads 0
	}
	statsMetrics(after.Delta(before), float64(wr.ops), res.values)
	ops := float64(wr.ops)
	res.set("proc.server_user_us_per_op", wr.server.userUS/ops)
	res.set("proc.server_sys_us_per_op", wr.server.sysUS/ops)
	res.set("proc.server_ctxsw_per_op", float64(wr.server.ctxsw)/ops)
	res.set("proc.loadgen_cpu_us_per_op", (wr.self.userUS+wr.self.sysUS)/ops)
	var sum float64
	for _, ns := range wr.sorted {
		sum += float64(ns)
	}
	mean := sum / float64(len(wr.sorted)) / 1e3
	res.set("client.lat_mean_us", mean)
	for name, p := range map[string]float64{"client.lat_p90_us": 0.90, "client.lat_p99_us": 0.99, "client.lat_p999_us": 0.999} {
		if v, ok := percentile(wr.sorted, p); ok {
			res.set(name, v/1e3)
		}
	}
	res.set("client.retransmits_per_kop", float64(r.g.retransmits)*1e3/float64(r.g.attempted))
	res.set("client.slice_spread", spread(wr.slices().rate))
	res.set("recon.residual_us", mean-res.values["nfsnet.stage_total_us"])
	res.set("recon.residual_share", ratio(mean-res.values["nfsnet.stage_total_us"], mean))
	res.set("trace.overhead_frac", 1-wr.opsPerS()/refWin.opsPerS())
	if err := ladder(w, cfg.seed, res.values); err != nil {
		return nil, err
	}
	fmt.Printf("# %s traced: %d ops in %.3f s with /stats (%.0f ops/s), %d ops without (%.0f ops/s)\n",
		w.name, wr.ops, float64(wr.wallNS)/1e9, wr.opsPerS(), refWin.ops, refWin.opsPerS())
	return res, nil
}

func scrape(url string) (*metrics.Snapshot, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	snap := &metrics.Snapshot{}
	if err := json.NewDecoder(resp.Body).Decode(snap); err != nil {
		return nil, fmt.Errorf("decode %s: %w", url, err)
	}
	return snap, nil
}

// statsMetrics derives the per-layer metrics that come from the child's
// registry: d is the window's delta, ops the verified replies in it.
func statsMetrics(d *metrics.Snapshot, ops float64, m map[string]float64) {
	c := func(name string) float64 { return float64(d.Counters[name]) }
	sum := func(prefix, suffix string) (t float64) {
		for name, v := range d.Counters {
			if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
				t += float64(v)
			}
		}
		return t
	}
	stages := metrics.StageNames()
	for _, st := range append(stages[:], "total") {
		m["nfsnet.stage_"+st+"_us"] = d.Histograms["rpc.stage."+st+".us"].Mean()
	}
	fast, fallbacks := c("rpc.fastpath.calls"), c("rpc.fastpath.fallbacks")
	m["nfsnet.fastpath_share"] = fast / ops
	m["nfsnet.fastpath_fallback_ratio"] = ratio(fallbacks, fast+fallbacks)
	m["nfsnet.msgs_per_send_batch"] = ratio(c("rpc.send.batched_msgs"), c("rpc.send.batches"))
	m["nfsnet.reads_per_wakeup"] = ratio(sum("rpc.reader.", ".reads"), sum("rpc.reader.", ".wakeups"))
	m["nfsnet.ring_hop_share"] = sum("rpc.nfsd.", ".calls") / ops
	m["mbuf.copied_bytes_per_op"] = c("mbuf.copied_bytes") / ops
	m["mbuf.loaned_bytes_per_op"] = c("mbuf.loaned_bytes") / ops
	m["mbuf.cluster_allocs_per_op"] = c("mbuf.cluster_allocs") / ops
	m["mbuf.pool_miss_ratio"] = ratio(c("mbuf.pool_misses"), c("mbuf.pool_hits")+c("mbuf.pool_misses"))
	m["server.dup_hits_per_kop"] = c("nfs.dup_hits") * 1e3 / ops
	m["server.dupc_inflight_drops"] = c("server.dupc.inflight_drops")
	m["server.errors"] = c("nfs.errors")
	m["lock.contended_per_kop"] = sum("lock.", ".contended") * 1e3 / ops
	m["lock.wait_us_per_op"] = sum("lock.", ".wait_us") / ops
}
