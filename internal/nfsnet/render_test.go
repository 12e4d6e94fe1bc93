package nfsnet

import (
	"strings"
	"testing"

	"renonfs/internal/memfs"
	"renonfs/internal/metrics"
	"renonfs/internal/server"
)

// statsFixture adds one interval of traffic touching every section
// RenderStats prints: procedures (one an extension, one never called), the
// totals and mbuf lines, fastpath/batching, leases, stages, two readers and
// the kernel's drops, two nfsds, the dupcache and lock sites (one contended, one not). GETATTR has
// the samples for every percentile, the total stage enough for p95 but too
// few above its p99 rank, and the rest print "-" throughout.
func statsFixture(r *metrics.Registry) {
	add := func(name string, n int64) { r.Counter(name).Add(n) }
	for _, p := range []struct {
		name string
		ms   []float64
	}{
		{"getattr", []float64{0.004, 0.006}},
		{"lookup", []float64{0.010, 0.020, 0.040}},
		{"readdirlook", []float64{0.250}},
		{"null", nil},
	} {
		h := r.Histogram("nfs.service_ms." + p.name)
		for _, v := range p.ms {
			h.Observe(v)
		}
	}
	for name, n := range map[string]int64{
		"nfs.errors": 1, "nfs.dup_hits": 1, "nfs.bytes_in": 800, "nfs.bytes_out": 1200,
		"mbuf.copied_bytes": 84, "mbuf.loaned_bytes": 8192, "mbuf.pool_hits": 10, "mbuf.pool_misses": 2,
		"rpc.fastpath.calls": 5, "rpc.send.batches": 3, "rpc.send.batched_msgs": 6,
		"lease.grants": 4, "lease.piggy_grants": 3, "lease.renewals": 1, "lease.trylater": 1,
		"lease.evictions": 1, "lease.vacates": 1, "lease.expiries": 0,
		"rpc.reader.0.reads": 4, "rpc.reader.0.fast": 3, "rpc.reader.0.inline": 1, "rpc.reader.0.wakeups": 2,
		"rpc.reader.1.reads": 3, "rpc.reader.1.fast": 2, "rpc.reader.1.inline": 0, "rpc.reader.1.wakeups": 3,
		"rpc.nfsd.0.calls": 1, "rpc.nfsd.0.busy_us": 1500, "rpc.nfsd.1.calls": 0, "rpc.nfsd.1.busy_us": 0,
		"server.dupc.inflight_drops": 0, "rpc.udp.kernel_drops": 5,
		"lock.server.dupc.contended": 2, "lock.server.dupc.wait_us": 350,
		"lock.vfs.bufcache.contended": 0, "lock.vfs.bufcache.wait_us": 0,
	} {
		add(name, n)
	}
	for stage, us := range map[string][]float64{
		"read": {1, 2}, "decode": {0.5, 0.5}, "service": {3, 12}, "send": {6, 7}, "total": {11, 22},
	} {
		for _, v := range us {
			r.Histogram("rpc.stage." + stage + ".us").Observe(v)
		}
	}
	for i := range 1000 {
		r.Histogram("nfs.service_ms.getattr").Observe(0.002 + 0.001*float64(i%8))
	}
	for i := range 200 {
		r.Histogram("rpc.stage.total.us").Observe(10 + float64(i%20))
	}
	r.Gauge("lease.active").Set(2)
	r.Gauge("rpc.readers").Set(2)
	r.Gauge("rpc.reader.reuseport").Set(1)
	r.Gauge("rpc.nfsd.busy").Set(1)
}

func render(snap *metrics.Snapshot, delta bool) string {
	var b strings.Builder
	RenderStats(&b, snap, delta)
	return b.String()
}

const wantCumulative = `nfs server per-procedure (cumulative)
proc         calls  svc mean ms  p50    p95    p99    max  
-----------  -----  -----------  -----  -----  -----  -----
getattr      2004   0.005        0.005  0.009  0.009  0.009
lookup       7      0.234        -      -      -      1.562
readdirlook  2      0.250        -      -      -      0.266
calls 2013  errors 2  dup hits 2  bytes in 1600  bytes out 2400
mbuf: 168 bytes copied  16384 bytes loaned  pool 20 hits / 4 misses
fastpath (udp+tcp) 10 calls  batched udp sends 6 syscalls / 12 replies (0.500 per reply)
leases: 8 grants (6 piggybacked, 2 renewals)  2 trylater  2 evictions  2 vacates  0 expiries  2 active
where the microsecond goes (per-stage, µs, cumulative)
stage    count  p50   p95   p99  max 
-------  -----  ----  ----  ---  ----
read     4      -     -     -    2.1 
decode   4      -     -     -    0.5 
service  4      -     -     -    12.5
send     4      -     -     -    7.2 
total    404    19.0  29.0  -    29.0
udp ingest (2 readers, SO_REUSEPORT)
reader    reads  fast  inline  wakeups
--------  -----  ----  ------  -------
reader.0  8      6     2       4      
reader.1  6      4     0       6      
udp kernel receive drops 10
nfsd worker pool (2 workers, 1 busy now)
nfsd    calls  busy ms
------  -----  -------
nfsd.0  2      3.0    
nfsd.1  0      0.0    
dupcache: 0 in-flight drops
lock contention
site         waits  wait ms
-----------  -----  -------
server.dupc  4      0.700  

`

const wantDelta = `nfs server per-procedure (interval delta)
proc         calls  svc mean ms  p50    p95    p99    max  
-----------  -----  -----------  -----  -----  -----  -----
getattr      1002   0.005        0.005  0.009  0.009  0.009
lookup       3      0.023        -      -      -      0.041
readdirlook  1      0.250        -      -      -      0.266
calls 1006  errors 1  dup hits 1  bytes in 800  bytes out 1200
mbuf: 84 bytes copied  8192 bytes loaned  pool 10 hits / 2 misses
fastpath (udp+tcp) 5 calls  batched udp sends 3 syscalls / 6 replies (0.500 per reply)
leases: 4 grants (3 piggybacked, 1 renewals)  1 trylater  1 evictions  1 vacates  0 expiries  2 active
where the microsecond goes (per-stage, µs, interval delta)
stage    count  p50   p95   p99  max 
-------  -----  ----  ----  ---  ----
read     2      -     -     -    2.1 
decode   2      -     -     -    0.5 
service  2      -     -     -    12.5
send     2      -     -     -    7.2 
total    202    19.0  29.0  -    29.0
udp ingest (2 readers, SO_REUSEPORT)
reader    reads  fast  inline  wakeups
--------  -----  ----  ------  -------
reader.0  4      3     1       2      
reader.1  3      2     0       3      
udp kernel receive drops 5
nfsd worker pool (2 workers, 1 busy now)
nfsd    calls  busy ms
------  -----  -------
nfsd.0  1      1.5    
nfsd.1  0      0.0    
dupcache: 0 in-flight drops
lock contention
site         waits  wait ms
-----------  -----  -------
server.dupc  2      0.350  

`

// TestRenderStatsGolden pins the one human rendering of a stats snapshot,
// byte for byte, cumulative and as an nfsstat -z interval delta. A slow
// LOOKUP before the interval shows that the delta's max column is the
// interval's (0.041 against the cumulative 1.562), and a percentile with
// fewer than stats.MinTail samples above its rank prints "-" (the total
// stage's p99, every LOOKUP percentile).
func TestRenderStatsGolden(t *testing.T) {
	r := metrics.NewRegistry()
	r.Histogram("nfs.service_ms.lookup").Observe(1.5)
	statsFixture(r)
	prev := r.Snapshot()
	statsFixture(r)
	cur := r.Snapshot()

	if got := render(cur, false); got != wantCumulative {
		t.Errorf("cumulative rendering:\n%s\nwant:\n%s", got, wantCumulative)
	}
	if got := render(cur.Delta(prev), true); got != wantDelta {
		t.Errorf("delta rendering:\n%s\nwant:\n%s", got, wantDelta)
	}
}

// TestIngestGaugesSurviveDelta: the reader count and socket strategy are
// configuration, not traffic, so an interval delta must still report a
// 4-reader SO_REUSEPORT frontend as such (as counters they subtracted to
// 0 and nfsstat -z said "shared socket" from its second interval on).
func TestIngestGaugesSurviveDelta(t *testing.T) {
	if !reusePortSupported() {
		t.Skip("SO_REUSEPORT sharding unsupported on this platform")
	}
	opts := server.Reno()
	opts.NFSDs = 4
	opts.Readers = 4
	srv := server.New(memfs.New(1, nil, nil), opts)
	s, err := Serve(srv, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !s.ReusePort() {
		t.Fatal("reuseport supported but server fell back to a shared socket")
	}
	prev := srv.Metrics.Snapshot()
	d := srv.Metrics.Snapshot().Delta(prev)
	if d.Gauges["rpc.readers"] != 4 || d.Gauges["rpc.reader.reuseport"] != 1 {
		t.Fatalf("delta lost the ingest configuration: readers=%v reuseport=%v",
			d.Gauges["rpc.readers"], d.Gauges["rpc.reader.reuseport"])
	}
	if out := render(d, true); !strings.Contains(out, "udp ingest (4 readers, SO_REUSEPORT)") {
		t.Errorf("delta rendering mislabels the frontend:\n%s", out)
	}
}
