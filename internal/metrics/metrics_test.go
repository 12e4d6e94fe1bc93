package metrics

import (
	"encoding/json"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"renonfs/internal/stats"
)

// within reports whether v is within the histogram's error bound, 1/16
// of exact (a hair of slack for the ms-to-µs rescale of the reference).
func within(v, exact float64) bool {
	return math.Abs(v-exact) <= exact/16*(1+1e-9)
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	s := h.Snapshot()
	if s.Count != 0 || s.Mean() != 0 || s.Max() != 0 {
		t.Fatalf("empty histogram not all-zero: count %d mean %v max %v", s.Count, s.Mean(), s.Max())
	}
	for _, p := range []float64{50, 100} {
		if v, ok := s.Quantile(p); v != 0 || ok {
			t.Fatalf("empty p%v = %v (defined %v), want 0, undefined", p, v, ok)
		}
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := NewHistogram()
	h.Observe(3.7)
	s := h.Snapshot()
	for _, p := range []float64{1, 50, 99, 100} {
		// One sample: every percentile is its bucket, and none is defined.
		if v, ok := s.Quantile(p); !within(v, 3.7) || ok {
			t.Fatalf("p%v = %v (defined %v), want within 1/16 of 3.7, undefined", p, v, ok)
		}
	}
	if s.Mean() != 3.7 || s.Count != 1 || !within(s.Max(), 3.7) {
		t.Fatalf("single-sample stats wrong: count %d mean %v max %v", s.Count, s.Mean(), s.Max())
	}
}

// TestHistogramQuantileInterpolation: 1..100 ms, each once. The percentiles
// land within 1/16 of the nearest-rank values (no interpolation), p99 has
// one sample above its rank and is undefined, and the mean is exact.
func TestHistogramQuantileInterpolation(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot()
	for _, c := range []struct {
		p, exact float64
		ok       bool
	}{{50, 50, true}, {90, 90, true}, {99, 99, false}, {100, 100, false}} {
		if v, ok := s.Quantile(c.p); !within(v, c.exact) || ok != c.ok {
			t.Errorf("p%v = %v (defined %v), want within 1/16 of %v (defined %v)", c.p, v, ok, c.exact, c.ok)
		}
	}
	if !within(s.Max(), 100) {
		t.Errorf("max = %v, want within 1/16 of 100", s.Max())
	}
	if math.Abs(s.Mean()-50.5) > 1e-9 {
		t.Fatalf("mean = %v, want 50.5", s.Mean())
	}
}

func TestHistogramExtremes(t *testing.T) {
	h := NewHistogram()
	h.Observe(0)    // below the range
	h.Observe(-1)   // nonsense, still counted, in the bottom bucket
	h.Observe(1e12) // above the range: the top bucket
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Buckets[0] != 2 || s.Buckets[len(s.Buckets)-1] != 1 {
		t.Fatalf("extreme values not in edge buckets: %v", s.Buckets)
	}
	if top := bucketMid(histBuckets - 1); s.Max() != top || top < 0x1p22 || top > 0x1p23 {
		t.Fatalf("max = %v, want the top bucket's midpoint %v in [2^22, 2^23]", s.Max(), top)
	}
	if v, _ := s.Quantile(1); v != bucketMid(0) || v > 0x1p-10 {
		t.Fatalf("p1 = %v, want the bottom bucket's midpoint %v below 2^-10", v, bucketMid(0))
	}
}

// bucketOfFrexp is the bucket index by definition: v = frac·2^exp with frac
// in [0.5, 1), octave exp-1 counted from 2^-10, and the sub-bucket the
// eighth of the octave that frac falls in — bucket 0 below the range, the
// last bucket above it.
func bucketOfFrexp(v float64) int {
	if v < 0x1p-10 {
		return 0
	}
	frac, exp := math.Frexp(v)
	i := 1 + (exp-1+10)*histSub + int((2*frac-1)*histSub)
	return min(i, histBuckets-1)
}

// TestBucketOfMatchesLog2 holds the bit-shift bucket index to its
// definition at every bucket edge (the lower bound, one ulp below it and
// one above), and on a million seeded values spread log-uniformly across,
// and past both ends of, the range; and holds every bucket's midpoint
// within 1/16 of each value in the bucket.
func TestBucketOfMatchesLog2(t *testing.T) {
	check := func(v float64) {
		t.Helper()
		if got, want := bucketOf(v), bucketOfFrexp(v); got != want {
			t.Fatalf("bucketOf(%v) = %d, definition gives %d", v, got, want)
		}
	}
	for i := 1; i < histBuckets; i++ {
		lo := 0x1p-10 * math.Exp2(float64((i-1)/histSub)) * (1 + float64((i-1)%histSub)/histSub)
		hi := 0x1p-10 * math.Exp2(float64(i/histSub)) * (1 + float64(i%histSub)/histSub)
		if got := bucketOf(lo); got != i {
			t.Fatalf("lower bound %v of bucket %d lands in bucket %d", lo, i, got)
		}
		if got := bucketOf(math.Nextafter(lo, 0)); got != i-1 {
			t.Fatalf("one ulp below bucket %d's lower bound lands in bucket %d", i, got)
		}
		check(math.Nextafter(lo, math.Inf(1)))
		if mid := bucketMid(i); bucketOf(mid) != i || !within(mid, lo) || !within(mid, math.Nextafter(hi, 0)) {
			t.Fatalf("bucket %d [%v, %v): midpoint %v outside it or beyond 1/16 of an edge", i, lo, hi, mid)
		}
	}
	check(0)
	check(-1)
	check(1e300)
	rng := rand.New(rand.NewSource(1991))
	for i := 0; i < 1_000_000; i++ {
		// 2^-12 .. 2^28: past both ends of the 2^-10 .. 2^23 range.
		check(math.Exp2(-12 + 40*rng.Float64()))
	}
}

// TestHistogramQuantileBound: over seeded exponential, lognormal, uniform,
// bimodal and all-ties draws (µs, the stage histograms' unit) at several
// sizes, every percentile is defined exactly when stats.Samples' is, and
// every defined one is within 1/16 of Samples' exact nearest-rank value on
// the same draws — cumulatively and over a Snapshot.Delta interval that
// follows a prefix of slower calls.
func TestHistogramQuantileBound(t *testing.T) {
	dists := []struct {
		name string
		draw func(*rand.Rand) float64
	}{
		{"exponential", func(r *rand.Rand) float64 { return 50 * r.ExpFloat64() }},
		{"lognormal", func(r *rand.Rand) float64 { return math.Exp(math.Log(100) + 0.5*r.NormFloat64()) }},
		{"uniform", func(r *rand.Rand) float64 { return 20 + 980*r.Float64() }},
		{"bimodal", func(r *rand.Rand) float64 {
			if r.Float64() < 0.95 {
				return 20 + 5*r.Float64()
			}
			return 900 + 200*r.Float64()
		}},
		{"ties", func(*rand.Rand) float64 { return 37 }},
	}
	for _, d := range dists {
		for _, n := range []int{1, 10, 999, 1000, 20000} {
			rng := rand.New(rand.NewSource(int64(n)))
			reg := NewRegistry()
			h := reg.Histogram("rpc.stage.total.us")
			var all, interval stats.Samples
			observe := func(us float64, into ...*stats.Samples) {
				// Whole nanoseconds, so the ms reference is the same value.
				ns := time.Duration(math.Round(1000 * us))
				h.Observe(float64(ns) / 1000)
				for _, s := range into {
					s.Add(ns)
				}
			}
			for range 500 {
				observe(5000+1000*rng.Float64(), &all)
			}
			prev := reg.Snapshot()
			for range n {
				observe(d.draw(rng), &all, &interval)
			}
			cur := reg.Snapshot()
			for _, view := range []struct {
				name string
				snap HistogramSnapshot
				ref  *stats.Samples
			}{
				{"cumulative", cur.Histograms["rpc.stage.total.us"], &all},
				{"delta", cur.Delta(prev).Histograms["rpc.stage.total.us"], &interval},
			} {
				if view.snap.Count != int64(view.ref.Count) {
					t.Fatalf("%s n=%d %s: count %d, want %d", d.name, n, view.name, view.snap.Count, view.ref.Count)
				}
				for _, p := range []float64{1, 50, 90, 99, 99.9, 100} {
					exact, _ := view.ref.Quantile(p)
					exact *= 1000
					v, ok := view.snap.Quantile(p)
					if ok != stats.Defined(p, view.ref.Count) {
						t.Errorf("%s n=%d %s p%v: defined %v, stats.Defined says %v", d.name, n, view.name, p, ok, !ok)
					}
					if ok && !within(v, exact) {
						t.Errorf("%s n=%d %s p%v = %v, exact %v (%+.1f %%)", d.name, n, view.name, p, v, exact, 100*(v-exact)/exact)
					}
				}
				if mx := view.snap.Max(); !within(mx, 1000*view.ref.Max()) {
					t.Errorf("%s n=%d %s: max %v, exact %v", d.name, n, view.name, mx, 1000*view.ref.Max())
				}
			}
		}
	}
}

func TestHistogramDelta(t *testing.T) {
	h := NewHistogram()
	h.Observe(5)
	h.Observe(10)
	first := h.Snapshot()
	h.Observe(20)
	h.Observe(40)
	d := h.Snapshot().Sub(first)
	if d.Count != 2 {
		t.Fatalf("delta count = %d, want 2", d.Count)
	}
	if math.Abs(d.Sum-60) > 1e-9 {
		t.Fatalf("delta sum = %v, want 60", d.Sum)
	}
	total := int64(0)
	for _, c := range d.Buckets {
		total += c
	}
	if total != 2 {
		t.Fatalf("delta buckets sum to %d, want 2", total)
	}
	if v, _ := d.Quantile(1); !within(v, 20) || !within(d.Max(), 40) {
		t.Fatalf("delta p1 %v, max %v, want within 1/16 of 20 and 40", v, d.Max())
	}
}

// TestHistogramSnapshotTrimmed: a snapshot stops at its highest non-empty
// bucket, and Sub walks the longer of its operands. A current snapshot
// shorter than prev (a histogram that restarted between the two) still
// subtracts prev's higher buckets, so the delta's buckets sum to its count.
func TestHistogramSnapshotTrimmed(t *testing.T) {
	h := NewHistogram()
	if s := h.Snapshot(); len(s.Buckets) != 0 {
		t.Fatalf("empty histogram ships %d buckets", len(s.Buckets))
	}
	h.Observe(3)
	cur := h.Snapshot()
	if len(cur.Buckets) != bucketOf(3)+1 {
		t.Fatalf("%d buckets shipped, want %d", len(cur.Buckets), bucketOf(3)+1)
	}
	old := NewHistogram()
	old.Observe(3)
	old.Observe(500)
	prev := old.Snapshot()
	sum := func(s HistogramSnapshot) (n int64) {
		for _, c := range s.Buckets {
			n += c
		}
		return n
	}
	for _, d := range []HistogramSnapshot{cur.Sub(prev), prev.Sub(cur)} {
		if len(d.Buckets) != len(prev.Buckets) || sum(d) != d.Count {
			t.Fatalf("delta of %d buckets sums to %d, count %d; want %d buckets", len(d.Buckets), sum(d), d.Count, len(prev.Buckets))
		}
	}
	if d := cur.Sub(prev); d.Buckets[bucketOf(500)] != -1 {
		t.Fatalf("prev's top bucket left out of the delta: %v", d.Buckets[bucketOf(500)])
	}
	if d := prev.Sub(cur); !within(d.Max(), 500) {
		t.Fatalf("delta max %v, want within 1/16 of 500", d.Max())
	}
}

// TestHistogramConcurrent: snapshots taken while eight writers observe agree
// with themselves (count == Σ buckets) and never go backwards, and the
// final count is every observation.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i%50) + 0.5)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	sumBuckets := func(s HistogramSnapshot) (n int64) {
		for _, c := range s.Buckets {
			n += c
		}
		return n
	}
	var last int64
	for loaded := false; !loaded; {
		select {
		case <-done:
			loaded = true
		default:
		}
		s := h.Snapshot()
		if s.Count != sumBuckets(s) || s.Count < last {
			t.Fatalf("mid-load snapshot: count %d, Σ buckets %d, previous count %d", s.Count, sumBuckets(s), last)
		}
		last = s.Count
	}
	if s := h.Snapshot(); s.Count != 8000 || sumBuckets(s) != 8000 {
		t.Fatalf("count = %d, Σ buckets %d, want 8000", s.Count, sumBuckets(s))
	}
}

func TestRegistrySnapshotDeltaAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("nfs.bytes_in").Add(7)
	r.Gauge("rpc.cwnd").Set(4.5)
	r.Histogram("nfs.service_ms.lookup").Observe(2)
	first := r.Snapshot()
	r.Counter("nfs.bytes_in").Add(3)
	r.Histogram("nfs.service_ms.lookup").Observe(8)
	second := r.Snapshot()

	d := second.Delta(first)
	if d.Counters["nfs.bytes_in"] != 3 {
		t.Fatalf("delta counter = %d, want 3", d.Counters["nfs.bytes_in"])
	}
	if d.Histograms["nfs.service_ms.lookup"].Count != 1 {
		t.Fatalf("delta hist count = %d, want 1", d.Histograms["nfs.service_ms.lookup"].Count)
	}
	if d.Gauges["rpc.cwnd"] != 4.5 {
		t.Fatalf("delta gauge = %v, want current value", d.Gauges["rpc.cwnd"])
	}

	// The JSON round trip is the nfsstat wire format.
	raw, err := json.Marshal(second)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["nfs.bytes_in"] != 10 {
		t.Fatalf("round-tripped counter = %d", back.Counters["nfs.bytes_in"])
	}
	if got := back.Histograms["nfs.service_ms.lookup"].Max(); got != second.Histograms["nfs.service_ms.lookup"].Max() || !within(got, 8) {
		t.Fatalf("round-tripped max = %v, want within 1/16 of 8", got)
	}
}
