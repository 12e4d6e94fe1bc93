package metrics

import (
	"encoding/json"
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	s := h.Snapshot()
	if s.Count != 0 || s.Mean() != 0 || s.Quantile(50) != 0 || s.Quantile(100) != 0 {
		t.Fatalf("empty histogram not all-zero: %+v", s)
	}
	if s.Min != 0 || s.Max != 0 {
		t.Fatalf("empty histogram min/max = %v/%v", s.Min, s.Max)
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := NewHistogram()
	h.Observe(3.7)
	s := h.Snapshot()
	for _, p := range []float64{1, 50, 99, 100} {
		// With one sample every percentile must clamp to the observation.
		if got := s.Quantile(p); got != 3.7 {
			t.Fatalf("p%v = %v, want 3.7", p, got)
		}
	}
	if s.Mean() != 3.7 || s.Min != 3.7 || s.Max != 3.7 {
		t.Fatalf("single-sample stats wrong: %+v", s)
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	h := NewHistogram()
	// 100 samples spread across buckets: 1ms..100ms.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot()
	if got := s.Quantile(100); got != 100 {
		t.Fatalf("p100 = %v, want max 100", got)
	}
	p50 := s.Quantile(50)
	// Log buckets are coarse (factor 2); the interpolated median must land
	// within the surrounding bucket [32, 64].
	if p50 < 32 || p50 > 64 {
		t.Fatalf("p50 = %v, want within (32, 64]", p50)
	}
	p99 := s.Quantile(99)
	if p99 < 64 || p99 > 100 {
		t.Fatalf("p99 = %v, want within (64, 100]", p99)
	}
	if p50 >= p99 {
		t.Fatalf("p50 %v >= p99 %v", p50, p99)
	}
	if math.Abs(s.Mean()-50.5) > 1e-9 {
		t.Fatalf("mean = %v, want 50.5", s.Mean())
	}
}

func TestHistogramExtremes(t *testing.T) {
	h := NewHistogram()
	h.Observe(0)    // below the first bound
	h.Observe(1e12) // beyond the last bound: catch-all bucket
	s := h.Snapshot()
	if s.Count != 2 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Buckets[0] != 1 || s.Buckets[len(s.Buckets)-1] != 1 {
		t.Fatalf("extreme values not in edge buckets: %v", s.Buckets)
	}
	if got := s.Quantile(100); got != 1e12 {
		t.Fatalf("p100 = %v, want clamped max 1e12", got)
	}
}

// bucketOfLog2 is the formula bucketOf replaced (a Log2 and a Ceil per
// observation), kept as the reference the exponent-based one must match.
func bucketOfLog2(v float64) int {
	if v <= histFirstBound {
		return 0
	}
	i := int(math.Ceil(math.Log2(v / histFirstBound)))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// TestBucketOfMatchesLog2 holds the Frexp bucket index to the Log2 formula
// on every exact bucket boundary, one ulp below each, and a million seeded
// values spread log-uniformly across (and past both ends of) the bucket
// range. One ulp above a boundary is pinned to the definition instead
// (bucket i is (bound[i-1], bound[i]]): there the Log2 sum rounds back onto
// the boundary and files the value one bucket low.
func TestBucketOfMatchesLog2(t *testing.T) {
	check := func(v float64) {
		t.Helper()
		if got, want := bucketOf(v), bucketOfLog2(v); got != want {
			t.Fatalf("bucketOf(%v) = %d, Log2 formula gives %d", v, got, want)
		}
	}
	for i, b := range histBounds() {
		if got := bucketOf(b); got != i {
			t.Fatalf("bound %d (%v) lands in bucket %d", i, b, got)
		}
		check(b)
		check(math.Nextafter(b, 0))
		above := i + 1
		if above >= histBuckets {
			above = histBuckets - 1
		}
		if got := bucketOf(math.Nextafter(b, math.Inf(1))); got != above {
			t.Fatalf("one ulp above bound %d lands in bucket %d, want %d", i, got, above)
		}
	}
	check(0)
	check(-1)
	check(1e300)
	rng := rand.New(rand.NewSource(1991))
	for i := 0; i < 1_000_000; i++ {
		// 2^-12 .. 2^28 ms: 1/4 µs up to ~3 days, past the catch-all.
		check(math.Exp2(-12 + 40*rng.Float64()))
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
}

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
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 8000 {
		t.Fatalf("count = %d, want 8000", s.Count)
	}
	var inBuckets int64
	for _, c := range s.Buckets {
		inBuckets += c
	}
	if inBuckets != 8000 {
		t.Fatalf("bucket sum = %d, want 8000", inBuckets)
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
	if got := back.Histograms["nfs.service_ms.lookup"].Quantile(100); got != 8 {
		t.Fatalf("round-tripped p100 = %v, want 8", got)
	}
}
