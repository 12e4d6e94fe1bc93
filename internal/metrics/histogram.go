package metrics

import (
	"math"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: fixed logarithmic boundaries, factor 2 apart,
// covering 1 µs to ~4600 s when values are recorded in milliseconds.
// Fixed boundaries keep Observe lock-free (an index computation plus one
// atomic add) and make snapshots of concurrent histograms subtractable
// bucket-by-bucket — the property the `nfsstat -z` delta workflow needs.
const (
	// histFirstBound is the upper bound of bucket 0, in recorded units
	// (milliseconds by convention): 0.001 ms = 1 µs.
	histFirstBound = 0.001
	// histBuckets is the number of log buckets; the last is a catch-all.
	histBuckets = 33
)

// histBounds returns the shared upper-bound table (bound[i] = 2^i µs).
func histBounds() []float64 {
	b := make([]float64, histBuckets)
	v := histFirstBound
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}

// Histogram accumulates a latency distribution in fixed log buckets with
// atomic updates. Percentiles come from linear interpolation inside the
// bucket containing the requested rank — following nanoPU's point that
// RPC performance lives in the tail, not the mean.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	// sumMilli holds the running sum in 1/1000ths of the recorded unit.
	// A fixed-point integer makes the hot-path update a single wait-free
	// atomic add; the old float64-bits CAS loop was a measurable
	// serialization point once many nfsds observe one histogram (every
	// retry re-reads a contended cache line). At 1e-3 resolution a
	// millisecond-unit histogram sums exactly to the microsecond and
	// overflows after ~292k years of accumulated latency.
	sumMilli atomic.Int64
	minBits  atomic.Uint64
	maxBits  atomic.Uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// bucketOf maps a value to its bucket index: ceil(log2(v/histFirstBound)),
// read off the float's exponent. Frexp gives v/histFirstBound = frac·2^exp
// with frac in [0.5, 1), so the ceiling is exp — except exactly on a bucket
// boundary (frac == 0.5, the value is 2^(exp-1)), where it is exp-1.
func bucketOf(v float64) int {
	if v <= histFirstBound {
		return 0
	}
	frac, i := math.Frexp(v / histFirstBound)
	if frac == 0.5 {
		i--
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// Observe folds in one value (milliseconds by convention).
func (h *Histogram) Observe(v float64) {
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sumMilli.Add(int64(v*1000 + 0.5))
	casMin(&h.minBits, v)
	casMax(&h.maxBits, v)
}

// ObserveDuration folds in a duration as milliseconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(float64(d) / float64(time.Millisecond))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     float64(h.sumMilli.Load()) / 1000,
		Min:     math.Float64frombits(h.minBits.Load()),
		Max:     math.Float64frombits(h.maxBits.Load()),
		Buckets: make([]int64, histBuckets),
	}
	for i := range s.Buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	if s.Count == 0 {
		s.Min, s.Max = 0, 0
	}
	return s
}

// HistogramSnapshot is an immutable copy of a histogram, the unit the
// encoders ship and the delta workflow subtracts.
type HistogramSnapshot struct {
	Count   int64   `json:"count"`
	Sum     float64 `json:"sum"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Buckets []int64 `json:"buckets"`
}

// Mean returns the arithmetic mean (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile returns the p-th percentile (0 < p <= 100) by linear
// interpolation within the bucket holding the rank, clamped to the
// observed min/max so small samples do not report bucket-boundary
// artifacts.
func (s HistogramSnapshot) Quantile(p float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := p / 100 * float64(s.Count)
	if rank < 1 {
		rank = 1
	}
	bounds := histBounds()
	var cum int64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			hi := bounds[i]
			// The catch-all bucket has no real upper bound; the observed
			// maximum is the honest one.
			if i == len(s.Buckets)-1 && s.Max > hi {
				hi = s.Max
			}
			// Position of the rank within this bucket, 0..1.
			frac := (rank - float64(cum)) / float64(c)
			v := lo + frac*(hi-lo)
			if v < s.Min {
				v = s.Min
			}
			if v > s.Max {
				v = s.Max
			}
			return v
		}
		cum += c
	}
	return s.Max
}

// Sub returns s minus prev bucket-by-bucket. Min and max keep the current
// cumulative values (an interval min/max would need per-interval state the
// atomic histogram deliberately does not carry).
func (s HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	if prev.Count == 0 {
		return s
	}
	d := HistogramSnapshot{
		Count:   s.Count - prev.Count,
		Sum:     s.Sum - prev.Sum,
		Min:     s.Min,
		Max:     s.Max,
		Buckets: make([]int64, len(s.Buckets)),
	}
	for i := range s.Buckets {
		d.Buckets[i] = s.Buckets[i]
		if i < len(prev.Buckets) {
			d.Buckets[i] -= prev.Buckets[i]
		}
	}
	return d
}

func casMin(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func casMax(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}
