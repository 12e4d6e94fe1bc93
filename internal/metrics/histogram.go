package metrics

import (
	"math"
	"slices"
	"sync/atomic"
	"time"

	"renonfs/internal/stats"
)

// Histogram bucket layout: log-linear, histSub equal-width sub-buckets per
// power of two, from 2^-10 (~1e-3) to 2^23 (~2^33 × 1e-3) recorded units.
// A bucket's index is the float's biased exponent and its top
// histSubBits mantissa bits, read as one integer: a shift, a subtract and
// a clamp. A sub-bucket is 1/histSub of its octave's lower bound wide, so
// at most 1/histSub of any value in it, and its midpoint is within
// 1/(2·histSub) = 6.25 % of each — the error bound of every quantile a
// snapshot reports. Fixed
// boundaries keep Observe lock-free and make snapshots subtractable
// bucket by bucket, which nfsstat -z's interval view needs. Bucket 0 also
// takes every value below the range (zero and negatives), and the last
// bucket every value above it.
const (
	histSubBits = 3
	histSub     = 1 << histSubBits
	histShift   = 52 - histSubBits
	// histBase is the index, in exponent-and-mantissa units, of bucket 0:
	// the sub-bucket just below 2^-10.
	histBase    = int64(1023-10)<<histSubBits - 1
	histBuckets = 1 + 33*histSub // 33 octaves and the bucket below them
)

// Histogram accumulates a latency distribution in fixed log-linear buckets
// with atomic updates — following nanoPU's point that RPC performance
// lives in the tail, not the mean.
type Histogram struct {
	// sumMilli holds the running sum in 1/1000ths of the recorded unit: a
	// fixed-point integer makes the update one wait-free atomic add (a
	// float64-bits CAS loop serialized many nfsds on one cache line). At
	// 1e-3 resolution a millisecond-unit histogram sums exactly to the
	// microsecond and overflows after ~292k years of accumulated latency.
	// It leads the struct: placed after the buckets, two writers recording
	// all stages of a span (BenchmarkStageStatsRecord) ran ~25 % slower.
	sumMilli atomic.Int64
	buckets  [histBuckets]atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketOf maps a value to its bucket index.
func bucketOf(v float64) int {
	i := int64(math.Float64bits(v))>>histShift - histBase
	return int(min(max(i, 0), histBuckets-1))
}

// bucketMid is the midpoint of bucket i's value range: its lower bound
// with the mantissa bit below the sub-bucket bits set.
func bucketMid(i int) float64 {
	return math.Float64frombits(uint64(int64(i)+histBase)<<histShift | 1<<(histShift-1))
}

// Observe folds in one value (milliseconds by convention).
func (h *Histogram) Observe(v float64) {
	h.buckets[bucketOf(v)].Add(1)
	h.sumMilli.Add(int64(v*1000 + 0.5))
}

// ObserveDuration folds in a duration as milliseconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(float64(d) / float64(time.Millisecond))
}

// Snapshot copies the histogram state up to its highest non-empty bucket:
// the zero buckets above it are left out, so a latency histogram ships a
// few dozen counts, not all 265. Its count is the sum of the copied
// buckets, so a snapshot taken under load agrees with itself.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var b [histBuckets]int64
	s := HistogramSnapshot{Sum: float64(h.sumMilli.Load()) / 1000}
	top := 0
	for i := range b {
		if b[i] = h.buckets[i].Load(); b[i] != 0 {
			s.Count += b[i]
			top = i + 1
		}
	}
	s.Buckets = slices.Clone(b[:top])
	return s
}

// HistogramSnapshot is an immutable copy of a histogram, the unit the
// encoders ship and the delta workflow subtracts.
type HistogramSnapshot struct {
	Count   int64   `json:"count"`
	Sum     float64 `json:"sum"`
	Buckets []int64 `json:"buckets"`
}

// Mean returns the arithmetic mean (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile returns the p-th percentile (0 < p <= 100) under stats.Samples'
// nearest-rank rule: the midpoint of the bucket that holds the rank, within
// 6.25 % of the exact value. ok is stats.Defined for the snapshot's count.
func (s HistogramSnapshot) Quantile(p float64) (v float64, ok bool) {
	if s.Count == 0 {
		return 0, false
	}
	r := int64(stats.Rank(p, int(s.Count)))
	var cum int64
	for i, c := range s.Buckets {
		if cum += c; cum >= r {
			return bucketMid(i), stats.Defined(p, int(s.Count))
		}
	}
	return 0, false
}

// Max returns the midpoint of the highest non-empty bucket (0 when
// empty). In a Sub view it is the interval's maximum.
func (s HistogramSnapshot) Max() float64 {
	v, _ := s.Quantile(100)
	return v
}

// Sub returns s minus prev, bucket by bucket, over the longer of the two.
func (s HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	d := HistogramSnapshot{
		Count:   s.Count - prev.Count,
		Sum:     s.Sum - prev.Sum,
		Buckets: make([]int64, max(len(s.Buckets), len(prev.Buckets))),
	}
	copy(d.Buckets, s.Buckets)
	for i, c := range prev.Buckets {
		d.Buckets[i] -= c
	}
	return d
}
