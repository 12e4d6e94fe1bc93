package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank p-quantile (0 < p < 1) of an ascending
// sample. It refuses — ok false — unless at least 10/(1-p) samples exist, so
// that ten samples lie beyond the reported value: a percentile drawn from
// fewer is a maximum in disguise.
func percentile(sorted []uint32, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 || float64(n) < 10/(1-p)-1e-9 {
		return 0, false
	}
	rank := int(math.Ceil(p*float64(n))) - 1
	return float64(sorted[rank]), true
}

// quartiles returns the first quartile, median and third quartile by the
// method of Python's statistics.quantiles(v, n=4) — the one the driver uses —
// so spreads computed here are the spreads it will see. Fewer than two values
// have no spread: all three are the value itself (0 for none).
func quartiles(values []float64) (q1, med, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return v[0], v[0], v[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // after the clamp, as Python does: the ends extrapolate
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

// spread is the interquartile range as a share of the median.
func spread(values []float64) float64 {
	q1, m, q3 := quartiles(values)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// bestDecile is the value a tenth of the slices did better than: the 90th
// percentile when higher is better, the 10th when lower is. Interference from
// the host only ever slows a slice down, so the good tail of a window is the
// part that says most about the program and least about the neighbours; the
// decile, not the extreme, so that one lucky slice cannot set the result.
func bestDecile(values []float64, higher bool) float64 {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	if len(v) == 0 {
		return 0
	}
	if higher {
		return v[int(math.Ceil(0.9*float64(len(v))))-1]
	}
	return v[int(math.Floor(0.1*float64(len(v))))]
}
