// Package stats is the measurement toolkit of everything that runs on a
// sim.Env: Samples, the exact recorder behind every latency the paper's
// tables, nfsstone and the fleet print; Defined and Fixed, the "-" rule every
// printed percentile follows; and a plain-text table writer.
// metrics.Histogram serves only what concurrent goroutines record, the
// real-socket server's registry; it ranks through Rank and Defined too, and
// nfsnet.RenderStats prints it under the same rule.
package stats

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"
)

// MinTail is how many samples must lie above a quantile's rank for the
// quantile to be defined; fewer are a handful of calls, not a tail.
const MinTail = 10

// Samples records durations in milliseconds, in arrival order, and answers
// exact statistics over them. The zero value is ready to use.
type Samples struct {
	Count int // durations recorded
	ms    []float64
}

// Add records one duration.
func (s *Samples) Add(d time.Duration) {
	s.ms = append(s.ms, float64(d)/float64(time.Millisecond))
	s.Count++
}

// AddAll records every value of o, after s's own.
func (s *Samples) AddAll(o *Samples) {
	s.ms = append(s.ms, o.ms...)
	s.Count += o.Count
}

// Mean returns the arithmetic mean, summed in arrival order (0 when empty).
func (s *Samples) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.ms {
		sum += v
	}
	return sum / float64(s.Count)
}

// Max returns the largest value (0 when empty).
func (s *Samples) Max() float64 {
	if s.Count == 0 {
		return 0
	}
	return slices.Max(s.ms)
}

// Quantile returns the exact nearest-rank p-th percentile (0 < p <= 100):
// the smallest value with at least p % of the samples at or below it. ok
// reports whether at least MinTail samples lie above its rank: p99 needs
// n >= 1,000, and p100 (the maximum) is never defined.
func (s *Samples) Quantile(p float64) (v float64, ok bool) {
	if s.Count == 0 {
		return 0, false
	}
	sorted := slices.Clone(s.ms)
	slices.Sort(sorted)
	return sorted[Rank(p, s.Count)-1], Defined(p, s.Count)
}

// Defined reports whether the p-th percentile of n samples is defined: at
// least MinTail of them lie above its nearest rank.
func Defined(p float64, n int) bool { return n > 0 && n-Rank(p, n) >= MinTail }

// Rank is the nearest rank (1-based) of the p-th percentile among n > 0
// samples, the one rank rule of both recorders: Samples and the registry's
// metrics.Histogram.
func Rank(p float64, n int) int { return min(max(int(math.Ceil(p*float64(n)/100)), 1), n) }

// Fixed formats v with prec decimals, or "-" for a missing or undefined v.
func Fixed(v float64, prec int, ok bool) string {
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.*f", prec, v)
}

// Table renders rows of labelled columns as aligned text, the harness's
// output format for the paper's tables and graph data.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.1f", v)
		case time.Duration:
			row[i] = fmt.Sprintf("%.1f", float64(v)/float64(time.Millisecond))
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}
