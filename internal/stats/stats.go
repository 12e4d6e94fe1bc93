// Package stats provides the small measurement toolkit the experiments
// use: an exact streaming summary for the tables' mean/min/max cells and a
// plain-text table writer for the harness output. Percentiles come from
// metrics.Histogram, the repo's one percentile engine.
package stats

import (
	"fmt"
	"strings"
	"time"
)

// Summary accumulates a stream of values exactly: count, sum, min and max.
// The zero value is ready to use. (metrics.Histogram would round every
// observation to its 1 µs fixed-point sum; the tables' means stay exact.)
type Summary struct {
	Count int
	Sum   float64
	Min   float64
	Max   float64
}

// Add folds in one observation.
func (s *Summary) Add(v float64) {
	if s.Count == 0 || v < s.Min {
		s.Min = v
	}
	if s.Count == 0 || v > s.Max {
		s.Max = v
	}
	s.Count++
	s.Sum += v
}

// AddDuration folds in a duration in milliseconds.
func (s *Summary) AddDuration(d time.Duration) {
	s.Add(float64(d) / float64(time.Millisecond))
}

// Mean returns the arithmetic mean (0 when empty).
func (s *Summary) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
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
