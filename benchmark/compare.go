package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchSpec is the part of BENCHMARK.json the program reads. The file is the
// contract the driver checks, and the one place the bounds live.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// metricsByName indexes both metric lists; per-layer metrics have bound 0.
func (s *benchSpec) metricsByName() map[string]specMetric {
	m := map[string]specMetric{}
	for _, d := range s.EndToEnd {
		m[d.Name] = d
	}
	for _, d := range s.PerLayer {
		m[d.Name] = d
	}
	return m
}

func readRunSet(path string) (*runSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	set := &runSet{}
	if err := json.Unmarshal(b, set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// cell is one workload x metric comparison of two sets of runs.
type cell struct {
	workload, metric, unit string
	a, b                   [3]float64 // first quartile, median, third quartile
	na, nb                 int
	worse                  float64 // B's median against A's as a share of A's; positive is worse
	iqr                    float64 // the wider side's interquartile range, same share
	bound                  float64
	verdict                string
}

// verdict applies the rule of the choosing-metrics guide: a delta is real
// only when it exceeds both the cell's bound and the run-to-run spread. Inside
// both, the cell is unchanged; inside a spread that is itself wider than the
// bound, nothing can be said and the cell is unresolved.
func verdict(worse, iqr, bound float64) string {
	switch {
	case math.Abs(worse) > bound && math.Abs(worse) > iqr:
		if worse > 0 {
			return "worse"
		}
		return "better"
	case iqr > bound:
		return "unresolved"
	default:
		return "unchanged"
	}
}

func values(set *runSet, workload, metric string) (v []float64, unit string) {
	for _, r := range set.Runs {
		if m, ok := r.Result.Metrics[metric]; ok && r.Workload == workload {
			v = append(v, m.Value)
			unit = m.Unit
		}
	}
	return v, unit
}

// compareSets builds the cell table for every workload and metric of a that b
// also has, in a's order.
func compareSets(a, b *runSet, defs map[string]specMetric) []cell {
	var cells []cell
	seen := map[string]bool{}
	for _, r := range a.Runs {
		if seen[r.Workload] {
			continue
		}
		seen[r.Workload] = true
		for _, name := range sortedKeys(r.Result.Metrics) {
			va, unit := values(a, r.Workload, name)
			vb, _ := values(b, r.Workload, name)
			if len(vb) == 0 {
				continue
			}
			c := cell{workload: r.Workload, metric: name, unit: unit, na: len(va), nb: len(vb), bound: defs[name].Bound}
			c.a[0], c.a[1], c.a[2] = quartiles(va)
			c.b[0], c.b[1], c.b[2] = quartiles(vb)
			if base := math.Abs(c.a[1]); base > 0 {
				c.worse = (c.b[1] - c.a[1]) / base
				if defs[name].Better == "higher" {
					c.worse = -c.worse
				}
				c.iqr = math.Max(c.a[2]-c.a[0], c.b[2]-c.b[0]) / base
			}
			c.verdict = verdict(c.worse, c.iqr, c.bound)
			cells = append(cells, c)
		}
	}
	return cells
}

func printComparison(w io.Writer, a, b *runSet, cells []cell) {
	if !a.Comparable || !b.Comparable || a.Seconds != b.Seconds || a.Trace != b.Trace {
		fmt.Fprintf(w, "NOT COMPARABLE: windows %d s and %d s, trace %v and %v; verdicts below are for smoke only\n",
			a.Seconds, b.Seconds, a.Trace, b.Trace)
	}
	fmt.Fprintf(w, "A: commit %s, load %s    B: commit %s, load %s\n", a.Host["commit"], a.Host["loadavg"], b.Host["commit"], b.Host["loadavg"])
	fmt.Fprintf(w, "%-12s %-30s %-6s %34s %34s %8s %7s %6s  %s\n", "workload", "metric", "unit",
		"A q1/median/q3 (n)", "B q1/median/q3 (n)", "B worse", "IQR", "bound", "verdict")
	for _, c := range cells {
		fmt.Fprintf(w, "%-12s %-30s %-6s %10.4g/%10.4g/%10.4g (%d) %10.4g/%10.4g/%10.4g (%d) %+7.1f%% %6.1f%% %5.0f%%  %s\n",
			c.workload, c.metric, c.unit, c.a[0], c.a[1], c.a[2], c.na, c.b[0], c.b[1], c.b[2], c.nb,
			100*c.worse, 100*c.iqr, 100*c.bound, c.verdict)
	}
}
