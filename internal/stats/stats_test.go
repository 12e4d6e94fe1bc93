package stats

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// ms converts a value in milliseconds to the duration Add takes.
func ms(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

func TestSummaryBasics(t *testing.T) {
	var s Samples
	for _, v := range []float64{3, 1, 5, 2, 4} {
		s.Add(ms(v))
	}
	if p50, _ := s.Quantile(50); s.Count != 5 || s.Mean() != 3 || s.Max() != 5 || p50 != 3 {
		t.Fatalf("count %d mean %v max %v p50 %v", s.Count, s.Mean(), s.Max(), p50)
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Samples
	if v, ok := s.Quantile(50); s.Count != 0 || s.Mean() != 0 || s.Max() != 0 || v != 0 || ok {
		t.Fatalf("empty samples: count %d mean %v max %v quantile %v/%v", s.Count, s.Mean(), s.Max(), v, ok)
	}
}

func TestSamplesMeanSumsInArrivalOrder(t *testing.T) {
	// Next to 2^62 ns, one 400 ns sample is under half an ulp and vanishes,
	// but two added first are not: the mean must be the arrival-order sum,
	// and Quantile's sort must not reorder the samples.
	sum := func(ds ...time.Duration) (s float64) {
		for _, d := range ds {
			s += float64(d) / float64(time.Millisecond)
		}
		return s
	}
	arrival, sorted := sum(1<<62, 400, 400), sum(400, 400, 1<<62)
	if arrival == sorted {
		t.Fatal("the samples do not tell the two orders apart")
	}
	var s Samples
	for _, d := range []time.Duration{1 << 62, 400, 400} {
		s.Add(d)
	}
	s.Quantile(50)
	if s.Mean() != arrival/3 {
		t.Fatalf("mean %v, want the arrival-order %v (sorted order: %v)", s.Mean(), arrival/3, sorted/3)
	}
}

func TestSummaryZeroValue(t *testing.T) {
	// The zero value must not report its own zeros as observations: a
	// stream of positives keeps a positive p1, negatives a negative max.
	var pos, neg Samples
	for i := 1; i <= 100; i++ {
		pos.Add(ms(float64(i)))
		neg.Add(ms(-float64(i)))
	}
	if p1, _ := pos.Quantile(1); pos.Count != 100 || p1 != 1 || pos.Max() != 100 {
		t.Fatalf("positive stream: count %d p1 %v max %v", pos.Count, p1, pos.Max())
	}
	if p1, _ := neg.Quantile(1); p1 != -100 || neg.Max() != -1 {
		t.Fatalf("negative stream: p1 %v max %v", p1, neg.Max())
	}
}

func TestAddDuration(t *testing.T) {
	var s Samples
	s.Add(250 * time.Millisecond)
	if s.Mean() != 250 {
		t.Fatalf("mean = %v ms", s.Mean())
	}
}

func TestAddAllPools(t *testing.T) {
	var a, b Samples
	a.Add(250 * time.Millisecond)
	b.Add(750 * time.Millisecond)
	a.AddAll(&b)
	if a.Count != 2 || a.Mean() != 500 || a.Max() != 750 {
		t.Fatalf("pooled: count %d mean %v max %v", a.Count, a.Mean(), a.Max())
	}
}

// nearestRank is the brute-force reference: the smallest sample with at
// least p % of the samples at or below it, and how many lie above it.
func nearestRank(vals []float64, p float64) (v float64, above int) {
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	for i, x := range sorted {
		if float64(i+1)*100 >= p*float64(len(sorted)) {
			return x, len(sorted) - (i + 1)
		}
	}
	return sorted[len(sorted)-1], 0
}

func TestQuantileMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1991))
	dists := map[string]func() float64{
		"uniform": func() float64 { return rng.Float64() * 100 },
		// Graph 3's shape: exponential RTTs around 12 ms, and under 1 %
		// of calls retried after a 1 s timeout.
		"exponential with a retry tail": func() float64 {
			v := 8 + rng.ExpFloat64()*4
			if rng.Float64() < 0.008 {
				v += 1000
			}
			return v
		},
		"all ties": func() float64 { return 7.5 },
	}
	for name, draw := range dists {
		for _, n := range []int{1, 2, 10, 99, 100, 101, 999, 1000, 2795} {
			var s Samples
			vals := make([]float64, n)
			for i := range vals {
				d := ms(draw())
				vals[i] = float64(d) / float64(time.Millisecond)
				s.Add(d)
			}
			for _, p := range []float64{1, 50, 90, 95, 99, 100} {
				want, above := nearestRank(vals, p)
				got, ok := s.Quantile(p)
				if got != want || ok != (above >= MinTail) {
					t.Errorf("%s, n=%d: p%v = %v (defined %v), want %v (%d above)", name, n, p, got, ok, want, above)
				}
			}
			if v, ok := s.Quantile(100); v != s.Max() || ok {
				t.Errorf("%s, n=%d: p100 = %v (defined %v), max %v", name, n, v, ok, s.Max())
			}
		}
	}
}

func TestSummarySingleSample(t *testing.T) {
	var s Samples
	s.Add(ms(3.7))
	if s.Mean() != 3.7 || s.Max() != 3.7 {
		t.Fatalf("mean %v max %v", s.Mean(), s.Max())
	}
	for _, p := range []float64{1, 50, 99, 100} {
		if v, ok := s.Quantile(p); v != 3.7 || ok {
			t.Errorf("p%v of one sample = %v (defined %v)", p, v, ok)
		}
	}
}

// TestQuantileDefinedBoundary pins the rule the tables print "-" by: a p99
// needs MinTail samples above its rank, so n = 999 leaves it undefined and
// n = 1,000 defines it.
func TestQuantileDefinedBoundary(t *testing.T) {
	for _, c := range []struct {
		n  int
		ok bool
	}{{999, false}, {1000, true}} {
		var s Samples
		for i := 1; i <= c.n; i++ {
			s.Add(ms(float64(i)))
		}
		if v, ok := s.Quantile(99); v != 990 || ok != c.ok {
			t.Errorf("n=%d: p99 = %v (defined %v), want 990 (defined %v)", c.n, v, ok, c.ok)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table #1", "transport", "rate", "rtt")
	tb.AddRow("udp-fixed", 3.5, 150*time.Millisecond)
	tb.AddRow("tcp", 11.0, 42*time.Millisecond)
	out := tb.String()
	if !strings.Contains(out, "Table #1") || !strings.Contains(out, "udp-fixed") {
		t.Fatalf("output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "150.0") || !strings.Contains(out, "11.0") {
		t.Fatalf("formatting wrong:\n%s", out)
	}
}

// TestDefinedBoundaries pins where each percentile the fleet curve prints
// becomes defined: p50 at n = 20, p99 at 1,000 and p99.9 at 10,000.
func TestDefinedBoundaries(t *testing.T) {
	for _, c := range []struct {
		p  float64
		n  int
		ok bool
	}{
		{50, 0, false}, {50, 19, false}, {50, 20, true},
		{99, 999, false}, {99, 1000, true},
		{99.9, 9999, false}, {99.9, 10000, true},
	} {
		if got := Defined(c.p, c.n); got != c.ok {
			t.Errorf("Defined(%v, %d) = %v, want %v", c.p, c.n, got, c.ok)
		}
	}
}
