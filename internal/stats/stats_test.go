package stats

import (
	"strings"
	"testing"
	"time"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, v := range []float64{3, 1, 5, 2, 4} {
		s.Add(v)
	}
	if s.Count != 5 || s.Sum != 15 || s.Mean() != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Count != 0 || s.Mean() != 0 {
		t.Fatalf("empty summary not zero: %+v", s)
	}
}

func TestSummarySingleSample(t *testing.T) {
	var s Summary
	s.Add(3.7)
	if s.Min != 3.7 || s.Max != 3.7 || s.Mean() != 3.7 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestSummaryZeroValue(t *testing.T) {
	// The zero value must not report its own zeros as observations: a
	// stream of positives keeps a positive min, negatives a negative max.
	var pos, neg Summary
	for i := 1; i <= 100; i++ {
		pos.Add(float64(i))
		neg.Add(-float64(i))
	}
	if pos.Count != 100 || pos.Min != 1 || pos.Max != 100 {
		t.Fatalf("positive stream = %+v", pos)
	}
	if neg.Min != -100 || neg.Max != -1 {
		t.Fatalf("negative stream = %+v", neg)
	}
}

func TestAddDuration(t *testing.T) {
	var s Summary
	s.AddDuration(250 * time.Millisecond)
	if s.Mean() != 250 {
		t.Fatalf("mean = %v ms", s.Mean())
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
