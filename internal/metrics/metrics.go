// Package metrics is the observability core of the real-socket server: a
// registry of atomic counters, gauges and log-linear latency histograms,
// with snapshot and delta support and a JSON encoding. Its one human
// rendering is nfsnet.RenderStats. A latency recorded on a sim.Env (the
// paper's tables, nfsstone, the fleet) goes to the exact stats.Samples
// instead; Histogram is for what concurrent goroutines record.
//
// The paper's tuning results (§3, §4) all came from measurement — kernel
// profiling plus nfsstat-style counters — and this package is the
// reproduction's equivalent instrument. Every metric is safe for
// concurrent update without any external lock (the real-socket frontends
// record stats outside the nfsnet "kernel lock"), and safe to snapshot
// while writers are running. Inside the discrete-event simulator the same
// counters work unchanged; atomicity is simply free there.
package metrics

import (
	"encoding/json"
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Store sets the counter to v: lockstat uses it to mirror its per-site
// contention counts into a registry.
func (c *Counter) Store(v int64) { c.v.Store(v) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically updatable instantaneous value (e.g. the
// congestion window, outstanding requests).
type Gauge struct {
	bits atomic.Uint64
}

// Set records the current value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last value set.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Registry is a named collection of metrics. Metric creation is
// lock-protected; updates to the returned metrics are lock-free. The hot
// path never takes the lock: callers intern their metric handles at setup.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counts[name]
	if c == nil {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use with
// the default latency bucket layout.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// Snapshot captures a consistent-enough view of every metric. Writers may
// race individual updates but each value read is itself atomic, which is
// the same guarantee nfsstat had reading live kernel counters.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{
		Counters:   make(map[string]int64, len(r.counts)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counts {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// Snapshot is a point-in-time copy of a registry, serializable as JSON
// (the nfsd stats endpoint's wire format) and subtractable for the
// classic `nfsstat -z` interval-delta workflow.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Delta returns s minus prev: counters and histogram buckets subtract,
// gauges keep their current value. Metrics missing from prev pass
// through unchanged.
func (s *Snapshot) Delta(prev *Snapshot) *Snapshot {
	if prev == nil {
		return s
	}
	d := &Snapshot{
		Counters:   make(map[string]int64, len(s.Counters)),
		Gauges:     make(map[string]float64, len(s.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
	}
	for name, v := range s.Counters {
		d.Counters[name] = v - prev.Counters[name]
	}
	for name, v := range s.Gauges {
		d.Gauges[name] = v
	}
	for name, h := range s.Histograms {
		d.Histograms[name] = h.Sub(prev.Histograms[name])
	}
	return d
}

// MarshalJSON uses the default struct encoding (declared explicitly so the
// wire format is a documented API, not an accident).
func (s *Snapshot) MarshalJSON() ([]byte, error) {
	type alias Snapshot
	return json.Marshal((*alias)(s))
}
