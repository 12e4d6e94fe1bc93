package metrics

// Stage-level RPC latency attribution: every server-side RPC carries one
// value-embedded Span that timestamps the dispatch pipeline's stages —
// socket read, queue wait, RPC decode, duplicate-cache check, VFS/memfs
// service, reply encode, socket send — plus the time it spent waiting on
// instrumented locks. Spans aggregate into per-stage log-linear histograms
// (rpc.stage.<name>.us) and the slowest N land in a bounded ring that dumps
// as Chrome chrome://tracing JSON, so "where does the microsecond go" has a
// first-class answer instead of a whole-RPC blur.
//
// The design constraint is the PR 4 allocation budget: recording a span
// must add zero allocations on the hot path. A Span is a fixed-size value
// (no maps, no slices), the per-stage histograms are interned once, and the
// ring admits candidates through a lock-free threshold check, so the
// steady-state cost is a handful of clock reads per RPC.

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Stage indexes one segment of the server-side RPC pipeline.
type Stage uint8

// Pipeline stages, in wire order. A stage's duration is the gap between
// its stamp and the previous stage's stamp.
const (
	StageRead     Stage = iota // socket read + mbuf staging
	StageQueue                 // job queue residency until an nfsd picks it up
	StageDecode                // RPC call header decode
	StageDupcheck              // duplicate-request-cache begin
	StageService               // VFS/memfs dispatch (includes result marshalling)
	StageEncode                // reply commit + linearization for the socket
	StageSend                  // socket write
	NumStages
)

var stageNames = [NumStages]string{
	"read", "queue", "decode", "dupcheck", "service", "encode", "send",
}

// String returns the stage's short name (the one used in metric names).
func (st Stage) String() string {
	if int(st) < len(stageNames) {
		return stageNames[st]
	}
	return fmt.Sprintf("stage%d", st)
}

// StageNames lists the pipeline stages in order, for renderers.
func StageNames() [NumStages]string { return stageNames }

// Span is the per-request record: a begin time plus the pipeline offsets.
// It is a plain value — embed it in a job struct or reuse one per worker
// goroutine; recording never retains the pointer.
type Span struct {
	XID    uint32
	Proc   uint32
	Worker int32 // nfsd pool index; -1 for per-connection (TCP) serving
	Err    bool  // the call resolved to an error or produced no reply
	Peer   string
	Begin  time.Time
	// end[st] is the ns offset from Begin at which stage st finished;
	// 0 means the stage was never reached (the span stopped early).
	end [NumStages]int64
	// LockWaitNS accumulates time this request spent blocked on
	// instrumented locks (dupcache shards, cache stripes, inode locks,
	// the crash gate), wherever the span was in scope.
	LockWaitNS int64
}

// Reset re-arms the span for a new request beginning at t, keeping nothing
// from the previous use.
func (sp *Span) Reset(t time.Time) {
	*sp = Span{Begin: t, Worker: -1}
}

// Stamp marks stage st as finished now. Nil-safe so call sites on paths
// that may run without a span (the simulator) stay unconditional.
func (sp *Span) Stamp(st Stage) {
	if sp == nil {
		return
	}
	d := int64(time.Since(sp.Begin))
	if d <= 0 {
		d = 1 // clock granularity: a reached stage is distinguishable from an unreached one
	}
	sp.end[st] = d
}

// SetStageEnd records a pre-measured offset (ns from Begin) for st.
func (sp *Span) SetStageEnd(st Stage, ns int64) {
	if sp == nil {
		return
	}
	if ns <= 0 {
		ns = 1
	}
	sp.end[st] = ns
}

// SetCall records the request identity once the header is decoded. Nil-safe.
func (sp *Span) SetCall(xid, proc uint32) {
	if sp != nil {
		sp.XID, sp.Proc = xid, proc
	}
}

// SetErr marks the span's request as failed (decode garbage, NFS error, or
// a dropped in-flight duplicate). Nil-safe.
func (sp *Span) SetErr() {
	if sp != nil {
		sp.Err = true
	}
}

// AddLockWait credits ns of lock wait to the span. Nil-safe.
func (sp *Span) AddLockWait(ns int64) {
	if sp != nil {
		sp.LockWaitNS += ns
	}
}

// StageNS returns the duration of stage st in ns: the gap from the latest
// earlier stamped stage (or zero) to st's stamp. Unreached stages are 0.
func (sp *Span) StageNS(st Stage) int64 {
	e := sp.end[st]
	if e == 0 {
		return 0
	}
	var prev int64
	for i := int(st) - 1; i >= 0; i-- {
		if sp.end[i] != 0 {
			prev = sp.end[i]
			break
		}
	}
	d := e - prev
	if d < 0 {
		d = 0
	}
	return d
}

// TotalNS returns the span's full pipeline time: the latest stamp.
func (sp *Span) TotalNS() int64 {
	for i := int(NumStages) - 1; i >= 0; i-- {
		if sp.end[i] != 0 {
			return sp.end[i]
		}
	}
	return 0
}

// StageStats aggregates spans into the rpc.stage.* histograms and feeds
// the slowest ones to a SpanRing. One instance serves a whole frontend;
// Record is safe for concurrent use.
type StageStats struct {
	stages   [NumStages]*Histogram
	total    *Histogram
	lockwait *Histogram
	ring     *SpanRing
}

// DefaultSlowSpans is the ring depth frontends use unless told otherwise.
const DefaultSlowSpans = 128

// NewStageStats interns the per-stage histograms (rpc.stage.<name>.us,
// values in microseconds) in r and sizes the slow-span ring.
func NewStageStats(r *Registry, slowN int) *StageStats {
	ss := &StageStats{
		total:    r.Histogram("rpc.stage.total.us"),
		lockwait: r.Histogram("rpc.stage.lockwait.us"),
		ring:     NewSpanRing(slowN),
	}
	for st := Stage(0); st < NumStages; st++ {
		ss.stages[st] = r.Histogram("rpc.stage." + st.String() + ".us")
	}
	return ss
}

// Record folds one finished span into the histograms and offers it to the
// slow ring. Only reached stages are observed, so per-stage counts reveal
// how far requests got (a dropped duplicate never reaches encode).
func (ss *StageStats) Record(sp *Span) {
	const usPerNS = 1.0 / float64(time.Microsecond)
	for st := Stage(0); st < NumStages; st++ {
		if sp.end[st] != 0 {
			ss.stages[st].Observe(float64(sp.StageNS(st)) * usPerNS)
		}
	}
	ss.total.Observe(float64(sp.TotalNS()) * usPerNS)
	if sp.LockWaitNS > 0 {
		ss.lockwait.Observe(float64(sp.LockWaitNS) * usPerNS)
	}
	ss.ring.Offer(sp)
}

// Ring exposes the slow-span ring (trace dumps read it).
func (ss *StageStats) Ring() *SpanRing { return ss.ring }

// SpanRing keeps the slowest N spans seen so far. Admission is gated by a
// lock-free threshold: once the ring is full, spans faster than the
// slowest-N cutoff return after one atomic load, so the common case costs
// nothing and the mutex only serializes genuine tail events.
type SpanRing struct {
	floorNS atomic.Int64 // admission cutoff once full (the ring's minimum total)
	mu      sync.Mutex
	spans   []Span // fixed capacity, unordered
}

// NewSpanRing returns a ring keeping the slowest n spans (n >= 1).
func NewSpanRing(n int) *SpanRing {
	if n < 1 {
		n = 1
	}
	return &SpanRing{spans: make([]Span, 0, n)}
}

// Offer copies sp into the ring if it ranks among the slowest seen.
func (r *SpanRing) Offer(sp *Span) {
	total := sp.TotalNS()
	if total <= r.floorNS.Load() {
		return // fast reject: full ring, not slow enough
	}
	r.mu.Lock()
	if len(r.spans) < cap(r.spans) {
		r.spans = append(r.spans, *sp)
		if len(r.spans) == cap(r.spans) {
			r.floorNS.Store(r.minLocked())
		}
		r.mu.Unlock()
		return
	}
	// Replace the current minimum (the threshold may lag under races;
	// re-check under the lock).
	minIdx, minTotal := 0, r.spans[0].TotalNS()
	for i := 1; i < len(r.spans); i++ {
		if t := r.spans[i].TotalNS(); t < minTotal {
			minIdx, minTotal = i, t
		}
	}
	if total > minTotal {
		r.spans[minIdx] = *sp
		r.floorNS.Store(r.minLocked())
	}
	r.mu.Unlock()
}

// minLocked returns the smallest total in the ring (caller holds mu).
func (r *SpanRing) minLocked() int64 {
	min := r.spans[0].TotalNS()
	for i := 1; i < len(r.spans); i++ {
		if t := r.spans[i].TotalNS(); t < min {
			min = t
		}
	}
	return min
}

// Len returns the number of spans held.
func (r *SpanRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Slowest returns the held spans, slowest first.
func (r *SpanRing) Slowest() []Span {
	r.mu.Lock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].TotalNS() > out[j].TotalNS() })
	return out
}

// WriteChromeTrace renders spans as a Chrome trace-event JSON document
// (load it at chrome://tracing or https://ui.perfetto.dev). Each span
// becomes one complete event per reached stage, on a track per worker
// (tid; TCP connections share tid -1's track rendered as 9999). procName
// renders procedure numbers; nil falls back to "procN". Timestamps are
// microseconds relative to the earliest span, so output is deterministic
// given deterministic spans (the golden test relies on this).
func WriteChromeTrace(w io.Writer, spans []Span, procName func(uint32) string) error {
	name := procName
	if name == nil {
		name = func(p uint32) string { return fmt.Sprintf("proc%d", p) }
	}
	base := time.Time{}
	for i := range spans {
		if base.IsZero() || spans[i].Begin.Before(base) {
			base = spans[i].Begin
		}
	}
	// Stable order: by begin time, then XID, so dumps are reproducible.
	ordered := make([]Span, len(spans))
	copy(ordered, spans)
	sort.Slice(ordered, func(i, j int) bool {
		if !ordered[i].Begin.Equal(ordered[j].Begin) {
			return ordered[i].Begin.Before(ordered[j].Begin)
		}
		return ordered[i].XID < ordered[j].XID
	})
	if _, err := io.WriteString(w, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	for i := range ordered {
		sp := &ordered[i]
		tid := sp.Worker
		if tid < 0 {
			tid = 9999 // per-connection TCP serving, no pool slot
		}
		startUS := float64(sp.Begin.Sub(base)) / float64(time.Microsecond)
		var prevNS int64
		for st := Stage(0); st < NumStages; st++ {
			if sp.end[st] == 0 {
				continue
			}
			durNS := sp.end[st] - prevNS
			if durNS < 0 {
				durNS = 0
			}
			if !first {
				if _, err := io.WriteString(w, ",\n"); err != nil {
					return err
				}
			}
			first = false
			_, err := fmt.Fprintf(w,
				`{"name":%q,"cat":"rpc","ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d,"args":{"proc":%q,"xid":%d,"peer":%q,"lockwait_ns":%d}}`,
				st.String(), startUS+float64(prevNS)/1e3, float64(durNS)/1e3,
				tid, name(sp.Proc), sp.XID, sp.Peer, sp.LockWaitNS)
			if err != nil {
				return err
			}
			prevNS = sp.end[st]
		}
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}
