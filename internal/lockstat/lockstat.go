// Package lockstat instruments the server's known lock-contention suspects
// — dupcache shards, striped buffer/name caches, memfs tree and inode
// locks, the nfsnet crash gate — with per-site wait telemetry, the way the
// paper's tuning started from kernel profiles rather than guesses.
//
// The discipline is "pay only when contended": every acquisition first
// TryLocks, and only the slow path (the lock was held) reads the clock and
// touches the site's atomics. An uncontended acquisition costs exactly what
// the bare mutex costs, so instrumenting a site never creates the
// contention it is there to measure, and single-threaded (simulator) runs
// record nothing at all.
//
// When the caller has the request's latency span in scope it passes it in,
// and the wait is also credited to that span (surfacing in the
// rpc.stage.lockwait.us histogram and the slow-span trace dumps); deep call
// sites without a span pass nil. The sites are process-wide: nfsd's stats
// endpoint publishes them as lock.<site>.* counters, and the socket fleet
// reads what one run added with Since. Go's runtime mutex/block profiles
// (nfsbench -mutexprofile/-blockprofile) complement this with call-stack
// attribution; lockstat's value is that it is always on and per-site.
package lockstat

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"renonfs/internal/metrics"
)

// Site is one named lock population (all shards/stripes of a cache share a
// site). Zero value is unusable; get one from NewSite.
type Site struct {
	name      string
	contended atomic.Int64
	waitNS    atomic.Int64
}

var (
	sitesMu sync.Mutex
	sites   []*Site
)

// NewSite registers a named site. Call once per population, at init or
// construction time.
func NewSite(name string) *Site {
	s := &Site{name: name}
	sitesMu.Lock()
	sites = append(sites, s)
	sitesMu.Unlock()
	return s
}

// Name returns the site's registered name.
func (s *Site) Name() string { return s.name }

// Contended returns how many acquisitions had to wait.
func (s *Site) Contended() int64 { return s.contended.Load() }

// WaitNS returns the cumulative wait, in nanoseconds.
func (s *Site) WaitNS() int64 { return s.waitNS.Load() }

// waited records one contended acquisition of d on the site and the span.
func (s *Site) waited(d time.Duration, sp *metrics.Span) {
	s.contended.Add(1)
	s.waitNS.Add(int64(d))
	sp.AddLockWait(int64(d))
}

// Lock acquires mu, charging any wait to the site (and to sp when non-nil).
func (s *Site) Lock(mu *sync.Mutex, sp *metrics.Span) {
	if mu.TryLock() {
		return
	}
	t0 := time.Now()
	mu.Lock()
	s.waited(time.Since(t0), sp)
}

// RLock acquires mu for reading, charging any wait.
func (s *Site) RLock(mu *sync.RWMutex, sp *metrics.Span) {
	if mu.TryRLock() {
		return
	}
	t0 := time.Now()
	mu.RLock()
	s.waited(time.Since(t0), sp)
}

// WLock acquires mu for writing, charging any wait.
func (s *Site) WLock(mu *sync.RWMutex, sp *metrics.Span) {
	if mu.TryLock() {
		return
	}
	t0 := time.Now()
	mu.Lock()
	s.waited(time.Since(t0), sp)
}

// Stat is one site's snapshot, for renderers.
type Stat struct {
	Name      string
	Contended int64
	WaitNS    int64
}

// Stats snapshots every registered site, sorted by cumulative wait
// (descending) — the order a contention hunt reads them in.
func Stats() []Stat {
	sitesMu.Lock()
	out := make([]Stat, 0, len(sites))
	for _, s := range sites {
		out = append(out, Stat{Name: s.name, Contended: s.Contended(), WaitNS: s.WaitNS()})
	}
	sitesMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].WaitNS > out[j].WaitNS })
	return out
}

// Since returns each site's contention after before, a snapshot taken by
// Stats, most wait first: what one run cost, the sites being process-wide.
func Since(before []Stat) []Stat {
	base := make(map[string]Stat, len(before))
	for _, st := range before {
		base[st.Name] = st
	}
	out := Stats()
	for i := range out {
		out[i].Contended -= base[out[i].Name].Contended
		out[i].WaitNS -= base[out[i].Name].WaitNS
	}
	sort.Slice(out, func(i, j int) bool { return out[i].WaitNS > out[j].WaitNS })
	return out
}

// Publish mirrors every site into reg as lock.<site>.contended and
// lock.<site>.wait_us counters (the nfsd stats endpoint calls this before
// each snapshot).
func Publish(reg *metrics.Registry) {
	for _, st := range Stats() {
		reg.Counter("lock." + st.Name + ".contended").Store(st.Contended)
		reg.Counter("lock." + st.Name + ".wait_us").Store(st.WaitNS / 1000)
	}
}
