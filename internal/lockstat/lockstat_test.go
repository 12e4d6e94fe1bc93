package lockstat

import (
	"sync"
	"testing"
	"time"

	"renonfs/internal/metrics"
)

// Uncontended acquisitions must record nothing: the TryLock fast path is
// the whole point of the discipline.
func TestUncontendedRecordsNothing(t *testing.T) {
	site := NewSite("test.uncontended")
	var mu sync.Mutex
	var rw sync.RWMutex
	for i := 0; i < 100; i++ {
		site.Lock(&mu, nil)
		mu.Unlock()
		site.RLock(&rw, nil)
		rw.RUnlock()
		site.WLock(&rw, nil)
		rw.Unlock()
	}
	if site.Contended() != 0 || site.WaitNS() != 0 {
		t.Errorf("uncontended site recorded contended=%d wait=%dns", site.Contended(), site.WaitNS())
	}
}

// A held lock must charge the waiter's site and span.
func TestContendedChargesSiteAndSpan(t *testing.T) {
	site := NewSite("test.contended")
	var mu sync.Mutex
	mu.Lock()
	released := make(chan struct{})
	go func() {
		time.Sleep(5 * time.Millisecond)
		mu.Unlock()
		close(released)
	}()
	var sp metrics.Span
	sp.Reset(time.Now())
	site.Lock(&mu, &sp)
	mu.Unlock()
	<-released
	if site.Contended() != 1 {
		t.Errorf("contended = %d, want 1", site.Contended())
	}
	if site.WaitNS() <= 0 {
		t.Errorf("wait = %dns, want > 0", site.WaitNS())
	}
	if sp.LockWaitNS != site.WaitNS() {
		t.Errorf("span credited %dns, site %dns", sp.LockWaitNS, site.WaitNS())
	}
}

func TestStatsAndPublish(t *testing.T) {
	site := NewSite("test.publish")
	site.contended.Store(3)
	site.waitNS.Store(42_000)
	found := false
	for _, st := range Stats() {
		if st.Name == "test.publish" {
			found = true
			if st.Contended != 3 || st.WaitNS != 42_000 {
				t.Errorf("stat = %+v", st)
			}
		}
	}
	if !found {
		t.Fatal("site missing from Stats()")
	}
	reg := metrics.NewRegistry()
	Publish(reg)
	snap := reg.Snapshot()
	if got := snap.Counters["lock.test.publish.contended"]; got != 3 {
		t.Errorf("published contended = %d, want 3", got)
	}
	if got := snap.Counters["lock.test.publish.wait_us"]; got != 42 {
		t.Errorf("published wait_us = %d, want 42", got)
	}
}

// Concurrent hammering under -race: many goroutines through one site.
func TestSiteConcurrent(t *testing.T) {
	site := NewSite("test.hammer")
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sp metrics.Span
			sp.Reset(time.Now())
			for i := 0; i < 2000; i++ {
				site.Lock(&mu, &sp)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if site.WaitNS() < 0 {
		t.Error("negative cumulative wait")
	}
}

// Since reports only what each site gained after the snapshot.
func TestSinceSubtractsSnapshot(t *testing.T) {
	site := NewSite("test.since")
	site.contended.Store(5)
	site.waitNS.Store(9_000)
	before := Stats()
	site.contended.Add(2)
	site.waitNS.Add(1_000)
	for _, st := range Since(before) {
		if st.Name == "test.since" && (st.Contended != 2 || st.WaitNS != 1_000) {
			t.Errorf("since = %+v, want 2 contended, 1000ns", st)
		}
	}
}
