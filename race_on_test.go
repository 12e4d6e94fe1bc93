//go:build race

package renonfs_test

// raceEnabled reports a -race build. Under the race detector sync.Pool
// deliberately drops a share of Puts, so the mbuf free lists miss and a
// test that builds chains cannot hold a tight allocation budget.
const raceEnabled = true
