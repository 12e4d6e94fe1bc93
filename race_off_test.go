//go:build !race

package renonfs_test

const raceEnabled = false
