//go:build !race

package nfsnet

const raceEnabled = false
