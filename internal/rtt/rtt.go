// Package rtt is the Jacobson round-trip estimator (A and D in the paper):
// the UDP RPC transport keeps one per timer class, simulated TCP one per
// connection.
package rtt

import "renonfs/internal/sim"

// Estimator is the smoothed mean A (gain 1/8) and mean deviation D (gain
// 1/4) of round-trip samples. The first sample sets A to the sample and D
// to half of it. The zero value has seen no sample.
type Estimator struct {
	SRTT, RTTVar sim.Time
	Factor       sim.Time // RTO = A + Factor*D
	valid        bool
}

// Sample folds in one round-trip measurement.
func (e *Estimator) Sample(rtt sim.Time) {
	if !e.valid {
		e.SRTT, e.RTTVar, e.valid = rtt, rtt/2, true
		return
	}
	delta := rtt - e.SRTT
	e.SRTT += delta / 8
	if delta < 0 {
		delta = -delta
	}
	e.RTTVar += (delta - e.RTTVar) / 4
}

// RTO returns A + Factor*D, or def before any sample. The caller clamps it.
func (e *Estimator) RTO(def sim.Time) sim.Time {
	if !e.valid {
		return def
	}
	return e.SRTT + e.Factor*e.RTTVar
}
