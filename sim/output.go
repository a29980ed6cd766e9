package sim

import (
	"gsfl/internal/metrics"
	"gsfl/internal/simnet"
)

// This file re-exports the run-output vocabulary — latency components,
// curve analysis, CSV persistence — so tooling built on the run API
// (CLIs, examples, the sweep engine) needs no internal imports.

// Component identifies one latency component of a round's Ledger
// (client compute, uplink, server compute, downlink, relay,
// aggregation).
type Component = simnet.Component

// Components returns every latency component in canonical order — the
// order JSON streams and manifests enumerate Ledger breakdowns in.
func Components() []Component { return simnet.Components() }

// SaveCurvesCSV writes training curves to a long-format CSV
// (scheme, round, latency, loss, accuracy), creating parent directories
// as needed.
func SaveCurvesCSV(path string, curves []*Curve) error {
	return metrics.SaveCurvesCSV(path, curves)
}

// SpeedupVsRounds reports how many times faster (in rounds) curve c
// reaches the target accuracy than other; ok is false when either curve
// never reaches it.
func SpeedupVsRounds(c, other *Curve, target float64) (speedup float64, ok bool) {
	return metrics.SpeedupVsRounds(c, other, target)
}

// DelayReduction reports the relative training-latency reduction of
// curve c versus other at the target accuracy; ok is false when either
// curve never reaches it.
func DelayReduction(c, other *Curve, target float64) (reduction float64, ok bool) {
	return metrics.DelayReduction(c, other, target)
}
