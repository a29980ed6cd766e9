package sweep

import "gsfl/internal/experiment"

// This file re-exports the paper-reproduction catalogue — every figure,
// table and ablation as a row of grids and outputs — so cmd/gsfl-sweep
// can regenerate each artifact without internal imports. The grid vocabulary itself
// (Spec, Grid, Job, …) is re-exported in sweep.go.

type (
	// GridExperiment is one named figure/table: grids to expand plus the
	// CSV outputs derived from their results.
	GridExperiment = experiment.GridExperiment
	// GridSelection is a resolved experiment choice: selected
	// experiments, concatenated jobs, and per-experiment result slicing.
	GridSelection = experiment.GridSelection
)

// GridExperiments catalogues every experiment of the paper harness at
// the given scale parameters, in canonical order.
func GridExperiments(spec Spec, rounds, evalEvery int, target float64) []GridExperiment {
	return experiment.GridExperiments(spec, rounds, evalEvery, target)
}

// ExperimentNames lists the catalogue's -exp tokens (without "all").
func ExperimentNames() []string { return experiment.ExperimentNames() }

// SelectGridExperiments filters the catalogue by an -exp token ("all"
// selects everything) and expands the chosen grids; an unknown token is
// an error listing the catalogue's names.
func SelectGridExperiments(catalogue []GridExperiment, name string) (GridSelection, error) {
	return experiment.SelectGridExperiments(catalogue, name)
}
