package sweep

import (
	"gsfl/internal/experiment"
	"gsfl/internal/trace"
)

// This file re-exports the paper-reproduction harness — the catalogue
// of figure/table experiments, their folds, and the non-grid
// experiments — so harness frontends (cmd/gsfl-bench, cmd/gsfl-sweep,
// the examples) can regenerate every artifact without internal imports.
// The grid vocabulary itself (Spec, Grid, Job, …) is re-exported in
// sweep.go.

// Aliases for the catalogue and its table output.
type (
	// GridExperiment is one named figure/table: grids to expand plus the
	// fold that writes its CSVs.
	GridExperiment = experiment.GridExperiment
	// GridSelection is a resolved experiment choice: selected
	// experiments, concatenated jobs, and per-experiment result slicing.
	GridSelection = experiment.GridSelection
	// Table is a named column-ordered result table with CSV/JSON output.
	Table = trace.Table
	// Row is one Table row.
	Row = trace.Row
	// ValidationResult compares the analytic latency model against
	// event-driven processor sharing.
	ValidationResult = experiment.ValidationResult
	// CutLayerResult is one row of the cut-layer ablation.
	CutLayerResult = experiment.CutLayerResult
	// GroupingResult is one row of the grouping ablation.
	GroupingResult = experiment.GroupingResult
	// AllocationResult is one row of the resource-allocation ablation.
	AllocationResult = experiment.AllocationResult
)

// NewTable creates an empty result table with the given column order.
func NewTable(name string, columns ...string) *Table {
	return trace.NewTable(name, columns...)
}

// GridExperiments catalogues every grid-backed experiment of the paper
// harness at the given scale parameters, in canonical order.
func GridExperiments(spec Spec, rounds, evalEvery int, target float64) []GridExperiment {
	return experiment.GridExperiments(spec, rounds, evalEvery, target)
}

// SelectGridExperiments filters the catalogue by an -exp token ("all"
// selects everything) and expands the chosen grids.
func SelectGridExperiments(catalogue []GridExperiment, name string) (GridSelection, error) {
	return experiment.SelectGridExperiments(catalogue, name)
}

// RunFig2a regenerates Fig. 2(a): accuracy versus training rounds for
// CL, SL, GSFL, and FL — serially; use the Scheduler over
// GridExperiments for concurrent execution.
func RunFig2a(spec Spec, rounds, evalEvery int) ([]*Curve, error) {
	return experiment.RunFig2a(spec, rounds, evalEvery)
}

// RunTable3 regenerates the server-storage comparison (GSFL hosts M
// server replicas versus SplitFed's N); it runs no training rounds.
func RunTable3(spec Spec) (*Table, error) {
	return experiment.RunTable3(spec)
}

// RunValidationEventDriven validates the analytic round-latency model
// against an event-driven processor-sharing replay of the same round.
func RunValidationEventDriven(spec Spec) (ValidationResult, error) {
	return experiment.RunValidationEventDriven(spec)
}

// RunAblationCutLayer sweeps the split index and reports, per cut, the
// smashed-data size, client-model size, mean round latency, and final
// accuracy.
func RunAblationCutLayer(spec Spec, cuts []int, rounds, evalEvery int) ([]CutLayerResult, error) {
	return experiment.RunAblationCutLayer(spec, cuts, rounds, evalEvery)
}

// RunAblationGrouping sweeps the number of groups and the grouping
// strategy (registry names; see env.Strategies).
func RunAblationGrouping(spec Spec, groupCounts []int, strategies []string, rounds, evalEvery int) ([]GroupingResult, error) {
	return experiment.RunAblationGrouping(spec, groupCounts, strategies, rounds, evalEvery)
}

// RunAblationAllocation compares registered bandwidth-allocation
// policies on GSFL round latency, holding everything else fixed.
func RunAblationAllocation(spec Spec, rounds int) ([]AllocationResult, error) {
	return experiment.RunAblationAllocation(spec, rounds)
}
