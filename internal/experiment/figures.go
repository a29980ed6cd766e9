package experiment

import (
	"context"
	"fmt"

	"gsfl/internal/gsfl"
	"gsfl/internal/metrics"
	"gsfl/internal/trace"
)

// The Run* functions here are the serial reference harness: each one
// expands its Grid (grids.go), executes the jobs in order via RunGrid,
// and folds the results. cmd/gsfl-bench and cmd/gsfl-sweep run the same
// grids through gsfl/sweep's concurrent scheduler and the same folds,
// producing byte-identical output.

// RunFig2a regenerates Fig. 2(a): accuracy versus training rounds for
// CL, SL, GSFL, and FL on the synthetic GTSRB task.
func RunFig2a(spec Spec, rounds, evalEvery int) ([]*metrics.Curve, error) {
	res, err := RunGrid(context.Background(), Fig2aGrid(spec, rounds, evalEvery))
	if err != nil {
		return nil, err
	}
	return FoldCurves(res), nil
}

// RunFig2b regenerates Fig. 2(b): accuracy versus cumulative training
// latency for GSFL and SL.
func RunFig2b(spec Spec, rounds, evalEvery int) ([]*metrics.Curve, error) {
	res, err := RunGrid(context.Background(), Fig2bGrid(spec, rounds, evalEvery))
	if err != nil {
		return nil, err
	}
	return FoldCurves(res), nil
}

// RunTable1 regenerates the convergence-speed comparison behind the
// paper's "nearly 500% improvement over FL" headline: rounds to reach
// the target accuracy per scheme, with speedups relative to GSFL.
func RunTable1(spec Spec, rounds, evalEvery int, target float64) (*trace.Table, []*metrics.Curve, error) {
	curves, err := RunFig2a(spec, rounds, evalEvery)
	if err != nil {
		return nil, nil, err
	}
	return FoldTable1(curves, target), curves, nil
}

// RunTable2 regenerates the per-round latency breakdown for every
// scheme — the decomposition behind the "31.45% delay reduction vs SL"
// headline. It averages component seconds over the given number of
// rounds.
func RunTable2(spec Spec, rounds int) (*trace.Table, error) {
	res, err := RunGrid(context.Background(), Table2Grid(spec, rounds))
	if err != nil {
		return nil, err
	}
	return FoldTable2(res), nil
}

// RunTable3 regenerates the server-storage comparison from §I: the edge
// server hosts M server-side replicas under GSFL versus N under SplitFed.
// It runs no training rounds, so it stays outside the grid catalogue.
func RunTable3(spec Spec) (*trace.Table, error) {
	world, err := Build(spec)
	if err != nil {
		return nil, err
	}
	opts, err := spec.SchemeOptions()
	if err != nil {
		return nil, err
	}
	tbl := trace.NewTable("table3-server-storage",
		"scheme", "server_replicas", "server_storage_bytes")
	// SplitFed is the engine at M = N. No round runs, so the two
	// trainers can share the world.
	for _, row := range []struct {
		scheme string
		groups int
	}{{"gsfl", spec.Groups}, {"sfl", spec.Clients}} {
		tr, err := gsfl.New(world, gsfl.Config{NumGroups: row.groups, Strategy: opts.Strategy})
		if err != nil {
			return nil, err
		}
		tbl.Add(trace.Row{
			"scheme":               row.scheme,
			"server_replicas":      tr.ServerReplicaCount(),
			"server_storage_bytes": tr.ServerStorageBytes(),
		})
	}
	return tbl, nil
}

// CutLayerResult is one row of the cut-layer ablation (A1).
type CutLayerResult struct {
	Cut           int
	SmashedBytes  int64
	ClientBytes   int64
	RoundLatency  float64
	FinalAccuracy float64
}

// RunAblationCutLayer sweeps the split index (future work §IV) and
// reports, per cut, the smashed-data size, client-model size, mean round
// latency, and final accuracy after the given rounds.
func RunAblationCutLayer(spec Spec, cuts []int, rounds, evalEvery int) ([]CutLayerResult, error) {
	res, err := RunGrid(context.Background(), CutLayerGrid(spec, cuts, rounds, evalEvery))
	if err != nil {
		return nil, err
	}
	return FoldCutLayer(res), nil
}

// GroupingResult is one row of the grouping ablation (A2). Strategy is
// the canonical registry name.
type GroupingResult struct {
	Groups        int
	Strategy      string
	RoundLatency  float64
	FinalAccuracy float64
}

// RunAblationGrouping sweeps the number of groups and the grouping
// strategy (future work §IV). Strategies are registry names (see
// env.Strategies).
func RunAblationGrouping(spec Spec, groupCounts []int, strategies []string, rounds, evalEvery int) ([]GroupingResult, error) {
	res, err := RunGrid(context.Background(), GroupingGrid(spec, groupCounts, strategies, rounds, evalEvery))
	if err != nil {
		return nil, err
	}
	return FoldGrouping(res), nil
}

// AllocationResult is one row of the resource-allocation ablation (A3).
type AllocationResult struct {
	Allocator    string
	RoundLatency float64
}

// RunAblationAllocation compares bandwidth allocation policies (future
// work §IV) on GSFL round latency, holding everything else fixed.
func RunAblationAllocation(spec Spec, rounds int) ([]AllocationResult, error) {
	if spec.Alloc == "" {
		return nil, fmt.Errorf("experiment: allocation ablation needs a base allocator")
	}
	res, err := RunGrid(context.Background(), AllocationGrid(spec, rounds))
	if err != nil {
		return nil, err
	}
	return FoldAllocation(res), nil
}
