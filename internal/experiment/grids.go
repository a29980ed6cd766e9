package experiment

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"

	"gsfl/env"
	"gsfl/internal/metrics"
	"gsfl/internal/model"
	"gsfl/internal/schemes"
	"gsfl/internal/simnet"
	"gsfl/internal/trace"
)

// This file declares the paper's figures, tables, and ablations as
// Grids plus pure folds over the expanded jobs' results, and lists them
// in one catalogue (GridExperiments). cmd/gsfl-sweep -exp runs the
// catalogue's jobs through gsfl/sweep's scheduler (or a fleet) and
// applies the folds; results come back in job order, so any -jobs value
// produces byte-identical CSVs.

// Fig2aGrid sweeps the four schemes of Fig. 2(a).
func Fig2aGrid(spec Spec, rounds, evalEvery int) Grid {
	return Grid{
		Name: "fig2a", Base: spec, Rounds: rounds, EvalEvery: evalEvery,
		Axes: Axes{Schemes: []string{"cl", "sl", "gsfl", "fl"}},
	}
}

// Fig2bGrid sweeps the two schemes of Fig. 2(b). Its cells are a subset
// of Fig2aGrid's (same IDs), so a sweep running both executes them once.
func Fig2bGrid(spec Spec, rounds, evalEvery int) Grid {
	return Grid{
		Name: "fig2b", Base: spec, Rounds: rounds, EvalEvery: evalEvery,
		Axes: Axes{Schemes: []string{"gsfl", "sl"}},
	}
}

// Table2Grid sweeps all five schemes for the per-round latency
// breakdown. Accuracy is irrelevant here, so cells evaluate only after
// the final round (the historical harness never evaluated them at all;
// evaluation does not perturb training numerics or latency).
func Table2Grid(spec Spec, rounds int) Grid {
	return Grid{
		Name: "table2", Base: spec, Rounds: rounds, EvalEvery: rounds,
		Axes: Axes{Schemes: []string{"gsfl", "sl", "fl", "sfl", "cl"}},
	}
}

// CutLayerGrid sweeps the split index (ablation A1).
func CutLayerGrid(spec Spec, cuts []int, rounds, evalEvery int) Grid {
	return Grid{
		Name: "cutlayer", Base: spec, Rounds: rounds, EvalEvery: evalEvery,
		Axes: Axes{Cuts: cuts},
	}
}

// GroupingGrid sweeps group count and grouping strategy (ablation A2),
// groups outermost — the historical row order. Strategies are registry
// names (see env.Strategies).
func GroupingGrid(spec Spec, groupCounts []int, strategies []string, rounds, evalEvery int) Grid {
	return Grid{
		Name: "grouping", Base: spec, Rounds: rounds, EvalEvery: evalEvery,
		Axes: Axes{Groups: groupCounts, Strategies: strategies},
	}
}

// AllocationGrid sweeps the bandwidth allocation policy (ablation A3),
// latency-only like Table2Grid.
func AllocationGrid(spec Spec, rounds int) Grid {
	return Grid{
		Name: "resalloc", Base: spec, Rounds: rounds, EvalEvery: rounds,
		Axes: Axes{Allocators: []string{"uniform", "proportional-fair", "latency-min"}},
	}
}

// PipelineGrid compares GSFL without and with communication/computation
// overlap.
func PipelineGrid(spec Spec, rounds, evalEvery int) Grid {
	return Grid{
		Name: "pipeline", Base: spec, Rounds: rounds, EvalEvery: evalEvery,
		Axes: Axes{Pipelined: []bool{false, true}},
	}
}

// QuantGrid compares full-precision against 8-bit quantized transfers.
func QuantGrid(spec Spec, rounds, evalEvery int) Grid {
	return Grid{
		Name: "quant", Base: spec, Rounds: rounds, EvalEvery: evalEvery,
		Axes: Axes{Quantized: []bool{false, true}},
	}
}

// DropoutGrid sweeps per-round client unavailability.
func DropoutGrid(spec Spec, probs []float64, rounds, evalEvery int) Grid {
	return Grid{
		Name: "dropout", Base: spec, Rounds: rounds, EvalEvery: evalEvery,
		Axes: Axes{Dropouts: probs},
	}
}

// NonIIDGrid crosses Dirichlet concentration with {gsfl, fl}, alphas
// outermost — the historical row order.
func NonIIDGrid(spec Spec, alphas []float64, rounds, evalEvery int) Grid {
	return Grid{
		Name: "noniid", Base: spec, Rounds: rounds, EvalEvery: evalEvery,
		Axes: Axes{Alphas: alphas, Schemes: []string{"gsfl", "fl"}},
	}
}

// PopSampleGrid crosses the per-round sampling fraction with the group
// count over a persistent client population (PR 7): the population is a
// fixed multiple of the slot count, members churn through the "onoff"
// availability trace, and each cell trains GSFL on the cohorts the
// population samples. Fractions are relative to the population, so at
// the default scale (30 clients, 120 members) they span cohorts from a
// handful of clients up to every slot.
func PopSampleGrid(spec Spec, fractions []float64, groupCounts []int, rounds, evalEvery int) Grid {
	spec.Population = popMembersPerSlot * spec.Clients
	spec.AvailTrace = "onoff"
	return Grid{
		Name: "popsample", Base: spec, Rounds: rounds, EvalEvery: evalEvery,
		Axes: Axes{SampleFractions: fractions, Groups: groupCounts},
	}
}

// popMembersPerSlot sizes the popsample population relative to the slot
// count; with DefaultPopFractions the largest cohort exactly fills the
// slots.
const popMembersPerSlot = 4

// DefaultPopFractions is the popsample study's sampling-fraction sweep.
func DefaultPopFractions() []float64 { return []float64{0.05, 0.1, 0.25} }

// PopSampleResult is one popsample cell's folded row.
type PopSampleResult struct {
	Fraction      float64
	Population    int
	Cohort        int
	Groups        int
	RoundLatency  float64
	FinalAccuracy float64
}

// FoldPopSample derives the population-sampling study rows.
func FoldPopSample(res []JobResult) []PopSampleResult {
	out := make([]PopSampleResult, 0, len(res))
	for _, r := range res {
		s := r.Job.Spec
		out = append(out, PopSampleResult{
			Fraction:      s.SampleFraction,
			Population:    s.Population,
			Cohort:        s.CohortSize(),
			Groups:        s.Groups,
			RoundLatency:  lastLatency(r.Curve) / float64(r.Job.Rounds),
			FinalAccuracy: r.Curve.FinalAccuracy(),
		})
	}
	return out
}

// NumericGrid reruns the base GSFL cell under each registered numeric
// mode (PR 8). The exact-mode cell normalizes to a numeric-free spec,
// so it shares its job ID — and therefore its sweep-store entry — with
// the historical catalogue; only non-default modes add cells.
func NumericGrid(spec Spec, modes []string, rounds, evalEvery int) Grid {
	return Grid{
		Name: "numeric", Base: spec, Rounds: rounds, EvalEvery: evalEvery,
		Axes: Axes{Numerics: modes},
	}
}

// NumericResult is one numeric-mode cell's folded row.
type NumericResult struct {
	Mode          string
	RoundLatency  float64
	FinalAccuracy float64
}

// FoldNumeric derives the numeric-mode comparison rows. Both derived
// columns are simulation-deterministic — simulated latency and final
// accuracy, never host wall-clock — so the CSV stays byte-identical
// across harness worker counts even though the cells ran under
// different kernels.
func FoldNumeric(res []JobResult) []NumericResult {
	out := make([]NumericResult, 0, len(res))
	for _, r := range res {
		mode, err := env.CanonicalNumericMode(r.Job.Spec.Numeric)
		if err != nil {
			// The grid expansion already validated the name.
			panic(fmt.Sprintf("experiment: fold numeric: %v", err))
		}
		out = append(out, NumericResult{
			Mode:          mode,
			RoundLatency:  lastLatency(r.Curve) / float64(r.Job.Rounds),
			FinalAccuracy: r.Curve.FinalAccuracy(),
		})
	}
	return out
}

// SeedSweepGrid reruns one scheme across k seeds spaced as the
// historical seed-variance study spaced them.
func SeedSweepGrid(spec Spec, scheme string, seeds, rounds, evalEvery int) Grid {
	sv := make([]int64, seeds)
	for k := range sv {
		sv[k] = spec.Seed + int64(1000*k)
	}
	return Grid{
		Name: "seeds-" + scheme, Base: spec, Rounds: rounds, EvalEvery: evalEvery,
		Axes: Axes{Seeds: sv, Schemes: []string{scheme}},
	}
}

// FoldCurves extracts each result's training curve, in job order.
func FoldCurves(res []JobResult) []*metrics.Curve {
	out := make([]*metrics.Curve, len(res))
	for i, r := range res {
		out[i] = r.Curve
	}
	return out
}

// FoldTable1 derives the convergence-speed table from Fig. 2(a)'s
// curves: rounds to target accuracy per scheme and the speedup of GSFL
// over each.
func FoldTable1(curves []*metrics.Curve, target float64) *trace.Table {
	var gsflCurve *metrics.Curve
	for _, c := range curves {
		if c.Scheme == "gsfl" {
			gsflCurve = c
		}
	}
	tbl := trace.NewTable("table1-convergence",
		"scheme", "target_accuracy", "rounds_to_target", "reached", "speedup_vs_scheme_for_gsfl")
	for _, c := range curves {
		r, ok := c.RoundsToAccuracy(target)
		row := trace.Row{
			"scheme":          c.Scheme,
			"target_accuracy": target,
			"reached":         ok,
		}
		if ok {
			row["rounds_to_target"] = r
		}
		if s, sok := metrics.SpeedupVsRounds(gsflCurve, c, target); sok {
			row["speedup_vs_scheme_for_gsfl"] = fmt.Sprintf("%.2f", s)
		}
		tbl.Add(row)
	}
	return tbl
}

// FoldTable2 averages each scheme's summed ledger into the per-round
// latency and energy breakdown table.
func FoldTable2(res []JobResult) *trace.Table {
	tbl := trace.NewTable("table2-latency-breakdown",
		"scheme", "client_compute_s", "uplink_s", "server_compute_s",
		"downlink_s", "relay_s", "aggregation_s", "total_s",
		"client_energy_J", "server_energy_J")
	energy := simnet.DefaultEnergyModel()
	for _, r := range res {
		sum := r.Ledger
		inv := 1 / float64(r.Job.Rounds)
		tbl.Add(trace.Row{
			"scheme":           r.Job.Scheme,
			"client_compute_s": fmt.Sprintf("%.4f", sum.Get(simnet.ClientCompute)*inv),
			"uplink_s":         fmt.Sprintf("%.4f", sum.Get(simnet.Uplink)*inv),
			"server_compute_s": fmt.Sprintf("%.4f", sum.Get(simnet.ServerCompute)*inv),
			"downlink_s":       fmt.Sprintf("%.4f", sum.Get(simnet.Downlink)*inv),
			"relay_s":          fmt.Sprintf("%.4f", sum.Get(simnet.Relay)*inv),
			"aggregation_s":    fmt.Sprintf("%.4f", sum.Get(simnet.Aggregation)*inv),
			"total_s":          fmt.Sprintf("%.4f", sum.Total()*inv),
			"client_energy_J":  fmt.Sprintf("%.4f", energy.ClientEnergyJ(&sum)*inv),
			"server_energy_J":  fmt.Sprintf("%.4f", energy.ServerEnergyJ(&sum)*inv),
		})
	}
	return tbl
}

// probeSplit rebuilds the architecture probe the cut-layer ablation
// reports transfer/model sizes from, without materializing a dataset
// (the class count comes from a cheaply instantiated source). The rng
// only initializes weights, which the size accessors ignore; it is
// derived exactly as Build derives it so the probe is the same object
// the historical env-based code produced. The spec comes from an
// already-executed job, so resolution errors are programmer errors.
func probeSplit(s Spec) *model.SplitModel {
	s = s.Normalized()
	src, err := env.NewDataset(s.Dataset, env.DataConfig{ImageSize: s.ImageSize, Seed: s.Seed})
	if err != nil {
		panic(fmt.Sprintf("experiment: probe dataset: %v", err))
	}
	arch, err := env.NewArch(s.Arch, env.ArchConfig{ImageSize: s.ImageSize, Classes: src.Classes(), Seed: s.Seed})
	if err != nil {
		panic(fmt.Sprintf("experiment: probe arch: %v", err))
	}
	probeEnv := &schemes.Env{Seed: s.EnvSeed()}
	return arch.NewSplit(probeEnv.Rng("probe", 0), s.Cut)
}

// lastLatency returns the curve's final cumulative latency (0 when the
// curve is empty).
func lastLatency(c *metrics.Curve) float64 {
	if len(c.Points) == 0 {
		return 0
	}
	return c.Points[len(c.Points)-1].LatencySeconds
}

// CutLayerResult is one row of the cut-layer ablation (A1): the split
// index (future work §IV) against smashed-data size, client-model size,
// mean round latency and final accuracy.
type CutLayerResult struct {
	Cut           int
	SmashedBytes  int64
	ClientBytes   int64
	RoundLatency  float64
	FinalAccuracy float64
}

// FoldCutLayer derives the cut-layer ablation rows from each cell's
// curve plus a data-free architecture probe.
func FoldCutLayer(res []JobResult) []CutLayerResult {
	out := make([]CutLayerResult, 0, len(res))
	for _, r := range res {
		s := r.Job.Spec
		probe := probeSplit(s)
		out = append(out, CutLayerResult{
			Cut:           s.Cut,
			SmashedBytes:  probe.SmashedBytes(s.Hyper.Batch),
			ClientBytes:   probe.ClientParamBytes(),
			RoundLatency:  lastLatency(r.Curve) / float64(r.Job.Rounds),
			FinalAccuracy: r.Curve.FinalAccuracy(),
		})
	}
	return out
}

// GroupingResult is one row of the grouping ablation (A2). Strategy is
// the canonical registry name.
type GroupingResult struct {
	Groups        int
	Strategy      string
	RoundLatency  float64
	FinalAccuracy float64
}

// FoldGrouping derives the grouping ablation rows.
func FoldGrouping(res []JobResult) []GroupingResult {
	out := make([]GroupingResult, 0, len(res))
	for _, r := range res {
		out = append(out, GroupingResult{
			Groups:        r.Job.Spec.Groups,
			Strategy:      r.Job.Spec.Strategy,
			RoundLatency:  lastLatency(r.Curve) / float64(r.Job.Rounds),
			FinalAccuracy: r.Curve.FinalAccuracy(),
		})
	}
	return out
}

// AllocationResult is one row of the resource-allocation ablation (A3).
type AllocationResult struct {
	Allocator    string
	RoundLatency float64
}

// FoldAllocation derives the allocation ablation rows from the summed
// round latencies (the cells never needed accuracy). TotalSeconds is
// used rather than Ledger.Total() to keep the floating-point summation
// order of the historical per-round accumulation.
func FoldAllocation(res []JobResult) []AllocationResult {
	out := make([]AllocationResult, 0, len(res))
	for _, r := range res {
		out = append(out, AllocationResult{
			Allocator:    r.Job.Spec.Alloc, // canonical: grid expansion resolved it
			RoundLatency: r.TotalSeconds / float64(r.Job.Rounds),
		})
	}
	return out
}

// PipelineResult is one row of the communication/computation-overlap
// ablation (the "parallel design" of the paper's reference [2]).
// Training numerics are identical with and without overlap; only the
// latency model changes, so the accuracy columns match and the latency
// column favours pipelining.
type PipelineResult struct {
	Pipelined     bool
	RoundLatency  float64
	FinalAccuracy float64
}

// FoldPipelining derives the pipelining ablation rows.
func FoldPipelining(res []JobResult) []PipelineResult {
	out := make([]PipelineResult, 0, len(res))
	for _, r := range res {
		out = append(out, PipelineResult{
			Pipelined:     r.Job.Spec.Pipelined,
			RoundLatency:  lastLatency(r.Curve) / float64(r.Job.Rounds),
			FinalAccuracy: r.Curve.FinalAccuracy(),
		})
	}
	return out
}

// QuantResult is one row of the transfer-precision ablation: float32
// wire against 8-bit quantized smashed-data/gradient transfers (4x less
// traffic versus whatever accuracy the precision loss costs).
type QuantResult struct {
	Quantized     bool
	RoundLatency  float64
	FinalAccuracy float64
}

// FoldQuantization derives the transfer-precision ablation rows.
func FoldQuantization(res []JobResult) []QuantResult {
	out := make([]QuantResult, 0, len(res))
	for _, r := range res {
		out = append(out, QuantResult{
			Quantized:     r.Job.Spec.Hyper.QuantizeTransfers,
			RoundLatency:  lastLatency(r.Curve) / float64(r.Job.Rounds),
			FinalAccuracy: r.Curve.FinalAccuracy(),
		})
	}
	return out
}

// DropoutResult is one row of the client-dropout robustness sweep.
type DropoutResult struct {
	DropoutProb   float64
	RoundLatency  float64
	FinalAccuracy float64
}

// FoldDropout derives the dropout robustness rows.
func FoldDropout(res []JobResult) []DropoutResult {
	out := make([]DropoutResult, 0, len(res))
	for _, r := range res {
		out = append(out, DropoutResult{
			DropoutProb:   r.Job.Spec.DropoutProb,
			RoundLatency:  lastLatency(r.Curve) / float64(r.Job.Rounds),
			FinalAccuracy: r.Curve.FinalAccuracy(),
		})
	}
	return out
}

// NonIIDResult is one row of the data-heterogeneity sweep over the
// Dirichlet concentration alpha (small = highly skewed client data) for
// GSFL and FL.
type NonIIDResult struct {
	Alpha         float64
	Scheme        string
	FinalAccuracy float64
	RoundsToHalf  int // rounds to 50% accuracy
	ReachedHalf   bool
}

// FoldNonIID derives the heterogeneity sweep rows.
func FoldNonIID(res []JobResult) []NonIIDResult {
	out := make([]NonIIDResult, 0, len(res))
	for _, r := range res {
		rounds, ok := r.Curve.RoundsToAccuracy(0.5)
		out = append(out, NonIIDResult{
			Alpha:         r.Job.Spec.Alpha,
			Scheme:        r.Job.Scheme,
			FinalAccuracy: r.Curve.FinalAccuracy(),
			RoundsToHalf:  rounds,
			ReachedHalf:   ok,
		})
	}
	return out
}

// SeedStats summarizes a scheme's final accuracy across seeds — the
// variance bar a credible reproduction publishes alongside point
// estimates.
type SeedStats struct {
	Scheme   string
	Seeds    int
	MeanAcc  float64
	StdAcc   float64
	WorstAcc float64
	BestAcc  float64
}

// FoldSeedStats summarizes a seed sweep's final accuracies.
func FoldSeedStats(res []JobResult) SeedStats {
	accs := make([]float64, 0, len(res))
	scheme := ""
	for _, r := range res {
		accs = append(accs, r.Curve.FinalAccuracy())
		scheme = r.Job.Scheme
	}
	st := SeedStats{Scheme: scheme, Seeds: len(accs), WorstAcc: accs[0], BestAcc: accs[0]}
	sum := 0.0
	for _, a := range accs {
		sum += a
		if a < st.WorstAcc {
			st.WorstAcc = a
		}
		if a > st.BestAcc {
			st.BestAcc = a
		}
	}
	st.MeanAcc = sum / float64(len(accs))
	ss := 0.0
	for _, a := range accs {
		d := a - st.MeanAcc
		ss += d * d
	}
	st.StdAcc = math.Sqrt(ss / float64(len(accs)))
	return st
}

// DefaultGroupCounts picks the grouping ablation's sweep of M values for
// n clients.
func DefaultGroupCounts(n int) []int {
	candidates := []int{1, 2, 3, 6, 10, 15, 30}
	var out []int
	for _, c := range candidates {
		if c <= n {
			out = append(out, c)
		}
	}
	return out
}

// GridExperiment is one named figure/table whose cells come from zero
// or more Grids and whose output files come from folding the cells'
// results. The catalogue of these (GridExperiments) is the single
// description of every paper artifact.
type GridExperiment struct {
	// Name is the -exp token ("fig2a", "grouping", …).
	Name string
	// Grids expand (concatenated, in order) into the experiment's jobs.
	// Most experiments are a single grid; the seed-variance study is one
	// seed grid per scheme; table3 and validate train nothing and have
	// none.
	Grids []Grid
	// Save folds the results (in job order, aligned with Jobs()) and
	// writes the experiment's CSV file(s) under outDir.
	Save func(outDir string, res []JobResult) error
}

// Jobs expands the experiment's grids into one concatenated job list.
func (e GridExperiment) Jobs() ([]Job, error) {
	var out []Job
	for _, g := range e.Grids {
		jobs, err := g.Jobs()
		if err != nil {
			return nil, err
		}
		out = append(out, jobs...)
	}
	return out, nil
}

// GridSelection is a resolved -exp choice: the selected experiments,
// their concatenated job list, and the bookkeeping to slice scheduler
// results back per experiment.
type GridSelection struct {
	Experiments []GridExperiment
	Jobs        []Job
	counts      []int // Jobs per experiment, aligned with Experiments
}

// ExperimentNames lists the catalogue's -exp tokens in canonical order
// (without "all"), for flag usage text.
func ExperimentNames() []string {
	return names(GridExperiments(Spec{}, 0, 0, 0))
}

func names(catalogue []GridExperiment) []string {
	out := make([]string, len(catalogue))
	for i, e := range catalogue {
		out[i] = e.Name
	}
	return out
}

// SelectGridExperiments filters the catalogue by an -exp token ("all"
// selects everything) and expands the chosen grids. A token matching no
// catalogue entry is an error naming the accepted ones.
func SelectGridExperiments(catalogue []GridExperiment, name string) (GridSelection, error) {
	var sel GridSelection
	for _, e := range catalogue {
		if name != "all" && name != e.Name {
			continue
		}
		js, err := e.Jobs()
		if err != nil {
			return GridSelection{}, fmt.Errorf("%s: %w", e.Name, err)
		}
		sel.Experiments = append(sel.Experiments, e)
		sel.counts = append(sel.counts, len(js))
		sel.Jobs = append(sel.Jobs, js...)
	}
	if len(sel.Experiments) == 0 {
		return GridSelection{}, fmt.Errorf("unknown experiment %q (have: %s, all)", name, strings.Join(names(catalogue), ", "))
	}
	return sel, nil
}

// Save folds each selected experiment over its slice of the results
// (which must align with Jobs, as a scheduler run over them returns)
// and writes its CSVs under outDir. saved, when non-nil, is called per
// experiment with its name and cell count.
func (s GridSelection) Save(outDir string, results []JobResult, saved func(name string, cells int)) error {
	if len(results) != len(s.Jobs) {
		return fmt.Errorf("experiment: %d results for %d selected jobs", len(results), len(s.Jobs))
	}
	off := 0
	for i, e := range s.Experiments {
		n := s.counts[i]
		if err := e.Save(outDir, results[off:off+n]); err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		if saved != nil {
			saved(e.Name, n)
		}
		off += n
	}
	return nil
}

// GridExperiments catalogues every paper experiment at the given scale
// parameters, in the harness's canonical order. Table 3 (storage
// accounting) and the event-driven latency validation run no training
// rounds: they are entries without grids whose Save computes the table
// from spec.
func GridExperiments(spec Spec, rounds, evalEvery int, target float64) []GridExperiment {
	return []GridExperiment{
		{
			Name:  "fig2a",
			Grids: []Grid{Fig2aGrid(spec, rounds, evalEvery)},
			Save: func(outDir string, res []JobResult) error {
				return trace.SaveCurvesCSV(filepath.Join(outDir, "fig2a.csv"), FoldCurves(res))
			},
		},
		{
			Name:  "fig2b",
			Grids: []Grid{Fig2bGrid(spec, rounds, evalEvery)},
			Save: func(outDir string, res []JobResult) error {
				return trace.SaveCurvesCSV(filepath.Join(outDir, "fig2b.csv"), FoldCurves(res))
			},
		},
		{
			Name:  "table1",
			Grids: []Grid{Fig2aGrid(spec, rounds, evalEvery)}, // same cells as fig2a; the scheduler dedups
			Save: func(outDir string, res []JobResult) error {
				curves := FoldCurves(res)
				if err := trace.SaveCurvesCSV(filepath.Join(outDir, "table1_curves.csv"), curves); err != nil {
					return err
				}
				return FoldTable1(curves, target).SaveCSV(filepath.Join(outDir, "table1.csv"))
			},
		},
		{
			Name:  "table2",
			Grids: []Grid{Table2Grid(spec, rounds)},
			Save: func(outDir string, res []JobResult) error {
				return FoldTable2(res).SaveCSV(filepath.Join(outDir, "table2.csv"))
			},
		},
		{
			Name: "table3",
			Save: func(outDir string, _ []JobResult) error {
				tbl, err := RunTable3(spec)
				if err != nil {
					return err
				}
				return tbl.SaveCSV(filepath.Join(outDir, "table3.csv"))
			},
		},
		{
			Name:  "cutlayer",
			Grids: []Grid{CutLayerGrid(spec, []int{1, 3, 6, 9}, rounds, evalEvery)},
			Save: func(outDir string, res []JobResult) error {
				tbl := trace.NewTable("ablation-cutlayer",
					"cut", "smashed_bytes_per_batch", "client_model_bytes", "round_latency_s", "final_accuracy")
				for _, x := range FoldCutLayer(res) {
					tbl.Add(trace.Row{
						"cut":                     x.Cut,
						"smashed_bytes_per_batch": x.SmashedBytes,
						"client_model_bytes":      x.ClientBytes,
						"round_latency_s":         fmt.Sprintf("%.4f", x.RoundLatency),
						"final_accuracy":          fmt.Sprintf("%.4f", x.FinalAccuracy),
					})
				}
				return tbl.SaveCSV(filepath.Join(outDir, "ablation_cutlayer.csv"))
			},
		},
		{
			Name: "grouping",
			Grids: []Grid{GroupingGrid(spec, DefaultGroupCounts(spec.Clients), []string{
				"round-robin", "random", "compute-balanced",
			}, rounds, evalEvery)},
			Save: func(outDir string, res []JobResult) error {
				tbl := trace.NewTable("ablation-grouping",
					"groups", "strategy", "round_latency_s", "final_accuracy")
				for _, x := range FoldGrouping(res) {
					tbl.Add(trace.Row{
						"groups":          x.Groups,
						"strategy":        x.Strategy,
						"round_latency_s": fmt.Sprintf("%.4f", x.RoundLatency),
						"final_accuracy":  fmt.Sprintf("%.4f", x.FinalAccuracy),
					})
				}
				return tbl.SaveCSV(filepath.Join(outDir, "ablation_grouping.csv"))
			},
		},
		{
			Name:  "resalloc",
			Grids: []Grid{AllocationGrid(spec, rounds)},
			Save: func(outDir string, res []JobResult) error {
				tbl := trace.NewTable("ablation-resalloc", "allocator", "round_latency_s")
				for _, x := range FoldAllocation(res) {
					tbl.Add(trace.Row{
						"allocator":       x.Allocator,
						"round_latency_s": fmt.Sprintf("%.4f", x.RoundLatency),
					})
				}
				return tbl.SaveCSV(filepath.Join(outDir, "ablation_resalloc.csv"))
			},
		},
		{
			Name:  "pipeline",
			Grids: []Grid{PipelineGrid(spec, rounds, evalEvery)},
			Save: func(outDir string, res []JobResult) error {
				tbl := trace.NewTable("ablation-pipeline", "pipelined", "round_latency_s", "final_accuracy")
				for _, x := range FoldPipelining(res) {
					tbl.Add(trace.Row{
						"pipelined":       x.Pipelined,
						"round_latency_s": fmt.Sprintf("%.4f", x.RoundLatency),
						"final_accuracy":  fmt.Sprintf("%.4f", x.FinalAccuracy),
					})
				}
				return tbl.SaveCSV(filepath.Join(outDir, "ablation_pipeline.csv"))
			},
		},
		{
			Name:  "quant",
			Grids: []Grid{QuantGrid(spec, rounds, evalEvery)},
			Save: func(outDir string, res []JobResult) error {
				tbl := trace.NewTable("ablation-quant", "quantized", "round_latency_s", "final_accuracy")
				for _, x := range FoldQuantization(res) {
					tbl.Add(trace.Row{
						"quantized":       x.Quantized,
						"round_latency_s": fmt.Sprintf("%.4f", x.RoundLatency),
						"final_accuracy":  fmt.Sprintf("%.4f", x.FinalAccuracy),
					})
				}
				return tbl.SaveCSV(filepath.Join(outDir, "ablation_quant.csv"))
			},
		},
		{
			Name:  "dropout",
			Grids: []Grid{DropoutGrid(spec, []float64{0, 0.1, 0.2, 0.3}, rounds, evalEvery)},
			Save: func(outDir string, res []JobResult) error {
				tbl := trace.NewTable("ablation-dropout", "dropout_prob", "round_latency_s", "final_accuracy")
				for _, x := range FoldDropout(res) {
					tbl.Add(trace.Row{
						"dropout_prob":    fmt.Sprintf("%.2f", x.DropoutProb),
						"round_latency_s": fmt.Sprintf("%.4f", x.RoundLatency),
						"final_accuracy":  fmt.Sprintf("%.4f", x.FinalAccuracy),
					})
				}
				return tbl.SaveCSV(filepath.Join(outDir, "ablation_dropout.csv"))
			},
		},
		{
			Name:  "noniid",
			Grids: []Grid{NonIIDGrid(spec, []float64{0.1, 1, 100}, rounds, evalEvery)},
			Save: func(outDir string, res []JobResult) error {
				tbl := trace.NewTable("ablation-noniid",
					"alpha", "scheme", "final_accuracy", "rounds_to_50pct", "reached")
				for _, x := range FoldNonIID(res) {
					tbl.Add(trace.Row{
						"alpha":           fmt.Sprintf("%g", x.Alpha),
						"scheme":          x.Scheme,
						"final_accuracy":  fmt.Sprintf("%.4f", x.FinalAccuracy),
						"rounds_to_50pct": x.RoundsToHalf,
						"reached":         x.ReachedHalf,
					})
				}
				return tbl.SaveCSV(filepath.Join(outDir, "ablation_noniid.csv"))
			},
		},
		{
			Name:  "popsample",
			Grids: []Grid{PopSampleGrid(spec, DefaultPopFractions(), []int{2, 6}, rounds, evalEvery)},
			Save: func(outDir string, res []JobResult) error {
				tbl := trace.NewTable("popsample",
					"fraction", "population", "cohort", "groups", "round_latency_s", "final_accuracy")
				for _, x := range FoldPopSample(res) {
					tbl.Add(trace.Row{
						"fraction":        fmt.Sprintf("%g", x.Fraction),
						"population":      x.Population,
						"cohort":          x.Cohort,
						"groups":          x.Groups,
						"round_latency_s": fmt.Sprintf("%.4f", x.RoundLatency),
						"final_accuracy":  fmt.Sprintf("%.4f", x.FinalAccuracy),
					})
				}
				return tbl.SaveCSV(filepath.Join(outDir, "popsample.csv"))
			},
		},
		{
			Name: "seeds",
			Grids: []Grid{
				SeedSweepGrid(spec, "gsfl", seedsPerScheme, rounds, evalEvery),
				SeedSweepGrid(spec, "sl", seedsPerScheme, rounds, evalEvery),
				SeedSweepGrid(spec, "fl", seedsPerScheme, rounds, evalEvery),
			},
			Save: func(outDir string, res []JobResult) error {
				tbl := trace.NewTable("seed-variance",
					"scheme", "seeds", "mean_acc", "std_acc", "worst_acc", "best_acc")
				for i := 0; i+seedsPerScheme <= len(res); i += seedsPerScheme {
					st := FoldSeedStats(res[i : i+seedsPerScheme])
					tbl.Add(trace.Row{
						"scheme":    st.Scheme,
						"seeds":     st.Seeds,
						"mean_acc":  fmt.Sprintf("%.4f", st.MeanAcc),
						"std_acc":   fmt.Sprintf("%.4f", st.StdAcc),
						"worst_acc": fmt.Sprintf("%.4f", st.WorstAcc),
						"best_acc":  fmt.Sprintf("%.4f", st.BestAcc),
					})
				}
				return tbl.SaveCSV(filepath.Join(outDir, "seed_variance.csv"))
			},
		},
		{
			Name:  "numeric",
			Grids: []Grid{NumericGrid(spec, env.NumericModes(), rounds, evalEvery)},
			Save: func(outDir string, res []JobResult) error {
				tbl := trace.NewTable("numeric-modes",
					"numeric", "round_latency_s", "final_accuracy")
				for _, x := range FoldNumeric(res) {
					tbl.Add(trace.Row{
						"numeric":         x.Mode,
						"round_latency_s": fmt.Sprintf("%.4f", x.RoundLatency),
						"final_accuracy":  fmt.Sprintf("%.4f", x.FinalAccuracy),
					})
				}
				return tbl.SaveCSV(filepath.Join(outDir, "numeric.csv"))
			},
		},
		{
			Name: "validate",
			Save: func(outDir string, _ []JobResult) error {
				res, err := RunValidationEventDriven(spec)
				if err != nil {
					return err
				}
				tbl := trace.NewTable("latency-model-validation",
					"analytic_s", "event_driven_s", "relative_gap")
				tbl.Add(trace.Row{
					"analytic_s":     fmt.Sprintf("%.4f", res.AnalyticSeconds),
					"event_driven_s": fmt.Sprintf("%.4f", res.EventDrivenSeconds),
					"relative_gap":   fmt.Sprintf("%+.4f", res.RelativeGap),
				})
				return tbl.SaveCSV(filepath.Join(outDir, "latency_model_validation.csv"))
			},
		},
	}
}

// seedsPerScheme is the seed-variance study's per-scheme seed count.
const seedsPerScheme = 3
