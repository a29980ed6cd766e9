package experiment

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"gsfl/env"
	"gsfl/internal/metrics"
	"gsfl/internal/model"
	"gsfl/internal/schemes"
	"gsfl/internal/simnet"
)

// This file is the catalogue of the paper's figures, tables, and
// ablations (GridExperiments): each entry is a row of data — the grids
// whose cells it trains and the CSV files, column by column, it derives
// from their results. cmd/gsfl-sweep -exp runs the catalogue's jobs
// through gsfl/sweep's scheduler (or a fleet) and GridExperiment.Save
// renders the rows; results come back in job order, so any -jobs value
// produces byte-identical CSVs.

// GridExperiment is one named figure/table: the cells it trains and the
// files it derives from them. The catalogue of these (GridExperiments)
// is the single description of every paper artifact.
type GridExperiment struct {
	// Name is the -exp token ("fig2a", "grouping", …).
	Name string
	// Grids expand (concatenated, in order) into the experiment's jobs.
	// Most experiments are a single grid; the seed-variance study is one
	// seed grid per scheme; table3 and validate train nothing and have
	// none.
	Grids []Grid
	// Outputs are the CSV files derived from the jobs' results.
	Outputs []Output
}

// Output is one CSV file of an experiment.
type Output struct {
	// File is the name under the output directory.
	File string
	// Header names the table's columns. A nil Header means the file is
	// the long-format curves CSV of the experiment's jobs.
	Header []string
	// Rows derives the table's cells from the results (in job order,
	// aligned with Jobs()), one row per record and one cell per Header
	// column. Cells are written through fmt.Sprint, so a column that
	// needs a fixed precision returns the formatted string; nil is an
	// empty cell.
	Rows func(res []JobResult) ([][]any, error)
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

// Save writes the experiment's outputs under outDir from its jobs'
// results.
func (e GridExperiment) Save(outDir string, res []JobResult) error {
	for _, o := range e.Outputs {
		path := filepath.Join(outDir, o.File)
		if o.Header == nil {
			curves := make([]*metrics.Curve, len(res))
			for i, r := range res {
				curves[i] = r.Curve
			}
			if err := metrics.SaveCurvesCSV(path, curves); err != nil {
				return err
			}
			continue
		}
		rows, err := o.Rows(res)
		if err != nil {
			return err
		}
		if err := saveTableCSV(path, o.Header, rows); err != nil {
			return err
		}
	}
	return nil
}

// saveTableCSV writes a header row and one record per row to path,
// creating parent directories. Cells render through fmt.Sprint; a nil
// cell is empty. Every row must be as wide as the header.
func saveTableCSV(path string, header []string, rows [][]any) error {
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	cw.Write(header) // a bytes.Buffer does not fail; Flush's error covers it
	rec := make([]string, len(header))
	for i, row := range rows {
		if len(row) != len(header) {
			return fmt.Errorf("experiment: table row %d has %d cells for %d columns", i, len(row), len(header))
		}
		for k, v := range row {
			rec[k] = ""
			if v != nil {
				rec[k] = fmt.Sprint(v)
			}
		}
		cw.Write(rec)
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("experiment: writing table: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("experiment: creating directory: %w", err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o666); err != nil {
		return fmt.Errorf("experiment: writing %s: %w", path, err)
	}
	return nil
}

// column is one named column of a per-job table: how its cell derives
// from one job's result.
type column struct {
	name string
	cell func(r JobResult) any
}

func col(name string, cell func(r JobResult) any) column { return column{name, cell} }

// perJob is the output of a table with a row per job: the columns'
// names are its header, each column applied to each result its cells.
func perJob(file string, cols ...column) Output {
	header := make([]string, len(cols))
	for k, c := range cols {
		header[k] = c.name
	}
	return Output{File: file, Header: header, Rows: func(res []JobResult) ([][]any, error) {
		rows := make([][]any, len(res))
		for i, r := range res {
			rows[i] = make([]any, len(cols))
			for k, c := range cols {
				rows[i][k] = c.cell(r)
			}
		}
		return rows, nil
	}}
}

func f4(x float64) string { return fmt.Sprintf("%.4f", x) }

// The columns most tables share.
var (
	schemeCol = col("scheme", func(r JobResult) any { return r.Job.Scheme })
	groupsCol = col("groups", func(r JobResult) any { return r.Job.Spec.Groups })
	// roundLatency is the mean simulated seconds per round, from the
	// curve's final cumulative latency (0 when the curve is empty).
	roundLatency = col("round_latency_s", func(r JobResult) any {
		last := 0.0
		if n := len(r.Curve.Points); n > 0 {
			last = r.Curve.Points[n-1].LatencySeconds
		}
		return f4(last / float64(r.Job.Rounds))
	})
	finalAccuracy = col("final_accuracy", func(r JobResult) any { return f4(r.Curve.FinalAccuracy()) })
)

// perRound is a quantity of the job's summed ledger as its mean over
// the rounds.
func perRound(name string, of func(l *simnet.Ledger) float64) column {
	return col(name, func(r JobResult) any { return f4(of(&r.Ledger) * (1 / float64(r.Job.Rounds))) })
}

// ledgerMean is one latency component's per-round mean.
func ledgerMean(name string, c simnet.Component) column {
	return perRound(name, func(l *simnet.Ledger) float64 { return l.Get(c) })
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

// table1Rows derives the convergence-speed table from Fig. 2(a)'s
// curves: rounds to target accuracy per scheme and the speedup of GSFL
// over each. A scheme that never reaches the target leaves both cells
// empty.
func table1Rows(target float64) func([]JobResult) ([][]any, error) {
	return func(res []JobResult) ([][]any, error) {
		var gsflCurve *metrics.Curve
		for _, r := range res {
			if r.Curve.Scheme == "gsfl" {
				gsflCurve = r.Curve
			}
		}
		var rows [][]any
		for _, r := range res {
			row := []any{r.Curve.Scheme, target, nil, false, nil}
			if n, ok := r.Curve.RoundsToAccuracy(target); ok {
				row[2], row[3] = n, true
			}
			if s, ok := metrics.SpeedupVsRounds(gsflCurve, r.Curve, target); ok {
				row[4] = fmt.Sprintf("%.2f", s)
			}
			rows = append(rows, row)
		}
		return rows, nil
	}
}

// seedsPerScheme is the seed-variance study's per-scheme seed count.
const seedsPerScheme = 3

// seedGrid reruns one scheme across seedsPerScheme seeds spaced as the
// historical seed-variance study spaced them.
func seedGrid(spec Spec, scheme string, rounds, evalEvery int) Grid {
	sv := make([]int64, seedsPerScheme)
	for k := range sv {
		sv[k] = spec.Seed + int64(1000*k)
	}
	return Grid{
		Name: "seeds-" + scheme, Base: spec, Rounds: rounds, EvalEvery: evalEvery,
		Axes: Axes{Seeds: sv, Schemes: []string{scheme}},
	}
}

// seedStatsRows summarizes each scheme's final accuracy across its
// seeds — the variance bar a credible reproduction publishes alongside
// point estimates. The results are the seed grids' jobs concatenated,
// seedsPerScheme per scheme.
func seedStatsRows(res []JobResult) ([][]any, error) {
	var rows [][]any
	for ; len(res) >= seedsPerScheme; res = res[seedsPerScheme:] {
		worst, best, sum := math.Inf(1), math.Inf(-1), 0.0
		for _, r := range res[:seedsPerScheme] {
			a := r.Curve.FinalAccuracy()
			sum += a
			worst, best = math.Min(worst, a), math.Max(best, a)
		}
		mean := sum / seedsPerScheme
		ss := 0.0
		for _, r := range res[:seedsPerScheme] {
			d := r.Curve.FinalAccuracy() - mean
			ss += d * d
		}
		rows = append(rows, []any{
			res[0].Job.Scheme, seedsPerScheme, f4(mean), f4(math.Sqrt(ss / seedsPerScheme)), f4(worst), f4(best),
		})
	}
	return rows, nil
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

// popMembersPerSlot sizes the popsample population relative to the slot
// count; with its fraction sweep the largest cohort exactly fills the
// slots.
const popMembersPerSlot = 4

// GridExperiments catalogues every paper experiment at the given scale
// parameters, in the harness's canonical order. Adding an experiment is
// adding a row here. Cells shared between entries (table1 and fig2b
// repeat fig2a's, every ablation contains the base GSFL cell) hash to
// the same job ID, so a sweep running several entries trains them once.
func GridExperiments(spec Spec, rounds, evalEvery int, target float64) []GridExperiment {
	grid := func(name string, evalEvery int, axes Axes) []Grid {
		return []Grid{{Name: name, Base: spec, Rounds: rounds, EvalEvery: evalEvery, Axes: axes}}
	}
	// Latency-only tables never read accuracy, so their cells evaluate
	// once, after the final round (evaluation perturbs neither training
	// numerics nor latency).
	latencyOnly := rounds
	fig2a := grid("fig2a", evalEvery, Axes{Schemes: []string{"cl", "sl", "gsfl", "fl"}})
	// The popsample study puts a persistent population (PR 7) of a fixed
	// multiple of the slot count behind the slots; members churn through
	// the "onoff" availability trace. Fractions are relative to the
	// population, so they span cohorts from a handful of clients up to
	// every slot.
	popSpec := spec
	popSpec.Population, popSpec.AvailTrace = popMembersPerSlot*spec.Clients, "onoff"
	energy := simnet.DefaultEnergyModel()

	return []GridExperiment{
		{Name: "fig2a", Grids: fig2a, Outputs: []Output{{File: "fig2a.csv"}}},
		{
			Name:    "fig2b",
			Grids:   grid("fig2b", evalEvery, Axes{Schemes: []string{"gsfl", "sl"}}),
			Outputs: []Output{{File: "fig2b.csv"}},
		},
		{
			Name: "table1", Grids: fig2a,
			Outputs: []Output{
				{
					File:   "table1.csv",
					Header: []string{"scheme", "target_accuracy", "rounds_to_target", "reached", "speedup_vs_scheme_for_gsfl"},
					Rows:   table1Rows(target),
				},
				{File: "table1_curves.csv"},
			},
		},
		{
			// Per-round latency and energy breakdown of all five schemes.
			Name:  "table2",
			Grids: grid("table2", latencyOnly, Axes{Schemes: []string{"gsfl", "sl", "fl", "sfl", "cl"}}),
			Outputs: []Output{perJob("table2.csv", schemeCol,
				ledgerMean("client_compute_s", simnet.ClientCompute), ledgerMean("uplink_s", simnet.Uplink),
				ledgerMean("server_compute_s", simnet.ServerCompute), ledgerMean("downlink_s", simnet.Downlink),
				ledgerMean("relay_s", simnet.Relay), ledgerMean("aggregation_s", simnet.Aggregation),
				perRound("total_s", (*simnet.Ledger).Total),
				perRound("client_energy_J", energy.ClientEnergyJ), perRound("server_energy_J", energy.ServerEnergyJ))},
		},
		{
			// Server-side storage, GSFL's M replicas against SplitFed's N;
			// trains nothing.
			Name: "table3",
			Outputs: []Output{{
				File:   "table3.csv",
				Header: []string{"scheme", "server_replicas", "server_storage_bytes"},
				Rows:   func([]JobResult) ([][]any, error) { return RunTable3(spec) },
			}},
		},
		{
			// A1: the split index (future work §IV) against smashed-data
			// size, client-model size, round latency and accuracy.
			Name:  "cutlayer",
			Grids: grid("cutlayer", evalEvery, Axes{Cuts: []int{1, 3, 6, 9}}),
			Outputs: []Output{perJob("ablation_cutlayer.csv",
				col("cut", func(r JobResult) any { return r.Job.Spec.Cut }),
				col("smashed_bytes_per_batch", func(r JobResult) any {
					return probeSplit(r.Job.Spec).SmashedBytes(r.Job.Spec.Hyper.Batch)
				}),
				col("client_model_bytes", func(r JobResult) any { return probeSplit(r.Job.Spec).ClientParamBytes() }),
				roundLatency, finalAccuracy)},
		},
		{
			// A2: group count × grouping strategy, groups outermost.
			Name: "grouping",
			Grids: grid("grouping", evalEvery, Axes{
				Groups:     DefaultGroupCounts(spec.Clients),
				Strategies: []string{"round-robin", "random", "compute-balanced"},
			}),
			Outputs: []Output{perJob("ablation_grouping.csv", groupsCol,
				col("strategy", func(r JobResult) any { return r.Job.Spec.Strategy }),
				roundLatency, finalAccuracy)},
		},
		{
			// A3: the bandwidth allocation policy. TotalSeconds is used
			// rather than the curve (the cells never needed accuracy); it
			// keeps the floating-point summation order of the historical
			// per-round accumulation.
			Name:  "resalloc",
			Grids: grid("resalloc", latencyOnly, Axes{Allocators: []string{"uniform", "proportional-fair", "latency-min"}}),
			Outputs: []Output{perJob("ablation_resalloc.csv",
				col("allocator", func(r JobResult) any { return r.Job.Spec.Alloc }),
				col("round_latency_s", func(r JobResult) any { return f4(r.TotalSeconds / float64(r.Job.Rounds)) }))},
		},
		{
			// GSFL without and with communication/computation overlap (the
			// "parallel design" of the paper's reference [2]): numerics are
			// identical, only the latency model changes.
			Name:  "pipeline",
			Grids: grid("pipeline", evalEvery, Axes{Pipelined: []bool{false, true}}),
			Outputs: []Output{perJob("ablation_pipeline.csv",
				col("pipelined", func(r JobResult) any { return r.Job.Spec.Pipelined }),
				roundLatency, finalAccuracy)},
		},
		{
			// float32 wire against 8-bit quantized smashed-data/gradient
			// transfers: 4x less traffic versus the precision loss.
			Name:  "quant",
			Grids: grid("quant", evalEvery, Axes{Quantized: []bool{false, true}}),
			Outputs: []Output{perJob("ablation_quant.csv",
				col("quantized", func(r JobResult) any { return r.Job.Spec.Hyper.QuantizeTransfers }),
				roundLatency, finalAccuracy)},
		},
		{
			// Robustness to per-round client unavailability.
			Name:  "dropout",
			Grids: grid("dropout", evalEvery, Axes{Dropouts: []float64{0, 0.1, 0.2, 0.3}}),
			Outputs: []Output{perJob("ablation_dropout.csv",
				col("dropout_prob", func(r JobResult) any { return fmt.Sprintf("%.2f", r.Job.Spec.DropoutProb) }),
				roundLatency, finalAccuracy)},
		},
		{
			// Data heterogeneity: Dirichlet alpha (small = highly skewed)
			// × {gsfl, fl}, alphas outermost.
			Name:  "noniid",
			Grids: grid("noniid", evalEvery, Axes{Alphas: []float64{0.1, 1, 100}, Schemes: []string{"gsfl", "fl"}}),
			Outputs: []Output{perJob("ablation_noniid.csv",
				col("alpha", func(r JobResult) any { return fmt.Sprintf("%g", r.Job.Spec.Alpha) }),
				schemeCol, finalAccuracy,
				col("rounds_to_50pct", func(r JobResult) any { n, _ := r.Curve.RoundsToAccuracy(0.5); return n }),
				col("reached", func(r JobResult) any { _, ok := r.Curve.RoundsToAccuracy(0.5); return ok }))},
		},
		{
			// Per-round sampling fraction × group count over popSpec.
			Name: "popsample",
			Grids: []Grid{{
				Name: "popsample", Base: popSpec, Rounds: rounds, EvalEvery: evalEvery,
				Axes: Axes{SampleFractions: []float64{0.05, 0.1, 0.25}, Groups: []int{2, 6}},
			}},
			Outputs: []Output{perJob("popsample.csv",
				col("fraction", func(r JobResult) any { return fmt.Sprintf("%g", r.Job.Spec.SampleFraction) }),
				col("population", func(r JobResult) any { return r.Job.Spec.Population }),
				col("cohort", func(r JobResult) any { return r.Job.Spec.CohortSize() }),
				groupsCol, roundLatency, finalAccuracy)},
		},
		{
			Name: "seeds",
			Grids: []Grid{
				seedGrid(spec, "gsfl", rounds, evalEvery),
				seedGrid(spec, "sl", rounds, evalEvery),
				seedGrid(spec, "fl", rounds, evalEvery),
			},
			Outputs: []Output{{
				File:   "seed_variance.csv",
				Header: []string{"scheme", "seeds", "mean_acc", "std_acc", "worst_acc", "best_acc"},
				Rows:   seedStatsRows,
			}},
		},
		{
			// The base GSFL cell under each registered numeric mode (PR 8).
			// The exact-mode cell canonicalizes to a numeric-free spec, so it
			// shares its job ID — and its sweep-store entry — with the rest
			// of the catalogue; only non-default modes add cells. Both
			// derived columns are simulation-deterministic, never host
			// wall-clock, so the CSV is identical at any -jobs value even
			// though the cells ran under different kernels.
			Name:  "numeric",
			Grids: grid("numeric", evalEvery, Axes{Numerics: env.NumericModes()}),
			Outputs: []Output{perJob("numeric.csv",
				col("numeric", func(r JobResult) any { mode, _ := env.CanonicalNumericMode(r.Job.Spec.Numeric); return mode }),
				roundLatency, finalAccuracy)},
		},
		{
			// Analytic latency model against event-driven processor
			// sharing; trains nothing.
			Name: "validate",
			Outputs: []Output{{
				File:   "latency_model_validation.csv",
				Header: []string{"analytic_s", "event_driven_s", "relative_gap"},
				Rows: func([]JobResult) ([][]any, error) {
					v, err := RunValidationEventDriven(spec)
					if err != nil {
						return nil, err
					}
					return [][]any{{f4(v.AnalyticSeconds), f4(v.EventDrivenSeconds), fmt.Sprintf("%+.4f", v.RelativeGap)}}, nil
				},
			}},
		},
	}
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

// Save renders each selected experiment from its slice of the results
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
