// Command gsfl-bench regenerates the paper's figures and tables as CSV
// files under an output directory (default ./results).
//
// Experiments (see DESIGN.md's experiment index):
//
//	fig2a    accuracy vs rounds for CL/SL/GSFL/FL     -> fig2a.csv
//	fig2b    accuracy vs latency for GSFL/SL          -> fig2b.csv
//	table1   rounds-to-target convergence comparison  -> table1.csv
//	table2   per-round latency breakdown per scheme   -> table2.csv
//	table3   edge-server storage GSFL vs SplitFed     -> table3.csv
//	cutlayer cut-layer ablation (A1)                  -> ablation_cutlayer.csv
//	grouping group count/strategy ablation (A2)       -> ablation_grouping.csv
//	resalloc bandwidth-allocation ablation (A3)       -> ablation_resalloc.csv
//	pipeline pipelined-turn ablation (P)              -> ablation_pipeline.csv
//	quant    8-bit transfer ablation (Q)              -> ablation_quant.csv
//	dropout  client-dropout robustness (D)            -> ablation_dropout.csv
//	noniid   data-heterogeneity sweep (N)             -> ablation_noniid.csv
//	popsample population-sampling study (PR 7)        -> popsample.csv
//	seeds    seed-variance study (S)                  -> seed_variance.csv
//	numeric  exact-vs-fast kernel comparison (PR 8)   -> numeric.csv
//	validate analytic vs event-driven latency (V)     -> latency_model_validation.csv
//	all      everything above
//
// Every experiment except table3/validate is a job grid executed by the
// gsfl/sweep scheduler: -jobs N trains N grid cells concurrently
// (duplicated cells across experiments run once), and the CSVs are
// byte-identical for every N — including N=1, which reproduces the
// historical serial harness exactly.
//
// Example:
//
//	gsfl-bench -exp fig2b -scale medium -out results/
//	gsfl-bench -exp all -scale test -jobs 8
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gsfl/cliutil"
	"gsfl/obs"
	"gsfl/sim"
	"gsfl/sweep"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gsfl-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gsfl-bench", flag.ContinueOnError)
	var (
		exp    = fs.String("exp", "all", "experiment: fig2a|fig2b|table1|table2|table3|cutlayer|grouping|resalloc|pipeline|quant|dropout|noniid|popsample|seeds|numeric|validate|all")
		scale  = fs.String("scale", "test", "scale: test|medium|paper")
		outDir = fs.String("out", "results", "output directory")
		rounds = fs.Int("rounds", 0, "override training rounds (0 = scale default)")
		jobs   = fs.Int("jobs", 1, "grid cells trained concurrently (0 = GOMAXPROCS); CSVs are byte-identical for every value")
	)
	var env cliutil.EnvFlags
	env.Register(fs)
	var obsFlags cliutil.ObsFlags
	obsFlags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc, err := cliutil.ParseScale(*scale)
	if err != nil {
		return err
	}
	spec, r, evalEvery, target := sc.Spec, sc.Rounds, sc.EvalEvery, sc.Target
	if *rounds > 0 {
		r = *rounds
	}
	if err := env.Apply(&spec); err != nil {
		return err
	}

	// Grid-backed experiments: expand the selected grids, schedule every
	// cell once (IDs deduplicate overlaps like table1 ⊂ fig2a), then fold
	// each experiment's slice of results into its CSVs.
	catalogue := sweep.GridExperiments(spec, r, evalEvery, target)
	known := map[string]bool{"table3": true, "validate": true, "all": true}
	for _, e := range catalogue {
		known[e.Name] = true
	}
	if !known[*exp] {
		return fmt.Errorf("unknown experiment %q", *exp)
	}

	sel, err := sweep.SelectGridExperiments(catalogue, *exp)
	if err != nil {
		return err
	}
	tracer, obsStop, err := obsFlags.Start(obs.ClockWall)
	if err != nil {
		return err
	}
	defer func() {
		if err := obsStop(); err != nil {
			fmt.Fprintln(os.Stderr, "gsfl-bench:", err)
		}
	}()
	if len(sel.Jobs) > 0 {
		sched := &sweep.Scheduler{Jobs: *jobs, Workers: env.Workers, Tracer: tracer}
		start := time.Now()
		results, err := sched.Run(context.Background(), sel.Jobs, nil)
		if err != nil {
			return err
		}
		fmt.Printf("trained %d grid cells in %v (-jobs %d)\n",
			len(sel.Jobs), time.Since(start).Round(time.Millisecond), *jobs)
		if err := sel.Save(*outDir, results, func(name string, cells int) {
			fmt.Printf("%-10s saved (%d cells)\n", name, cells)
		}); err != nil {
			return err
		}
	}

	// table3/validate run outside the scheduler, on the full budget.
	sim.SetWorkers(env.Workers)

	run := func(name string, f func() error) error {
		if *exp != "all" && *exp != name {
			return nil
		}
		start := time.Now()
		if err := f(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("%-10s done in %v\n", name, time.Since(start).Round(time.Millisecond))
		return nil
	}

	if err := run("table3", func() error {
		tbl, err := sweep.RunTable3(spec)
		if err != nil {
			return err
		}
		return tbl.SaveCSV(filepath.Join(*outDir, "table3.csv"))
	}); err != nil {
		return err
	}

	return run("validate", func() error {
		res, err := sweep.RunValidationEventDriven(spec)
		if err != nil {
			return err
		}
		tbl := sweep.NewTable("latency-model-validation",
			"analytic_s", "event_driven_s", "relative_gap")
		tbl.Add(sweep.Row{
			"analytic_s":     fmt.Sprintf("%.4f", res.AnalyticSeconds),
			"event_driven_s": fmt.Sprintf("%.4f", res.EventDrivenSeconds),
			"relative_gap":   fmt.Sprintf("%+.4f", res.RelativeGap),
		})
		return tbl.SaveCSV(filepath.Join(*outDir, "latency_model_validation.csv"))
	})
}
