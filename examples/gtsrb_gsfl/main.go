// gtsrb_gsfl reproduces the paper's Section III evaluation at a reduced
// scale: it trains all four schemes (CL, SL, GSFL, FL) on the synthetic
// GTSRB task, prints the Fig. 2(a)/2(b) series, and writes them as CSV
// under results/example/.
//
//	go run ./examples/gtsrb_gsfl
//
// This takes a few minutes; shrink -rounds for a faster look.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"gsfl/env"
	"gsfl/sim"
	"gsfl/sweep"
)

func main() {
	rounds := flag.Int("rounds", 24, "training rounds per scheme")
	flag.Parse()

	// Paper structure (30 clients, 6 groups) at reduced image scale so
	// the example finishes in minutes on a laptop CPU.
	spec := env.PaperSpec()
	spec.ImageSize = 12
	spec.TrainPerClient = 60
	spec.TestPerClass = 3
	spec.Hyper.StepsPerClient = 2
	spec.Hyper.Batch = 8

	fmt.Printf("running Fig. 2(a): CL vs SL vs GSFL vs FL, %d rounds each...\n", *rounds)
	grid := sweep.Grid{
		Name: "fig2a", Base: spec, Rounds: *rounds, EvalEvery: 4,
		Axes: sweep.Axes{Schemes: []string{"cl", "sl", "gsfl", "fl"}},
	}
	jobs, err := grid.Jobs()
	if err != nil {
		log.Fatal(err)
	}
	results, err := (&sweep.Scheduler{Jobs: 1}).Run(context.Background(), jobs, nil)
	if err != nil {
		log.Fatal(err)
	}
	curves := make([]*sim.Curve, len(results))
	for i, r := range results {
		curves[i] = r.Curve
	}

	fmt.Printf("\n%-6s %8s %14s %10s\n", "scheme", "round", "latency(s)", "accuracy")
	for _, c := range curves {
		for _, p := range c.Points {
			fmt.Printf("%-6s %8d %14.2f %9.2f%%\n", c.Scheme, p.Round, p.LatencySeconds, p.Accuracy*100)
		}
	}

	// Headline numbers, mirroring the paper's summary sentences.
	byName := map[string]*sim.Curve{}
	for _, c := range curves {
		byName[c.Scheme] = c
	}
	target := 0.98 * byName["gsfl"].BestAccuracy() // near-converged target
	if s, ok := sim.SpeedupVsRounds(byName["gsfl"], byName["fl"], target); ok {
		fmt.Printf("\nGSFL convergence speedup vs FL (rounds to %.0f%%): %.0f%%\n", target*100, s*100)
	} else {
		fmt.Printf("\nFL did not reach GSFL's near-converged accuracy (%.0f%%) within %d rounds\n",
			target*100, *rounds)
	}
	if red, ok := sim.DelayReduction(byName["gsfl"], byName["sl"], target); ok {
		fmt.Printf("GSFL delay reduction vs SL at the same accuracy: %.2f%% (paper: 31.45%%)\n", red*100)
	}

	if err := sim.SaveCurvesCSV("results/example/fig2a.csv", curves); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nseries written to results/example/fig2a.csv")
}
