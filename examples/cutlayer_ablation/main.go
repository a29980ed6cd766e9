// cutlayer_ablation explores the paper's first future-work question:
// how does the choice of cut layer move the latency/accuracy trade-off?
//
// Deeper cuts shrink the smashed data (after pooling layers) but put
// more parameters and FLOPs on the resource-limited client; shallower
// cuts keep clients cheap but upload large activations every step.
//
//	go run ./examples/cutlayer_ablation
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"gsfl/env"
	"gsfl/sweep"
)

func main() {
	spec := env.TestSpec()
	spec.ImageSize = 16
	spec.TrainPerClient = 60

	// Static analysis first: what each cut implies, before any training.
	arch, err := env.NewArch(spec.Arch, env.ArchConfig{ImageSize: spec.ImageSize, Classes: 43})
	if err != nil {
		log.Fatal(err)
	}
	nLayers := len(arch.Build(rand.New(rand.NewSource(0))))
	fmt.Println("static cut-layer analysis (batch =", spec.Hyper.Batch, "):")
	fmt.Printf("%4s %22s %18s %16s %16s\n",
		"cut", "smashed bytes/batch", "client params B", "client kFLOPs", "server kFLOPs")
	for cut := 0; cut <= nLayers; cut++ {
		m := arch.NewSplit(rand.New(rand.NewSource(1)), cut)
		fmt.Printf("%4d %22d %18d %16d %16d\n",
			cut, m.SmashedBytes(spec.Hyper.Batch), m.ClientParamBytes(),
			m.ClientFwdFLOPs()/1000, m.ServerFwdFLOPs()/1000)
	}

	// Dynamic sweep: train GSFL briefly at several cuts and compare the
	// realized round latency.
	grid := sweep.Grid{
		Name: "cutlayer", Base: spec, Rounds: 8, EvalEvery: 4,
		Axes: sweep.Axes{Cuts: []int{1, 3, 6, 9}},
	}
	fmt.Println("\ntraining GSFL at each cut (8 rounds each)...")
	jobs, err := grid.Jobs()
	if err != nil {
		log.Fatal(err)
	}
	results, err := (&sweep.Scheduler{Jobs: 1}).Run(context.Background(), jobs, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%4s %16s %14s\n", "cut", "round latency", "accuracy")
	bestCut, bestLatency := 0, 0.0
	for i, r := range results {
		// The curve's last point carries the cumulative simulated latency.
		last := r.Curve.Points[len(r.Curve.Points)-1]
		latency := last.LatencySeconds / float64(r.Job.Rounds)
		fmt.Printf("%4d %15.4fs %13.2f%%\n", r.Job.Spec.Cut, latency, r.Curve.FinalAccuracy()*100)
		if i == 0 || latency < bestLatency {
			bestCut, bestLatency = r.Job.Spec.Cut, latency
		}
	}
	fmt.Printf("\nfastest round latency at cut %d — the latency-optimal split for this fleet\n", bestCut)
}
