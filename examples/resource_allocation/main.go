// resource_allocation explores the paper's final future-work question:
// how should the AP divide the shared wireless bandwidth among the M
// concurrently transmitting groups?
//
// Three policies are compared on GSFL round latency:
//
//   - uniform:           equal spectrum per active client
//
//   - proportional-fair: spectrum ∝ spectral efficiency (max throughput)
//
//   - latency-min:       spectrum ∝ 1/efficiency (equalize finish times,
//     minimizing the max — what a synchronized round actually waits on)
//
//     go run ./examples/resource_allocation
package main

import (
	"context"
	"fmt"
	"log"

	"gsfl/env"
	"gsfl/sweep"
)

func main() {
	spec := env.TestSpec()
	spec.Clients = 12
	spec.Groups = 4
	spec.Device.N = spec.Clients
	spec.ImageSize = 12
	spec.TrainPerClient = 40

	// First show what the policies do to a single batch of concurrent
	// uplink transfers (one client per group).
	ch := env.NewChannel(env.DefaultWirelessConfig(), spec.Clients, 7)
	active := []int{0, 3, 6, 9}
	fmt.Println("bandwidth split across 4 concurrent uplink clients (20 MHz budget):")
	for _, name := range env.Allocators() {
		alloc, err := env.NewAllocator(name)
		if err != nil {
			log.Fatal(err)
		}
		ws := alloc.Allocate(ch, active, 20e6, true)
		fmt.Printf("  %-18s", alloc.Name())
		for i, w := range ws {
			fmt.Printf("  client%02d=%5.2fMHz", active[i], w/1e6)
		}
		fmt.Println()
	}

	// Then measure realized GSFL round latency under each policy.
	fmt.Println("\nGSFL mean round latency per policy (6 rounds):")
	grid := sweep.Grid{
		Name: "resalloc", Base: spec, Rounds: 6, EvalEvery: 6,
		Axes: sweep.Axes{Allocators: []string{"uniform", "proportional-fair", "latency-min"}},
	}
	jobs, err := grid.Jobs()
	if err != nil {
		log.Fatal(err)
	}
	results, err := (&sweep.Scheduler{Jobs: 1}).Run(context.Background(), jobs, nil)
	if err != nil {
		log.Fatal(err)
	}
	best, bestLatency := "", 0.0
	for i, r := range results {
		latency := r.TotalSeconds / float64(r.Job.Rounds)
		fmt.Printf("  %-18s %.4fs\n", r.Job.Spec.Alloc, latency)
		if i == 0 || latency < bestLatency {
			best, bestLatency = r.Job.Spec.Alloc, latency
		}
	}
	fmt.Printf("\nbest policy for this fleet: %s\n", best)
}
