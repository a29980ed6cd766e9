// Command gsfl-loadgen measures what the GSFL transport sustains: it
// starts one access point plus a fleet of protocol-conformant synthetic
// clients over loopback TCP, drives full GSFL rounds, and emits a JSON
// report with sustained clients/round, round throughput, and byte
// counts.
//
// Synthetic clients replay pre-encoded frames instead of training, so
// the measured ceiling is the transport itself — framing, per-group
// scheduling, deadlines, straggler fallback, aggregation — not model
// math. Fault fractions wrap part of the fleet in deterministic fault
// profiles (mid-round stalls, mid-frame drops, per-write delays) to
// exercise the straggler and slot-refill paths at scale; -spare-frac
// holds back part of the fleet as refill spares.
//
// Examples:
//
//	gsfl-loadgen -clients 1000 -groups 25 -rounds 5 -deadline 10s -out tcp.json
//	gsfl-loadgen -clients 200 -groups 8 -rounds 3 -stall-frac 0.05 -spare-frac 0.1 \
//	    -straggler reuse-last -deadline 2s
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gsfl/cliutil"
	"gsfl/env"
	"gsfl/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gsfl-loadgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gsfl-loadgen", flag.ContinueOnError)
	var (
		clients   = fs.Int("clients", 1000, "synthetic fleet size")
		groups    = fs.Int("groups", 25, "number of concurrent relay chains (M)")
		rounds    = fs.Int("rounds", 5, "rounds to drive")
		steps     = fs.Int("steps", 2, "mini-batches per client turn")
		batch     = fs.Int("batch", 8, "mini-batch size shaping each frame")
		seed      = fs.Int64("seed", 1, "reproduces the run, fault schedules included")
		deadline  = fs.Duration("deadline", 10*time.Second, "per-round deadline (0 = none; not recommended with faults)")
		straggler = fs.String("straggler", "drop",
			"straggler fallback policy: "+strings.Join(env.StragglerPolicies(), "|"))
		stallFrac = fs.Float64("stall-frac", 0, "fleet fraction that stalls mid-round")
		dropFrac  = fs.Float64("drop-frac", 0, "fleet fraction that drops mid-frame")
		delayFrac = fs.Float64("delay-frac", 0, "fleet fraction with delayed writes")
		delay     = fs.Duration("delay", time.Millisecond, "per-write latency for the delay fraction")
		spareFrac = fs.Float64("spare-frac", 0, "fleet fraction held back as slot-refill spares")
		quant     = fs.Bool("quant", false, "quantize transfer frames to 8 bits")
		metrics   = fs.String("metrics", "", "serve AP transport counters over HTTP on this address")
		out       = fs.String("out", "", "write the JSON report here (default: stdout)")
		quiet     = fs.Bool("quiet", false, "suppress per-round progress on stderr")
		list      = fs.Bool("list", false, "list the registered extension points, then exit")
	)
	var obsFlags cliutil.ObsFlags
	obsFlags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		cliutil.PrintRegistries(os.Stdout)
		return nil
	}
	tracer, obsStop, err := obsFlags.Start(obs.ClockWall)
	if err != nil {
		return err
	}

	cfg := env.LoadGenConfig{
		Clients:        *clients,
		Groups:         *groups,
		Rounds:         *rounds,
		StepsPerClient: *steps,
		Batch:          *batch,
		Seed:           *seed,
		RoundDeadline:  *deadline,
		Straggler:      *straggler,
		StallFrac:      *stallFrac,
		DropFrac:       *dropFrac,
		DelayFrac:      *delayFrac,
		Delay:          *delay,
		SpareFrac:      *spareFrac,
		Quantize:       *quant,
		MetricsAddr:    *metrics,
		Tracer:         tracer,
	}
	if !*quiet {
		round := 0
		cfg.OnRound = func(s env.RoundStats) {
			round++
			fmt.Fprintf(os.Stderr, "round %3d/%d  wall %8s  participants %4d  stragglers %d  skipped %d  refilled %d\n",
				round, *rounds, s.Duration.Round(time.Millisecond),
				s.Participants, s.Stragglers, s.Skipped, s.Refilled)
		}
		fmt.Fprintf(os.Stderr, "driving %d synthetic clients in %d groups for %d rounds (policy %s)...\n",
			*clients, *groups, *rounds, *straggler)
	}

	rep, err := env.RunLoadGen(cfg)
	if serr := obsStop(); serr != nil && err == nil {
		err = serr
	}
	if err != nil {
		return err
	}

	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(b)
		return err
	}
	if err := os.WriteFile(*out, b, 0o644); err != nil {
		return err
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "report written to %s\n", *out)
	}
	return nil
}
