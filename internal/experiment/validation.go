package experiment

import (
	"context"
	"fmt"

	"gsfl/env"
	"gsfl/internal/gsfl"
	"gsfl/internal/simnet"
)

// ValidationResult compares the analytic GSFL round-latency model
// against event-driven processor sharing (experiment V).
type ValidationResult struct {
	// AnalyticSeconds is the position-synchronized model's round latency.
	AnalyticSeconds float64
	// EventDrivenSeconds is the processor-sharing makespan of the same
	// round's task chains.
	EventDrivenSeconds float64
	// RelativeGap is (analytic - eventDriven) / eventDriven.
	RelativeGap float64
}

// RunValidationEventDriven trains one GSFL round over a fading-free copy
// of the spec's world, priced by the analytic model every figure uses,
// and replays the chains that round charged (Trainer.RoundChains)
// through simnet.RunChains, where groups desynchronize and the spectrum
// is re-divided at every task boundary; aggregation is the round's own
// in both. A positive gap means the analytic model, which assumes
// contention for whole positions, over-estimates. A round in which no
// group trains is an error.
func RunValidationEventDriven(spec Spec) (ValidationResult, error) {
	// Fading and outages off: both models must price identical physics.
	spec.Wireless.FadingJitter = 0
	spec.Wireless.OutageProb = 0

	world, err := env.Build(spec)
	if err != nil {
		return ValidationResult{}, err
	}
	opts, err := spec.SchemeOptions()
	if err != nil {
		return ValidationResult{}, err
	}
	tr, err := gsfl.New(world, opts)
	if err != nil {
		return ValidationResult{}, err
	}
	led, err := tr.Round(context.Background())
	if err != nil {
		return ValidationResult{}, fmt.Errorf("experiment: analytic round: %w", err)
	}
	chains := tr.RoundChains()
	if len(chains) == 0 {
		return ValidationResult{}, fmt.Errorf("experiment: the validation round priced nothing (no live group)")
	}
	res, err := simnet.RunChains(chains, world.Channel.UplinkHz(), world.Channel.DownlinkHz(), world.Channel.MeanRate)
	if err != nil {
		return ValidationResult{}, fmt.Errorf("experiment: event-driven replay: %w", err)
	}
	analytic, eventDriven := led.Total(), res.Makespan+led.Get(simnet.Aggregation)
	return ValidationResult{
		AnalyticSeconds:    analytic,
		EventDrivenSeconds: eventDriven,
		RelativeGap:        (analytic - eventDriven) / eventDriven,
	}, nil
}
