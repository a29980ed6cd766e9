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

// RunValidationEventDriven builds one GSFL round twice over a fading-free
// copy of the spec's world: once through the analytic latency model
// (what every figure uses) and once through simnet.RunChains, where
// groups desynchronize and the spectrum is re-divided at every task
// boundary. A small relative gap validates the analytic approximation;
// its sign shows whether the approximation is conservative (positive:
// analytic over-estimates because it assumes worst-case contention for
// whole positions).
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
	analytic := led.Total()

	// Rebuild the same round's task structure as event-sim chains. The
	// model quantities (FLOPs, bytes) are identical by construction; only
	// the bandwidth-sharing discipline differs.
	env2, err := env.Build(spec)
	if err != nil {
		return ValidationResult{}, err
	}
	probe := env2.Arch.NewSplit(env2.Rng("probe", 0), spec.Cut)
	tr2, err := gsfl.New(env2, opts)
	if err != nil {
		return ValidationResult{}, err
	}
	batch := int64(spec.Hyper.Batch)
	clientFLOPs := 3 * probe.ClientFwdFLOPs() * batch
	serverFLOPs := 3 * probe.ServerFwdFLOPs() * batch
	smashedBits := float64(probe.SmashedBytes(spec.Hyper.Batch)) * 8
	gradBits := float64(probe.GradBytes(spec.Hyper.Batch)) * 8
	modelBits := float64(probe.ClientParamBytes()) * 8

	chains := make([][]simnet.Task, 0, spec.Groups)
	for _, members := range tr2.Groups() {
		var chain []simnet.Task
		// Model distribution to the first client.
		chain = append(chain, simnet.Task{
			Kind: simnet.TaskDownlink, Bits: modelBits,
			Client: members[0], Component: simnet.Relay,
		})
		for pos, ci := range members {
			dev := env2.Fleet.Clients[ci]
			for s := 0; s < spec.Hyper.StepsPerClient; s++ {
				chain = append(chain,
					simnet.Task{Kind: simnet.TaskCompute, Seconds: dev.ComputeSeconds(clientFLOPs), Component: simnet.ClientCompute},
					simnet.Task{Kind: simnet.TaskUplink, Bits: smashedBits, Client: ci, Component: simnet.Uplink},
					simnet.Task{Kind: simnet.TaskCompute, Seconds: env2.Fleet.Server.ComputeSeconds(serverFLOPs), Component: simnet.ServerCompute},
					simnet.Task{Kind: simnet.TaskDownlink, Bits: gradBits, Client: ci, Component: simnet.Downlink},
				)
			}
			// Relay to the next client or return to the AP.
			chain = append(chain, simnet.Task{
				Kind: simnet.TaskUplink, Bits: modelBits, Client: ci, Component: simnet.Relay,
			})
			if pos+1 < len(members) {
				chain = append(chain, simnet.Task{
					Kind: simnet.TaskDownlink, Bits: modelBits,
					Client: members[pos+1], Component: simnet.Relay,
				})
			}
		}
		chains = append(chains, chain)
	}

	res, err := simnet.RunChains(chains, env2.Channel.UplinkHz(), env2.Channel.DownlinkHz(),
		func(client int, wHz float64, uplink bool) float64 {
			return env2.Channel.MeanRate(client, wHz, uplink)
		})
	if err != nil {
		return ValidationResult{}, fmt.Errorf("experiment: event-driven replay: %w", err)
	}
	// Aggregation cost is identical in both models; add it to the
	// event-driven side for a like-for-like total.
	var aggLed simnet.Ledger
	total := probe.Client.ParamCount() + probe.Server.ParamCount()
	aggFLOPs := int64(2) * int64(spec.Groups) * int64(total)
	aggLed.Add(simnet.Aggregation, env2.Fleet.Server.ComputeSeconds(aggFLOPs))
	eventDriven := res.Makespan + aggLed.Total()

	return ValidationResult{
		AnalyticSeconds:    analytic,
		EventDrivenSeconds: eventDriven,
		RelativeGap:        (analytic - eventDriven) / eventDriven,
	}, nil
}
