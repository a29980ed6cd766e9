package transport

import "gsfl/internal/registry"

// StragglerPolicy decides how a group's relay chain proceeds when a
// client misses the round deadline (or dies mid-turn). It receives the
// state that was handed to the straggler this turn — the last state the
// chain produced, untouched by the straggler — and the state the same
// client returned on its most recent completed turn in any earlier
// round (nil if it never completed one). It returns the state the chain
// continues from and whether the straggler's sample count still enters
// the group's aggregation weight.
//
// Policies must not mutate either argument: returned states flow
// straight into the relay chain and, at round end, into FedAvg.
type StragglerPolicy func(handed, lastGood *TurnState) (next *TurnState, counted bool)

var stragglerPolicies = registry.New[StragglerPolicy]("transport", "straggler policy")

// RegisterStragglerPolicy adds a fallback policy under its name, making
// it selectable through APConfig.Straggler. It panics on an empty name,
// a nil policy, or a duplicate registration (programmer errors at init
// time).
func RegisterStragglerPolicy(name string, p StragglerPolicy) { stragglerPolicies.Register(name, p) }

// StragglerPolicies returns the registered policy names in sorted order.
func StragglerPolicies() []string { return stragglerPolicies.Names() }

func stragglerPolicyByName(name string) (StragglerPolicy, error) { return stragglerPolicies.Get(name) }

func init() {
	// drop: the straggler contributes nothing. The chain continues from
	// the state it was handed and the client's samples leave the weight —
	// the network analogue of the simulator's per-round dropout, where a
	// skipped client is simply absent from its group.
	RegisterStragglerPolicy("drop", func(handed, lastGood *TurnState) (*TurnState, bool) {
		return handed, false
	})
	// reuse-last: substitute the client's most recent completed
	// contribution (the classic stale-update mitigation from asynchronous
	// FL). Its samples stay in the weight since its — stale — training is
	// represented. Falls back to drop when the client never completed a
	// turn.
	RegisterStragglerPolicy("reuse-last", func(handed, lastGood *TurnState) (*TurnState, bool) {
		if lastGood == nil {
			return handed, false
		}
		return lastGood, true
	})
}
