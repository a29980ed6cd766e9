package gsfl

import (
	"context"
	"testing"

	"gsfl/env"
	"gsfl/internal/model"
	"gsfl/internal/quantize"
	"gsfl/internal/schemes"
	"gsfl/internal/simnet"
)

// TestRoundChainsCarryTheClosedFormBytes holds what each registration's
// round records to what it must have priced: the transfer bytes of
// RoundChains, summed per (component, direction), against their closed
// form from the SplitModel byte helpers — the distribution to each
// group's first client, steps × (smashed + gradient) per client at the
// wire width, the relays between consecutive clients (a chain wraps to
// its first), and the return to the AP. Under fl the whole model's
// download and upload are the round's only transfers.
func TestRoundChainsCarryTheClosedFormBytes(t *testing.T) {
	type key struct {
		c simnet.Component
		k simnet.TaskKind
	}
	ctx := context.Background()
	for _, quant := range []bool{false, true} {
		spec := env.TestSpec()
		spec.Hyper.QuantizeTransfers = quant
		for _, scheme := range []string{"gsfl", "sl", "sfl", "fl"} {
			world, err := env.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			opts, err := spec.SchemeOptions()
			if err != nil {
				t.Fatal(err)
			}
			st, err := schemes.NewByName(scheme, world, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Round(ctx); err != nil {
				t.Fatal(err)
			}
			tr := st.(*Trainer)
			chains := tr.RoundChains()
			got := map[key]int64{}
			for _, chain := range chains {
				for _, task := range chain {
					if task.Kind != simnet.TaskCompute {
						got[key{task.Component, task.Kind}] += task.Bytes
					}
				}
			}

			n, m := int64(spec.Clients), int64(len(tr.groups))
			if int64(len(chains)) != m {
				t.Fatalf("%s: %d chains for %d groups", scheme, len(chains), m)
			}
			rep := tr.replicas[0]
			p := rep.ClientParamBytes()
			dist, hops, ret := m, n-m, m // per group: one download, a relay per hand-off, one return
			if tr.plan.chain {
				dist, hops, ret = 0, n, 0
			}
			want := map[key]int64{}
			if tr.plan.local {
				want[key{simnet.Downlink, simnet.TaskDownlink}] = dist * p
				want[key{simnet.Uplink, simnet.TaskUplink}] = ret * p
			} else {
				w := model.WireBytesPerScalar
				if quant {
					w = quantize.WireBytesPerScalar
				}
				steps := n * int64(spec.Hyper.StepsPerClient)
				want[key{simnet.Uplink, simnet.TaskUplink}] = steps * rep.SmashedBytesWith(spec.Hyper.Batch, w)
				want[key{simnet.Downlink, simnet.TaskDownlink}] = steps * rep.GradBytesWith(spec.Hyper.Batch, w)
				want[key{simnet.Relay, simnet.TaskDownlink}] = (dist + hops) * p
				want[key{simnet.Relay, simnet.TaskUplink}] = (hops + ret) * p
			}
			if len(got) != len(want) {
				t.Errorf("%s quant=%v: chains transfer %v, want %v", scheme, quant, got, want)
			}
			for k, b := range want {
				if got[k] != b {
					t.Errorf("%s quant=%v: %v %v bytes = %d, want %d", scheme, quant, k.c, k.k, got[k], b)
				}
			}
		}
	}
}

// TestRoundChainsEmptyAfterNoOpRound: a round in which every client
// drops prices nothing, so it leaves no chain behind — not the previous
// round's.
func TestRoundChainsEmptyAfterNoOpRound(t *testing.T) {
	tr := newTrainer(t, 5, 6, 2)
	ctx := context.Background()
	if _, err := tr.Round(ctx); err != nil {
		t.Fatal(err)
	}
	if len(tr.RoundChains()) != 2 {
		t.Fatalf("trained round recorded %d chains, want 2", len(tr.RoundChains()))
	}
	tr.cfg.DropoutProb = 0.99
	led, err := tr.Round(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if led.Total() != 0 || len(tr.RoundChains()) != 0 {
		t.Fatalf("all-dropped round: latency %v, %d chains; want 0 and none", led.Total(), len(tr.RoundChains()))
	}
}

// TestRoundChainsCarryTheChargedSeconds holds the seconds a round's
// chains carry (what its trace draws) to what its ledgers priced, for
// every registration, quantized or not, pipelined or not: folding each
// chain's Charged per component, in charge order, and taking the
// critical path must reproduce the round ledger's component totals bit
// for bit, aggregation aside; the tail chain folds to its Aggregation.
// Each client turn starts exactly one recorded turn.
func TestRoundChainsCarryTheChargedSeconds(t *testing.T) {
	fold := func(chain []simnet.Task) *simnet.Ledger {
		var led simnet.Ledger
		for _, task := range chain {
			led.Add(task.Component, task.Charged)
		}
		return &led
	}
	ctx := context.Background()
	for _, quant := range []bool{false, true} {
		for _, pipelined := range []bool{false, true} {
			spec := env.TestSpec()
			spec.Hyper.QuantizeTransfers = quant
			spec.Pipelined = pipelined
			for _, scheme := range []string{"gsfl", "sl", "sfl", "fl"} {
				world, err := env.Build(spec)
				if err != nil {
					t.Fatal(err)
				}
				opts, err := spec.SchemeOptions()
				if err != nil {
					t.Fatal(err)
				}
				st, err := schemes.NewByName(scheme, world, opts)
				if err != nil {
					t.Fatal(err)
				}
				round, err := st.Round(ctx)
				if err != nil {
					t.Fatal(err)
				}
				tr := st.(*Trainer)
				chains := tr.RoundChains()
				folded := make([]*simnet.Ledger, len(chains))
				turns := 0
				for li, chain := range chains {
					folded[li] = fold(chain)
					turns += len(tr.turns[li])
				}
				path := simnet.MaxOf(folded)
				for _, c := range simnet.Components() {
					want := round.Get(c)
					got := path.Get(c)
					if c == simnet.Aggregation {
						got = fold(tr.tail).Get(c)
					}
					if got != want {
						t.Errorf("%s quant=%v pipelined=%v: %v folds to %v, ledger has %v",
							scheme, quant, pipelined, c, got, want)
					}
				}
				if tr.plan.chain && len(tr.tail) != 0 {
					t.Errorf("%s: a chain prices no aggregation, tail has %d tasks", scheme, len(tr.tail))
				}
				if turns != spec.Clients {
					t.Errorf("%s quant=%v pipelined=%v: %d turns recorded for %d clients",
						scheme, quant, pipelined, turns, spec.Clients)
				}
			}
		}
	}
}
