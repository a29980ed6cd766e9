package experiment

import (
	"testing"

	"gsfl/env"
)

func TestAblationPipelining(t *testing.T) {
	res := FoldPipelining(runGrid(t, PipelineGrid(env.TestSpec(), 3, 1)))
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	var plain, piped PipelineResult
	for _, r := range res {
		if r.Pipelined {
			piped = r
		} else {
			plain = r
		}
	}
	// Identical numerics: accuracy must match exactly (same seeds, same
	// update sequence; only the latency algebra differs).
	if plain.FinalAccuracy != piped.FinalAccuracy {
		t.Fatalf("pipelining changed accuracy: %v vs %v", plain.FinalAccuracy, piped.FinalAccuracy)
	}
	// Overlap must reduce (or at worst match) round latency.
	if piped.RoundLatency > plain.RoundLatency*1.02 {
		t.Fatalf("pipelined latency %v above sequential %v", piped.RoundLatency, plain.RoundLatency)
	}
}

func TestAblationQuantization(t *testing.T) {
	res := FoldQuantization(runGrid(t, QuantGrid(env.TestSpec(), 3, 1)))
	var full, quant QuantResult
	for _, r := range res {
		if r.Quantized {
			quant = r
		} else {
			full = r
		}
	}
	// At this test scale transfers dominate, so 4x smaller transfers must
	// clearly reduce round latency.
	if quant.RoundLatency >= full.RoundLatency {
		t.Fatalf("quantized latency %v not below full-precision %v",
			quant.RoundLatency, full.RoundLatency)
	}
}

func TestAblationDropoutSweep(t *testing.T) {
	res := FoldDropout(runGrid(t, DropoutGrid(env.TestSpec(), []float64{0, 0.3}, 3, 1)))
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	if res[1].RoundLatency >= res[0].RoundLatency {
		t.Fatalf("30%% dropout latency %v not below failure-free %v",
			res[1].RoundLatency, res[0].RoundLatency)
	}
}

func TestAblationNonIID(t *testing.T) {
	res := FoldNonIID(runGrid(t, NonIIDGrid(env.TestSpec(), []float64{0.1, 10}, 2, 1)))
	if len(res) != 4 { // 2 alphas x 2 schemes
		t.Fatalf("got %d results", len(res))
	}
	for _, r := range res {
		if r.Scheme != "gsfl" && r.Scheme != "fl" {
			t.Fatalf("unexpected scheme %q", r.Scheme)
		}
		if r.FinalAccuracy < 0 || r.FinalAccuracy > 1 {
			t.Fatalf("accuracy %v out of range", r.FinalAccuracy)
		}
	}
}

func TestSeedSweepStats(t *testing.T) {
	st := FoldSeedStats(runGrid(t, SeedSweepGrid(env.TestSpec(), "gsfl", 3, 2, 1)))
	if st.Seeds != 3 || st.Scheme != "gsfl" {
		t.Fatalf("stats header wrong: %+v", st)
	}
	if st.WorstAcc > st.MeanAcc || st.MeanAcc > st.BestAcc {
		t.Fatalf("ordering violated: %+v", st)
	}
	if st.StdAcc < 0 {
		t.Fatalf("negative std: %+v", st)
	}
}

func TestValidationEventDriven(t *testing.T) {
	res, err := RunValidationEventDriven(env.TestSpec())
	if err != nil {
		t.Fatal(err)
	}
	if res.AnalyticSeconds <= 0 || res.EventDrivenSeconds <= 0 {
		t.Fatalf("non-positive latencies: %+v", res)
	}
	// The analytic model assumes full contention at every position, so it
	// should never *under*-estimate by much; and the two disciplines price
	// the same physics, so they must agree within a factor band.
	if res.RelativeGap < -0.25 || res.RelativeGap > 0.6 {
		t.Fatalf("analytic vs event-driven gap %v outside sanity band: %+v",
			res.RelativeGap, res)
	}
}
