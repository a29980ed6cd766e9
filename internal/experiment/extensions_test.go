package experiment

import (
	"testing"

	"gsfl/env"
)

func TestAblationPipelining(t *testing.T) {
	e := entry(t, "pipeline", 3, 1, nil)
	res := table(t, e, run(t, e))
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	var plain, piped map[string]any
	for _, r := range res {
		if r["pipelined"].(bool) {
			piped = r
		} else {
			plain = r
		}
	}
	// Identical numerics: accuracy must match exactly (same seeds, same
	// update sequence; only the latency algebra differs).
	if plain["final_accuracy"] != piped["final_accuracy"] {
		t.Fatalf("pipelining changed accuracy: %v vs %v", plain["final_accuracy"], piped["final_accuracy"])
	}
	// Overlap must reduce (or at worst match) round latency.
	if p, s := num(t, piped["round_latency_s"]), num(t, plain["round_latency_s"]); p > s*1.02 {
		t.Fatalf("pipelined latency %v above sequential %v", p, s)
	}
}

func TestAblationQuantization(t *testing.T) {
	e := entry(t, "quant", 3, 1, nil)
	var full, quant map[string]any
	for _, r := range table(t, e, run(t, e)) {
		if r["quantized"].(bool) {
			quant = r
		} else {
			full = r
		}
	}
	// At this test scale transfers dominate, so 4x smaller transfers must
	// clearly reduce round latency.
	if q, f := num(t, quant["round_latency_s"]), num(t, full["round_latency_s"]); q >= f {
		t.Fatalf("quantized latency %v not below full-precision %v", q, f)
	}
}

func TestAblationDropoutSweep(t *testing.T) {
	e := entry(t, "dropout", 3, 1, func(a *Axes) { a.Dropouts = []float64{0, 0.3} })
	res := table(t, e, run(t, e))
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	if res[0]["dropout_prob"] != "0.00" || res[1]["dropout_prob"] != "0.30" {
		t.Fatalf("dropout column: %v, %v", res[0]["dropout_prob"], res[1]["dropout_prob"])
	}
	if d, f := num(t, res[1]["round_latency_s"]), num(t, res[0]["round_latency_s"]); d >= f {
		t.Fatalf("30%% dropout latency %v not below failure-free %v", d, f)
	}
}

func TestAblationNonIID(t *testing.T) {
	e := entry(t, "noniid", 2, 1, func(a *Axes) { a.Alphas = []float64{0.1, 10} })
	res := table(t, e, run(t, e))
	if len(res) != 4 { // 2 alphas x 2 schemes
		t.Fatalf("got %d results", len(res))
	}
	for _, r := range res {
		if r["scheme"] != "gsfl" && r["scheme"] != "fl" {
			t.Fatalf("unexpected scheme %q", r["scheme"])
		}
		if acc := num(t, r["final_accuracy"]); acc < 0 || acc > 1 {
			t.Fatalf("accuracy %v out of range", acc)
		}
	}
}

func TestSeedSweepStats(t *testing.T) {
	e := entry(t, "seeds", 2, 1, nil)
	e.Grids = e.Grids[:1] // the gsfl seed grid alone
	rows := table(t, e, run(t, e))
	if len(rows) != 1 {
		t.Fatalf("got %d rows for one scheme's seeds", len(rows))
	}
	st := rows[0]
	if st["seeds"] != 3 || st["scheme"] != "gsfl" {
		t.Fatalf("stats header wrong: %+v", st)
	}
	worst, mean, best := num(t, st["worst_acc"]), num(t, st["mean_acc"]), num(t, st["best_acc"])
	if worst > mean || mean > best {
		t.Fatalf("ordering violated: %+v", st)
	}
	if num(t, st["std_acc"]) < 0 {
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
