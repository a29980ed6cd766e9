package experiment

import (
	"context"
	"strconv"
	"testing"

	"gsfl/env"
	"gsfl/internal/gsfl"
	"gsfl/internal/metrics"
	"gsfl/internal/partition"
	"gsfl/internal/schemes/fl"
	"gsfl/internal/schemes/schemestest"
)

// runGrid expands and executes a grid serially, in job order — the
// one-worker reference execution every concurrent schedule must match
// bit-for-bit.
func runGrid(t *testing.T, g Grid) []JobResult {
	t.Helper()
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]JobResult, len(jobs))
	for i, j := range jobs {
		if out[i], err = RunJob(context.Background(), j); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestBuildProducesValidEnv(t *testing.T) {
	world, err := env.Build(env.TestSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := world.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(world.Train) != 6 {
		t.Fatalf("train partitions = %d", len(world.Train))
	}
	total := 0
	for _, d := range world.Train {
		total += d.Len()
	}
	if total != 6*40 {
		t.Fatalf("total training samples = %d, want 240", total)
	}
}

func TestBuildIIDWhenAlphaZero(t *testing.T) {
	spec := env.TestSpec()
	spec.Alpha = 0
	world, err := env.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	// IID split: every client has the same sample count (240/6 = 40).
	for i, d := range world.Train {
		if d.Len() != 40 {
			t.Fatalf("client %d has %d samples under IID", i, d.Len())
		}
	}
}

func TestBuildValidation(t *testing.T) {
	bad := env.TestSpec()
	bad.Groups = 100
	if _, err := env.Build(bad); err == nil {
		t.Fatal("expected error for M > N")
	}
	bad2 := env.TestSpec()
	bad2.Alloc = ""
	if _, err := env.Build(bad2); err == nil {
		t.Fatal("expected error for missing allocator")
	}
	bad3 := env.TestSpec()
	bad3.Alloc = "no-such-policy"
	if _, err := env.Build(bad3); err == nil {
		t.Fatal("expected error for unknown allocator")
	}
}

func TestFig2aShape(t *testing.T) {
	curves := FoldCurves(runGrid(t, Fig2aGrid(env.TestSpec(), 3, 1)))
	if len(curves) != 4 {
		t.Fatalf("fig2a needs 4 curves, got %d", len(curves))
	}
	want := map[string]bool{"cl": true, "sl": true, "gsfl": true, "fl": true}
	for _, c := range curves {
		if !want[c.Scheme] {
			t.Fatalf("unexpected scheme %q", c.Scheme)
		}
		if len(c.Points) != 3 {
			t.Fatalf("%s has %d points, want 3", c.Scheme, len(c.Points))
		}
		if !c.IsFinite() {
			t.Fatalf("%s curve has non-finite values", c.Scheme)
		}
	}
}

func TestFig2bLatencyOrdering(t *testing.T) {
	// The paper's headline: GSFL accumulates training latency more slowly
	// than SL. At any common round index, GSFL's cumulative latency must
	// be lower.
	curves := FoldCurves(runGrid(t, Fig2bGrid(env.TestSpec(), 3, 1)))
	var gsflC, slC *metrics.Curve
	for _, c := range curves {
		switch c.Scheme {
		case "gsfl":
			gsflC = c
		case "sl":
			slC = c
		}
	}
	for i := range gsflC.Points {
		g, s := gsflC.Points[i], slC.Points[i]
		if g.LatencySeconds >= s.LatencySeconds {
			t.Fatalf("round %d: GSFL latency %v not below SL %v",
				g.Round, g.LatencySeconds, s.LatencySeconds)
		}
	}
}

func TestTable2LatencyBreakdown(t *testing.T) {
	tbl := FoldTable2(runGrid(t, Table2Grid(env.TestSpec(), 2)))
	if len(tbl.Rows) != 5 {
		t.Fatalf("table2 rows = %d, want 5 schemes", len(tbl.Rows))
	}
	totals := map[string]float64{}
	for _, r := range tbl.Rows {
		v, err := strconv.ParseFloat(r["total_s"].(string), 64)
		if err != nil {
			t.Fatal(err)
		}
		totals[r["scheme"].(string)] = v
	}
	// Headline orderings: GSFL beats SL; CL (server-only) is cheapest.
	if totals["gsfl"] >= totals["sl"] {
		t.Fatalf("GSFL per-round latency %v not below SL %v", totals["gsfl"], totals["sl"])
	}
	if totals["cl"] >= totals["gsfl"] {
		t.Fatalf("CL per-round latency %v should be smallest (got gsfl=%v)", totals["cl"], totals["gsfl"])
	}
}

func TestTable3StorageOrdering(t *testing.T) {
	tbl, err := RunTable3(env.TestSpec())
	if err != nil {
		t.Fatal(err)
	}
	byScheme := map[string]int{}
	for _, r := range tbl.Rows {
		byScheme[r["scheme"].(string)] = r["server_replicas"].(int)
	}
	if byScheme["gsfl"] != 2 {
		t.Fatalf("gsfl replicas = %d, want M=2", byScheme["gsfl"])
	}
	if byScheme["sfl"] != 6 {
		t.Fatalf("sfl replicas = %d, want N=6", byScheme["sfl"])
	}
}

func TestConvergenceGSFLFasterThanFLInRounds(t *testing.T) {
	// Cross-scheme round-efficiency on the quickly learnable blob task:
	// GSFL applies N*steps sequential updates per round versus FL's
	// averaged local updates, so GSFL reaches the target in fewer rounds
	// (the paper's ~5x claim, direction-checked here at toy scale).
	env1 := schemestest.NewEnv(11, 6, 40)
	g, err := gsfl.New(env1, gsfl.Config{NumGroups: 2, Strategy: partition.GroupRoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	env2 := schemestest.NewEnv(11, 6, 40)
	f, err := fl.New(env2)
	if err != nil {
		t.Fatal(err)
	}
	gc := schemestest.RunCurve(t, g, 20, 1)
	fc := schemestest.RunCurve(t, f, 20, 1)
	const target = 0.6
	gr, gok := gc.RoundsToAccuracy(target)
	fr, fok := fc.RoundsToAccuracy(target)
	if !gok {
		t.Fatalf("GSFL never reached %v (final %v)", target, gc.FinalAccuracy())
	}
	if fok && fr <= gr {
		t.Fatalf("FL reached target in %d rounds, GSFL in %d; expected GSFL faster", fr, gr)
	}
}

func TestAblationCutLayer(t *testing.T) {
	res := FoldCutLayer(runGrid(t, CutLayerGrid(env.TestSpec(), []int{1, 3, 6}, 2, 1)))
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	// Deeper cuts never shrink the client side (ReLU/pool layers carry no
	// parameters, so cuts 1 and 3 tie) and strictly grow once the second
	// conv block moves over.
	if res[0].ClientBytes > res[1].ClientBytes || res[1].ClientBytes >= res[2].ClientBytes {
		t.Fatalf("client bytes not monotone in cut: %+v", res)
	}
	// Cutting after pooling (cut 3) shrinks the smashed data versus
	// cutting before it (cut 1).
	if res[1].SmashedBytes >= res[0].SmashedBytes {
		t.Fatalf("pooled cut should shrink smashed data: %+v", res)
	}
}

func TestAblationGrouping(t *testing.T) {
	res := FoldGrouping(runGrid(t, GroupingGrid(env.TestSpec(), []int{1, 3},
		[]string{"round-robin"}, 2, 1)))
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	// More groups = more parallelism = shorter rounds.
	if res[1].RoundLatency >= res[0].RoundLatency {
		t.Fatalf("M=3 latency %v not below M=1 latency %v", res[1].RoundLatency, res[0].RoundLatency)
	}
}

func TestAblationAllocation(t *testing.T) {
	res := FoldAllocation(runGrid(t, AllocationGrid(env.TestSpec(), 2)))
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	names := map[string]bool{}
	for _, r := range res {
		if r.RoundLatency <= 0 {
			t.Fatalf("allocator %s latency %v", r.Allocator, r.RoundLatency)
		}
		names[r.Allocator] = true
	}
	for _, want := range []string{"uniform", "proportional-fair", "latency-min"} {
		if !names[want] {
			t.Fatalf("missing allocator %s in %v", want, names)
		}
	}
}

func TestTable1Structure(t *testing.T) {
	// Table 1 at tiny scale: just verify structure and that every scheme
	// appears (convergence itself is covered by the blob test above and
	// the full-scale bench).
	curves := FoldCurves(runGrid(t, Fig2aGrid(env.TestSpec(), 2, 1)))
	tbl := FoldTable1(curves, 0.9)
	if len(tbl.Rows) != 4 || len(curves) != 4 {
		t.Fatalf("rows=%d curves=%d", len(tbl.Rows), len(curves))
	}
}
