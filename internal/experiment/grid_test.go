package experiment

import (
	"context"
	"strings"
	"testing"

	"gsfl/env"
	"gsfl/sim"
)

func TestGridJobsExpansionOrder(t *testing.T) {
	spec := env.TestSpec()
	g := Grid{
		Name: "demo", Base: spec, Rounds: 4, EvalEvery: 2,
		Axes: Axes{
			Groups:     []int{1, 2},
			Strategies: []string{"roundrobin", "random"},
			Schemes:    []string{"gsfl"},
		},
	}
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{
		"demo/groups=1,strategy=roundrobin",
		"demo/groups=1,strategy=random",
		"demo/groups=2,strategy=roundrobin",
		"demo/groups=2,strategy=random",
	}
	if len(jobs) != len(wantNames) {
		t.Fatalf("expanded %d jobs, want %d", len(jobs), len(wantNames))
	}
	for i, j := range jobs {
		if j.Name != wantNames[i] {
			t.Fatalf("job %d named %q, want %q (outer axes must nest first)", i, j.Name, wantNames[i])
		}
		if j.Scheme != "gsfl" || j.Rounds != 4 || j.EvalEvery != 2 {
			t.Fatalf("job %d carries wrong run config: %+v", i, j)
		}
	}
	if jobs[2].Spec.Groups != 2 || jobs[1].Spec.Strategy != "random" {
		t.Fatalf("axis values not applied: %+v / %+v", jobs[2].Spec, jobs[1].Spec)
	}
}

func TestGridSingleValueAxesOmittedFromNames(t *testing.T) {
	g := Grid{
		Name: "solo", Base: env.TestSpec(), Rounds: 2, EvalEvery: 1,
		Axes: Axes{Cuts: []int{3}, Schemes: []string{"sl"}},
	}
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].Name != "solo" {
		t.Fatalf("single-value axes must not clutter the name: %+v", jobs)
	}
}

func TestGridDefaultsToGSFL(t *testing.T) {
	g := Grid{Name: "d", Base: env.TestSpec(), Rounds: 2, EvalEvery: 1, Axes: Axes{Cuts: []int{1, 3}}}
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.Scheme != "gsfl" {
			t.Fatalf("empty scheme axis must default to gsfl, got %q", j.Scheme)
		}
	}
}

func TestJobIDsStableAndContentSensitive(t *testing.T) {
	g := entry(t, "fig2a", 4, 2, nil).Grids[0]
	a, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("job %d ID unstable across expansions: %s vs %s", i, a[i].ID, b[i].ID)
		}
		if len(a[i].ID) != 16 {
			t.Fatalf("job %d ID %q is not 16 hex digits", i, a[i].ID)
		}
		if seen[a[i].ID] {
			t.Fatalf("duplicate ID %s inside one grid", a[i].ID)
		}
		seen[a[i].ID] = true
	}
	// Any identity change must move the hash.
	mut := g
	mut.Rounds++
	c, err := mut.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if c[0].ID == a[0].ID {
		t.Fatal("changing rounds did not change the job ID")
	}
	mut = g
	mut.Base.Seed++
	d, err := mut.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if d[0].ID == a[0].ID {
		t.Fatal("changing the seed did not change the job ID")
	}
}

func TestGridOverlapSharesIDs(t *testing.T) {
	// fig2b's cells are a subset of fig2a's; equal cells must hash equal
	// so schedulers deduplicate across experiments.
	a, err := entry(t, "fig2a", 4, 2, nil).Jobs()
	if err != nil {
		t.Fatal(err)
	}
	b, err := entry(t, "fig2b", 4, 2, nil).Jobs()
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for _, j := range a {
		ids[j.ID] = true
	}
	for _, j := range b {
		if !ids[j.ID] {
			t.Fatalf("fig2b job %s (%s) not found among fig2a IDs", j.Name, j.ID)
		}
	}
}

func TestGridJobsValidation(t *testing.T) {
	if _, err := (Grid{Name: "x", Base: env.TestSpec(), EvalEvery: 1}).Jobs(); err == nil {
		t.Fatal("expected error for zero rounds")
	}
	if _, err := (Grid{Name: "x", Base: env.TestSpec(), Rounds: 2}).Jobs(); err == nil {
		t.Fatal("expected error for zero eval cadence")
	}
	bad := Grid{Name: "x", Base: env.TestSpec(), Rounds: 2, EvalEvery: 1, Axes: Axes{Strategies: []string{"bogus"}}}
	if _, err := bad.Jobs(); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("expected strategy parse error, got %v", err)
	}
	bad.Axes = Axes{Allocators: []string{"nope"}}
	if _, err := bad.Jobs(); err == nil {
		t.Fatal("expected allocator parse error")
	}
}

// TestRunJobMatchesDirectRunner pins the single-job executor to the run
// API it wraps: the same spec driven through env.Build, sim.New and a
// bare sim.Runner gives the same curve, so RunJob's accumulating
// observer perturbs nothing.
func TestRunJobMatchesDirectRunner(t *testing.T) {
	spec := env.TestSpec()
	world, err := env.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := spec.SchemeOptions()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.New("sl", world, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.NewRunner(tr, sim.WithRounds(2), sim.WithEvalEvery(1)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := (Grid{Name: "j", Base: spec, Rounds: 2, EvalEvery: 1, Axes: Axes{Schemes: []string{"sl"}}}).Jobs()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunJob(context.Background(), jobs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve.Points) != len(want.Points) {
		t.Fatalf("curves differ in length: %d vs %d", len(res.Curve.Points), len(want.Points))
	}
	for i := range want.Points {
		if res.Curve.Points[i] != want.Points[i] {
			t.Fatalf("point %d differs: %+v vs %+v", i, res.Curve.Points[i], want.Points[i])
		}
	}
	if res.TotalSeconds != res.Ledger.Total() && res.TotalSeconds <= 0 {
		t.Fatalf("result accumulators inconsistent: total %v ledger %v", res.TotalSeconds, res.Ledger.Total())
	}
}

func TestDefaultGroupCounts(t *testing.T) {
	got := DefaultGroupCounts(6)
	for _, m := range got {
		if m > 6 {
			t.Fatalf("group count %d exceeds client count", m)
		}
	}
	if len(got) == 0 || got[0] != 1 {
		t.Fatalf("DefaultGroupCounts(6) = %v", got)
	}
}

// TestJobSpecsCarryCanonicalNames: aliases arriving through the base
// spec (e.g. a grid file's "base" patch), not just through axes, are
// canonicalized onto the expanded jobs, so folds and stores record one
// spelling per extension.
func TestJobSpecsCarryCanonicalNames(t *testing.T) {
	base := env.TestSpec()
	base.Alloc = "propfair"
	base.Strategy = "balanced"
	g := Grid{Name: "alias-base", Base: base, Rounds: 2, EvalEvery: 1, Axes: Axes{}}
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0].Spec.Alloc != "proportional-fair" || jobs[0].Spec.Strategy != "compute-balanced" {
		t.Fatalf("base aliases not canonicalized: %+v", jobs[0].Spec)
	}
	canon := base
	canon.Alloc, canon.Strategy = "proportional-fair", "compute-balanced"
	g2 := Grid{Name: "alias-base", Base: canon, Rounds: 2, EvalEvery: 1, Axes: Axes{}}
	jobs2, err := g2.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0].ID != jobs2[0].ID {
		t.Fatal("alias and canonical base specs must expand to the same cell ID")
	}
}
