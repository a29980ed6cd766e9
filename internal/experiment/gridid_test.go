package experiment

import (
	"fmt"
	"testing"

	"gsfl/env"
)

// goldenJobIDs pins the content-hash ID of every cell in the paper
// catalogue at test scale (rounds=3, evalEvery=2, target=0.3), captured
// before the Spec migration to gsfl/env. Job IDs key the sweep store —
// an ID change silently orphans completed work and breaks manifest
// byte-identity — so any refactor of Spec, the identity encoding, or
// the registries must keep these exact values (or ship a versioned
// store migration).
var goldenJobIDs = []string{
	"fig2a 5eab3becbe8e4c72 fig2a/scheme=cl",
	"fig2a ffbca4e7deb1cf22 fig2a/scheme=sl",
	"fig2a 4f4917f2affe18bb fig2a/scheme=gsfl",
	"fig2a 25591a8afc47a2a5 fig2a/scheme=fl",
	"fig2b 4f4917f2affe18bb fig2b/scheme=gsfl",
	"fig2b ffbca4e7deb1cf22 fig2b/scheme=sl",
	"table1 5eab3becbe8e4c72 fig2a/scheme=cl",
	"table1 ffbca4e7deb1cf22 fig2a/scheme=sl",
	"table1 4f4917f2affe18bb fig2a/scheme=gsfl",
	"table1 25591a8afc47a2a5 fig2a/scheme=fl",
	"table2 dc7efbbbf7dc2562 table2/scheme=gsfl",
	"table2 82d97bf7e630037b table2/scheme=sl",
	"table2 302382ea5bf54d3c table2/scheme=fl",
	"table2 3faded92107b5641 table2/scheme=sfl",
	"table2 f9daa5f69506a34b table2/scheme=cl",
	"cutlayer bb029d5921641f21 cutlayer/cut=1",
	"cutlayer 4f4917f2affe18bb cutlayer/cut=3",
	"cutlayer d93560c8ee3aea14 cutlayer/cut=6",
	"cutlayer 434f45c48647ea89 cutlayer/cut=9",
	"grouping 49c9187cb54955e2 grouping/groups=1,strategy=round-robin",
	"grouping 003201a28016f34c grouping/groups=1,strategy=random",
	"grouping b9a7006c38136457 grouping/groups=1,strategy=compute-balanced",
	"grouping 4f4917f2affe18bb grouping/groups=2,strategy=round-robin",
	"grouping c84e09451d783ac7 grouping/groups=2,strategy=random",
	"grouping 16fc5d9b4ddb1b8c grouping/groups=2,strategy=compute-balanced",
	"grouping 489cd4a9cb839658 grouping/groups=3,strategy=round-robin",
	"grouping 9a5c5a8dcb3f937e grouping/groups=3,strategy=random",
	"grouping f2d2d6a9cc9a8849 grouping/groups=3,strategy=compute-balanced",
	"grouping de4e4f2a1dccf52f grouping/groups=6,strategy=round-robin",
	"grouping 40119d426165528b grouping/groups=6,strategy=random",
	"grouping 54d20579d271b380 grouping/groups=6,strategy=compute-balanced",
	"resalloc dc7efbbbf7dc2562 resalloc/alloc=uniform",
	"resalloc f3ac30f8ba49995e resalloc/alloc=proportional-fair",
	"resalloc c4673572ef40a237 resalloc/alloc=latency-min",
	"pipeline 4f4917f2affe18bb pipeline/pipe=false",
	"pipeline e8578aece7fbcbb4 pipeline/pipe=true",
	"quant 4f4917f2affe18bb quant/quant=false",
	"quant 12b0b4373438a8e0 quant/quant=true",
	"dropout 4f4917f2affe18bb dropout/dropout=0",
	"dropout 8df53de72cf680c0 dropout/dropout=0.1",
	"dropout 8deb3de72cee2c3b dropout/dropout=0.2",
	"dropout 8dee41e72cf068de dropout/dropout=0.3",
	"noniid b44d0f9ebe79a479 noniid/alpha=0.1,scheme=gsfl",
	"noniid dddfd3984bf229cf noniid/alpha=0.1,scheme=fl",
	"noniid 4f4917f2affe18bb noniid/alpha=1,scheme=gsfl",
	"noniid 25591a8afc47a2a5 noniid/alpha=1,scheme=fl",
	"noniid 5f8b6fc577b1aa3b noniid/alpha=100,scheme=gsfl",
	"noniid 1c4b3a7ff4f50155 noniid/alpha=100,scheme=fl",
	"popsample 1bfd10ea69d3a332 popsample/groups=2,frac=0.05",
	"popsample fa7a2962d7743858 popsample/groups=2,frac=0.1",
	"popsample 1b3c2a6b5681ed5c popsample/groups=2,frac=0.25",
	"popsample 7b291ef5f5175b86 popsample/groups=6,frac=0.05",
	"popsample 1f02fb77106e1a2c popsample/groups=6,frac=0.1",
	"popsample ad43faf87c3886c0 popsample/groups=6,frac=0.25",
	"seeds 4f4917f2affe18bb seeds-gsfl/seed=1",
	"seeds d152ea4a34c16ef0 seeds-gsfl/seed=1001",
	"seeds 09a5ec72eb93dc0d seeds-gsfl/seed=2001",
	"seeds ffbca4e7deb1cf22 seeds-sl/seed=1",
	"seeds ce5926fd0f31ab23 seeds-sl/seed=1001",
	"seeds 214f8b62829bfec2 seeds-sl/seed=2001",
	"seeds 25591a8afc47a2a5 seeds-fl/seed=1",
	"seeds 8ba7a9874b08c75e seeds-fl/seed=1001",
	"seeds 5b02a95b67cf5c0f seeds-fl/seed=2001",
}

// TestGridIDStabilityAcrossSpecMigration expands the full catalogue and
// compares every (experiment, id, name) triple against the pinned
// pre-migration values.
func TestGridIDStabilityAcrossSpecMigration(t *testing.T) {
	spec := env.TestSpec()
	var got []string
	for _, e := range GridExperiments(spec, 3, 2, 0.3) {
		jobs, err := e.Jobs()
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		for _, j := range jobs {
			got = append(got, fmt.Sprintf("%s %s %s", e.Name, j.ID, j.Name))
		}
	}
	if len(got) != len(goldenJobIDs) {
		t.Fatalf("catalogue expands to %d cells, golden list has %d", len(got), len(goldenJobIDs))
	}
	for i := range got {
		if got[i] != goldenJobIDs[i] {
			t.Errorf("cell %d drifted:\n  got  %s\n  want %s", i, got[i], goldenJobIDs[i])
		}
	}
}

// TestGridIDAliasCanonicalization checks that alias tokens ("propfair",
// "roundrobin") hash to the same cell as their canonical names, so grid
// files written with shorthands deduplicate against the catalogue.
func TestGridIDAliasCanonicalization(t *testing.T) {
	mk := func(strategy, alloc string) string {
		g := Grid{
			Name: "alias", Base: env.TestSpec(), Rounds: 2, EvalEvery: 1,
			Axes: Axes{Strategies: []string{strategy}, Allocators: []string{alloc}},
		}
		jobs, err := g.Jobs()
		if err != nil {
			t.Fatal(err)
		}
		if len(jobs) != 1 {
			t.Fatalf("expanded %d jobs", len(jobs))
		}
		return jobs[0].ID
	}
	if mk("roundrobin", "propfair") != mk("round-robin", "proportional-fair") {
		t.Fatal("alias tokens must hash to the canonical cell ID")
	}
}

// TestGridIDDefaultExtensionsKeepHistoricalHash checks the identity
// extension rule: the default dataset/arch (explicit or empty) must
// hash exactly as the pre-migration encoding, while non-default values
// produce distinct IDs.
func TestGridIDDefaultExtensionsKeepHistoricalHash(t *testing.T) {
	id := func(mutate func(*Spec)) string {
		s := env.TestSpec()
		mutate(&s)
		g := Grid{Name: "x", Base: s, Rounds: 2, EvalEvery: 1, Axes: Axes{}}
		jobs, err := g.Jobs()
		if err != nil {
			t.Fatal(err)
		}
		return jobs[0].ID
	}
	base := id(func(*Spec) {})
	blank := id(func(s *Spec) { s.Dataset, s.Arch = "", "" })
	if base != blank {
		t.Fatal("empty dataset/arch must hash like the explicit defaults")
	}
	mlp := id(func(s *Spec) { s.Arch = "mlp" })
	if mlp == base {
		t.Fatal("non-default arch must change the job ID")
	}
	// The population fields follow the same extension rule: absent they
	// leave the historical bytes alone (pinned by the golden list above),
	// present they must produce a new, stable, distinct ID.
	pop := id(func(s *Spec) { s.Population = 120; s.SampleFraction = 0.1 })
	if pop == base {
		t.Fatal("a configured population must change the job ID")
	}
	pop2 := id(func(s *Spec) { s.Population = 120; s.SampleFraction = 0.1; s.AvailTrace = "always-on" })
	if pop2 != pop {
		t.Fatal("an explicit default trace must hash like the normalized empty trace")
	}
	frac := id(func(s *Spec) { s.Population = 120; s.SampleFraction = 0.25 })
	if frac == pop {
		t.Fatal("the sampling fraction must be part of the job ID")
	}
}
