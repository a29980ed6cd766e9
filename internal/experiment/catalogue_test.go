package experiment

import (
	"context"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"gsfl/env"
)

// catalogueFiles is every CSV the catalogue writes, per experiment.
var catalogueFiles = map[string][]string{
	"fig2a":     {"fig2a.csv"},
	"fig2b":     {"fig2b.csv"},
	"table1":    {"table1.csv", "table1_curves.csv"},
	"table2":    {"table2.csv"},
	"table3":    {"table3.csv"},
	"cutlayer":  {"ablation_cutlayer.csv"},
	"grouping":  {"ablation_grouping.csv"},
	"resalloc":  {"ablation_resalloc.csv"},
	"pipeline":  {"ablation_pipeline.csv"},
	"quant":     {"ablation_quant.csv"},
	"dropout":   {"ablation_dropout.csv"},
	"noniid":    {"ablation_noniid.csv"},
	"popsample": {"popsample.csv"},
	"seeds":     {"seed_variance.csv"},
	"numeric":   {"numeric.csv"},
	"validate":  {"latency_model_validation.csv"},
}

// TestCatalogueAllWritesSeventeenFiles runs "-exp all" at test scale
// with 2 rounds the way gsfl-sweep does — select, execute each unique
// job once, Save — and pins the exact set of artifacts: 16 experiments,
// 17 CSVs, nothing else.
func TestCatalogueAllWritesSeventeenFiles(t *testing.T) {
	sel, err := SelectGridExperiments(GridExperiments(env.TestSpec(), 2, 2, 0.3), "all")
	if err != nil {
		t.Fatal(err)
	}
	if got := names(sel.Experiments); !reflect.DeepEqual(got, ExperimentNames()) || len(got) != len(catalogueFiles) {
		t.Fatalf("\"all\" selected %v, catalogue names are %v", got, ExperimentNames())
	}
	byID := map[string]JobResult{}
	results := make([]JobResult, len(sel.Jobs))
	for i, j := range sel.Jobs {
		res, ok := byID[j.ID]
		if !ok {
			if res, err = RunJob(context.Background(), j); err != nil {
				t.Fatal(err)
			}
			byID[j.ID] = res
		}
		results[i] = res
	}
	dir := t.TempDir()
	if err := sel.Save(dir, results, nil); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	for _, files := range catalogueFiles {
		want = append(want, files...)
	}
	sort.Strings(want)
	if len(want) != 17 || !reflect.DeepEqual(got, want) {
		t.Fatalf("-exp all wrote %v, want the 17 files %v", got, want)
	}
}

// TestSelectUnknownExperimentListsCatalogue: an unknown -exp token is
// the catalogue's error, and it names every accepted token.
func TestSelectUnknownExperimentListsCatalogue(t *testing.T) {
	_, err := SelectGridExperiments(GridExperiments(env.TestSpec(), 2, 2, 0.3), "bogus")
	if err == nil {
		t.Fatal("expected an error for an unknown experiment")
	}
	if len(ExperimentNames()) != 16 {
		t.Fatalf("catalogue has %d names, want 16: %v", len(ExperimentNames()), ExperimentNames())
	}
	for _, name := range append(ExperimentNames(), "all", `"bogus"`) {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not mention %s", err, name)
		}
	}
}
