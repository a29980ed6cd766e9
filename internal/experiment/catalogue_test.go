package experiment

import (
	"bufio"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"gsfl/env"
)

// catalogueAll is "-exp all" at test scale with 2 rounds the way
// gsfl-sweep runs it — select, execute each unique job once — shared by
// the tests that look at what it writes.
var catalogueAll = sync.OnceValues(func() (allRun, error) {
	sel, err := SelectGridExperiments(GridExperiments(env.TestSpec(), 2, 2, 0.3), "all")
	if err != nil {
		return allRun{}, err
	}
	byID := map[string]JobResult{}
	results := make([]JobResult, len(sel.Jobs))
	for i, j := range sel.Jobs {
		res, ok := byID[j.ID]
		if !ok {
			if res, err = RunJob(context.Background(), j, nil); err != nil {
				return allRun{}, err
			}
			byID[j.ID] = res
		}
		results[i] = res
	}
	return allRun{sel, results}, nil
})

type allRun struct {
	sel     GridSelection
	results []JobResult
}

// saveAll writes catalogueAll's CSVs into a fresh directory.
func saveAll(t *testing.T) (dir string, sel GridSelection) {
	t.Helper()
	all, err := catalogueAll()
	if err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	if err := all.sel.Save(dir, all.results, nil); err != nil {
		t.Fatal(err)
	}
	return dir, all.sel
}

// TestCatalogueAllWritesSeventeenFiles pins the exact set of artifacts
// of "-exp all": 15 experiments, the 16 CSVs their Outputs declare,
// nothing else. (It is named for the 17 files the catalogue wrote while
// it still held the numeric-mode study.)
func TestCatalogueAllWritesSeventeenFiles(t *testing.T) {
	dir, sel := saveAll(t)
	if got := names(sel.Experiments); !reflect.DeepEqual(got, ExperimentNames()) || len(got) != 15 {
		t.Fatalf("\"all\" selected %v, catalogue names are %v", got, ExperimentNames())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	for _, e := range sel.Experiments {
		for _, o := range e.Outputs {
			want = append(want, o.File)
		}
	}
	sort.Strings(want)
	if len(want) != 16 || !reflect.DeepEqual(got, want) {
		t.Fatalf("-exp all wrote %v, want the 16 files %v", got, want)
	}
}

// TestCatalogueBytesPinned holds every CSV of "-exp all" to the bytes
// the hand-written folds produced before the catalogue became rows of
// data: testdata/catalogue_sha256.txt was generated from the parent
// commit's gsfl-sweep binary (-exp all -scale test -rounds 2). A header,
// a format verb, a column order or a file name edited in the catalogue
// fails here.
func TestCatalogueBytesPinned(t *testing.T) {
	dir, _ := saveAll(t)
	pins, err := os.Open(filepath.Join("testdata", "catalogue_sha256.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer pins.Close()
	pinned := 0
	for sc := bufio.NewScanner(pins); sc.Scan(); {
		want, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok || strings.HasPrefix(sc.Text(), "#") {
			continue
		}
		buf, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf)); got != want {
			t.Errorf("%s: sha256 %s, pinned %s; contents:\n%s", name, got, want, buf)
		}
		pinned++
	}
	if pinned != 16 {
		t.Fatalf("pin file covers %d CSVs, want 16", pinned)
	}
}

// TestReadmeTableMatchesCatalogue: README's "Which experiment
// regenerates which paper result" table is hand-kept; it must list
// exactly the catalogue's entries with exactly their output files, in
// catalogue order.
func TestReadmeTableMatchesCatalogue(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "## Which experiment regenerates which paper result")
	if !ok {
		t.Fatal("README has no \"Which experiment regenerates which paper result\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	row := regexp.MustCompile("(?m)^\\|[^|]*\\| `([a-z0-9]+)` \\| (.*) \\|$")
	var got []string
	for _, m := range row.FindAllStringSubmatch(section, -1) {
		got = append(got, m[1]+": "+strings.ReplaceAll(m[2], "`", ""))
	}
	var want []string
	files := 0
	for _, e := range GridExperiments(env.TestSpec(), 2, 2, 0.3) {
		var fs []string
		for _, o := range e.Outputs {
			fs = append(fs, o.File)
		}
		files += len(fs)
		want = append(want, e.Name+": "+strings.Join(fs, ", "))
	}
	if len(want) != 15 || files != 16 || !reflect.DeepEqual(got, want) {
		t.Fatalf("README table lists\n  %s\nthe catalogue has %d entries, %d files\n  %s",
			strings.Join(got, "\n  "), len(want), files, strings.Join(want, "\n  "))
	}
}

// TestSelectUnknownExperimentListsCatalogue: an unknown -exp token is
// the catalogue's error, and it names every accepted token.
func TestSelectUnknownExperimentListsCatalogue(t *testing.T) {
	_, err := SelectGridExperiments(GridExperiments(env.TestSpec(), 2, 2, 0.3), "bogus")
	if err == nil {
		t.Fatal("expected an error for an unknown experiment")
	}
	if len(ExperimentNames()) != 15 {
		t.Fatalf("catalogue has %d names, want 15: %v", len(ExperimentNames()), ExperimentNames())
	}
	for _, name := range append(ExperimentNames(), "all", `"bogus"`) {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not mention %s", err, name)
		}
	}
}
