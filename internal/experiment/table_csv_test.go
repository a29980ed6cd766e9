package experiment

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func readCSV(t *testing.T, path string) [][]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestTableCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "latency.csv")
	err := saveTableCSV(path, []string{"scheme", "seconds", "reached"}, [][]any{
		{"gsfl", 686.4, true},
		{"sl", "1001.20", false},
		{"mystery", nil, false}, // nil -> empty cell
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := readCSV(t, path)
	if len(recs) != 4 {
		t.Fatalf("got %d records", len(recs))
	}
	if strings.Join(recs[0], ",") != "scheme,seconds,reached" {
		t.Fatalf("header order = %v", recs[0])
	}
	if recs[1][1] != "686.4" || recs[1][2] != "true" || recs[2][1] != "1001.20" {
		t.Fatalf("cells = %v", recs[1:3])
	}
	if recs[3][1] != "" {
		t.Fatalf("nil cell should be empty, got %q", recs[3][1])
	}
}

func TestTableSaveCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out", "table.csv")
	if err := saveTableCSV(path, []string{"col"}, [][]any{{"v"}}); err != nil {
		t.Fatal(err)
	}
	if recs := readCSV(t, path); len(recs) != 2 || recs[1][0] != "v" {
		t.Fatalf("table.csv = %v", recs)
	}
}

func TestTableWriteErrorsPropagate(t *testing.T) {
	// A row narrower or wider than the header is the caller's bug, and
	// an error — not a silently shifted column.
	path := filepath.Join(t.TempDir(), "t.csv")
	if err := saveTableCSV(path, []string{"a", "b"}, [][]any{{1, 2}, {3}}); err == nil || !strings.Contains(err.Error(), "row 1") {
		t.Fatalf("expected a row-width error naming row 1, got %v", err)
	}
	// /dev/full accepts the open and fails the write.
	if _, err := os.Stat("/dev/full"); err == nil {
		if err := saveTableCSV("/dev/full", []string{"a"}, [][]any{{1}}); err == nil {
			t.Fatal("expected CSV write error")
		}
	}
	// A path whose parent is a file cannot be created.
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := saveTableCSV(filepath.Join(blocker, "sub", "out.csv"), []string{"a"}, nil); err == nil {
		t.Fatal("expected path error")
	}
}
