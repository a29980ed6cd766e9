package trace

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gsfl/internal/metrics"
)

func sampleCurve() *metrics.Curve {
	c := &metrics.Curve{Scheme: "gsfl"}
	c.Append(metrics.Point{Round: 1, LatencySeconds: 1.5, Loss: 2.1, Accuracy: 0.2})
	c.Append(metrics.Point{Round: 2, LatencySeconds: 3.0, Loss: 1.4, Accuracy: 0.5})
	return c
}

func TestWriteCurvesCSVLongFormat(t *testing.T) {
	var buf bytes.Buffer
	c2 := &metrics.Curve{Scheme: "sl"}
	c2.Append(metrics.Point{Round: 1, Accuracy: 0.1})
	if err := WriteCurvesCSV(&buf, []*metrics.Curve{sampleCurve(), c2}); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[1][0] != "gsfl" || recs[3][0] != "sl" {
		t.Fatalf("scheme column wrong: %v", recs)
	}
}

func TestSaveCurvesCSVCreatesDirs(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "nested", "deep", "fig2a.csv")
	if err := SaveCurvesCSV(path, []*metrics.Curve{sampleCurve()}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(b), "scheme,round") {
		t.Fatalf("file contents: %q", string(b)[:40])
	}
}

// readCSV parses a file SaveTableCSV wrote.
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
	err := SaveTableCSV(path, []string{"scheme", "seconds", "reached"}, [][]any{
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
	if err := SaveTableCSV(path, []string{"col"}, [][]any{{"v"}}); err != nil {
		t.Fatal(err)
	}
	if recs := readCSV(t, path); len(recs) != 2 || recs[1][0] != "v" {
		t.Fatalf("table.csv = %v", recs)
	}
}

// failWriter errors after n bytes, exercising error propagation.
type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, os.ErrClosed
	}
	if len(p) > f.n {
		p = p[:f.n]
	}
	f.n -= len(p)
	return len(p), nil
}

func TestWriteCurveCSVPropagatesErrors(t *testing.T) {
	if err := WriteCurvesCSV(&failWriter{n: 0}, []*metrics.Curve{sampleCurve()}); err == nil {
		t.Fatal("expected write error")
	}
}

func TestTableWriteErrorsPropagate(t *testing.T) {
	// A row narrower or wider than the header is the caller's bug, and
	// an error — not a silently shifted column.
	path := filepath.Join(t.TempDir(), "t.csv")
	if err := SaveTableCSV(path, []string{"a", "b"}, [][]any{{1, 2}, {3}}); err == nil || !strings.Contains(err.Error(), "row 1") {
		t.Fatalf("expected a row-width error naming row 1, got %v", err)
	}
	// /dev/full accepts the open and fails the write.
	if _, err := os.Stat("/dev/full"); err == nil {
		if err := SaveTableCSV("/dev/full", []string{"a"}, [][]any{{1}}); err == nil {
			t.Fatal("expected CSV write error")
		}
	}
}

func TestSaveCurvesCSVBadPath(t *testing.T) {
	// A path whose parent is a file cannot be created.
	dir := t.TempDir()
	blocker := filepath.Join(dir, "file")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(blocker, "sub", "out.csv")
	if err := SaveCurvesCSV(bad, []*metrics.Curve{sampleCurve()}); err == nil {
		t.Fatal("expected path error")
	}
	if err := SaveTableCSV(bad, []string{"a"}, nil); err == nil {
		t.Fatal("expected path error")
	}
}
