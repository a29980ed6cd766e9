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

func TestTableCSV(t *testing.T) {
	tbl := NewTable("latency", "scheme", "seconds")
	tbl.Add(Row{"scheme": "gsfl", "seconds": 686.4})
	tbl.Add(Row{"scheme": "sl", "seconds": 1001.2})
	tbl.Add(Row{"scheme": "mystery"}) // missing column -> empty cell
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[1][1] != "686.4" {
		t.Fatalf("cell = %q", recs[1][1])
	}
	if recs[3][1] != "" {
		t.Fatalf("missing column should be empty, got %q", recs[3][1])
	}
}

func TestTableJSON(t *testing.T) {
	tbl := NewTable("t", "a")
	tbl.Add(Row{"a": 1})
	var buf bytes.Buffer
	if err := tbl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, `"name": "t"`) || !strings.Contains(s, `"a": 1`) {
		t.Fatalf("JSON output: %s", s)
	}
}

func TestTableSaveCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out", "table.csv")
	tbl := NewTable("x", "col")
	tbl.Add(Row{"col": "v"})
	if err := tbl.SaveCSV(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
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
	tbl := NewTable("t", "a")
	tbl.Add(Row{"a": 1})
	if err := tbl.WriteCSV(&failWriter{n: 0}); err == nil {
		t.Fatal("expected CSV write error")
	}
	if err := tbl.WriteJSON(&failWriter{n: 0}); err == nil {
		t.Fatal("expected JSON write error")
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
	tbl := NewTable("t", "a")
	if err := tbl.SaveCSV(bad); err == nil {
		t.Fatal("expected path error")
	}
}
