package metrics

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleCurve() *Curve {
	c := &Curve{Scheme: "gsfl"}
	c.Append(Point{Round: 1, LatencySeconds: 1.5, Loss: 2.1, Accuracy: 0.2})
	c.Append(Point{Round: 2, LatencySeconds: 3.0, Loss: 1.4, Accuracy: 0.5})
	return c
}

func TestWriteCurvesCSVLongFormat(t *testing.T) {
	var buf bytes.Buffer
	c2 := &Curve{Scheme: "sl"}
	c2.Append(Point{Round: 1, Accuracy: 0.1})
	if err := WriteCurvesCSV(&buf, []*Curve{sampleCurve(), c2}); err != nil {
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
	if err := SaveCurvesCSV(path, []*Curve{sampleCurve()}); err != nil {
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
	if err := WriteCurvesCSV(&failWriter{n: 0}, []*Curve{sampleCurve()}); err == nil {
		t.Fatal("expected write error")
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
	if err := SaveCurvesCSV(bad, []*Curve{sampleCurve()}); err == nil {
		t.Fatal("expected path error")
	}
}
