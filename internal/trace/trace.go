// Package trace writes experiment results as CSV and JSON so figure
// series can be regenerated, diffed, and plotted outside Go.
//
// Despite the name, this package is about figure data — accuracy and
// latency curves — not execution tracing. Round-lifecycle execution
// traces (spans, phase timings, Chrome trace_event JSON for Perfetto)
// live in the public gsfl/obs package.
package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"gsfl/internal/metrics"
)

// WriteCurvesCSV writes several curves in long format:
// scheme,round,latency_seconds,loss,accuracy — the layout plotting tools
// expect for multi-series figures.
func WriteCurvesCSV(w io.Writer, curves []*metrics.Curve) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"scheme", "round", "latency_seconds", "loss", "accuracy"}); err != nil {
		return fmt.Errorf("trace: writing header: %w", err)
	}
	for _, c := range curves {
		for _, p := range c.Points {
			rec := []string{
				c.Scheme,
				strconv.Itoa(p.Round),
				strconv.FormatFloat(p.LatencySeconds, 'g', -1, 64),
				strconv.FormatFloat(p.Loss, 'g', -1, 64),
				strconv.FormatFloat(p.Accuracy, 'g', -1, 64),
			}
			if err := cw.Write(rec); err != nil {
				return fmt.Errorf("trace: writing point: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// SaveCurvesCSV writes curves to path, creating parent directories.
func SaveCurvesCSV(path string, curves []*metrics.Curve) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: creating directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: creating %s: %w", path, err)
	}
	defer f.Close()
	if err := WriteCurvesCSV(f, curves); err != nil {
		return err
	}
	return f.Close()
}

// Row is one generic result record (ablation tables, breakdowns).
type Row map[string]any

// Table is an ordered collection of rows sharing a column set.
type Table struct {
	Name    string   `json:"name"`
	Columns []string `json:"columns"`
	Rows    []Row    `json:"rows"`
}

// NewTable creates a table with a fixed column order.
func NewTable(name string, columns ...string) *Table {
	return &Table{Name: name, Columns: columns}
}

// Add appends a row; missing columns render as empty cells.
func (t *Table) Add(r Row) { t.Rows = append(t.Rows, r) }

// WriteCSV renders the table with its declared column order.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return fmt.Errorf("trace: writing table header: %w", err)
	}
	for _, r := range t.Rows {
		rec := make([]string, len(t.Columns))
		for i, col := range t.Columns {
			if v, ok := r[col]; ok {
				rec[i] = fmt.Sprint(v)
			}
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: writing table row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// SaveCSV writes the table to path, creating parent directories.
func (t *Table) SaveCSV(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: creating directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: creating %s: %w", path, err)
	}
	defer f.Close()
	if err := t.WriteCSV(f); err != nil {
		return err
	}
	return f.Close()
}

// WriteJSON renders the table as indented JSON.
func (t *Table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(t); err != nil {
		return fmt.Errorf("trace: encoding table: %w", err)
	}
	return nil
}
