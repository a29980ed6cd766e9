// Package trace writes experiment results as CSV so figure series and
// tables can be regenerated, diffed, and plotted outside Go.
//
// Despite the name, this package is about figure data — accuracy and
// latency curves — not execution tracing. Round-lifecycle execution
// traces (spans, phase timings, Chrome trace_event JSON for Perfetto)
// live in the public gsfl/obs package.
package trace

import (
	"encoding/csv"
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
	return save(path, func(w io.Writer) error { return WriteCurvesCSV(w, curves) })
}

// SaveTableCSV writes a header row and one record per row to path,
// creating parent directories. Cells render through fmt.Sprint; a nil
// cell is empty. Every row must be as wide as the header.
func SaveTableCSV(path string, header []string, rows [][]any) error {
	return save(path, func(w io.Writer) error {
		cw := csv.NewWriter(w)
		if err := cw.Write(header); err != nil {
			return fmt.Errorf("trace: writing table header: %w", err)
		}
		rec := make([]string, len(header))
		for i, row := range rows {
			if len(row) != len(header) {
				return fmt.Errorf("trace: table row %d has %d cells for %d columns", i, len(row), len(header))
			}
			for k, v := range row {
				rec[k] = ""
				if v != nil {
					rec[k] = fmt.Sprint(v)
				}
			}
			if err := cw.Write(rec); err != nil {
				return fmt.Errorf("trace: writing table row: %w", err)
			}
		}
		cw.Flush()
		return cw.Error()
	})
}

// save creates path (and its parent directories) and streams write's
// output into it.
func save(path string, write func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: creating directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: creating %s: %w", path, err)
	}
	defer f.Close()
	if err := write(f); err != nil {
		return err
	}
	return f.Close()
}
