package metrics

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

// WriteCurvesCSV writes several curves in long format:
// scheme,round,latency_seconds,loss,accuracy — the layout plotting tools
// expect for multi-series figures, so figure series can be regenerated,
// diffed, and plotted outside Go.
func WriteCurvesCSV(w io.Writer, curves []*Curve) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"scheme", "round", "latency_seconds", "loss", "accuracy"}); err != nil {
		return fmt.Errorf("metrics: writing header: %w", err)
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
				return fmt.Errorf("metrics: writing point: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// SaveCurvesCSV writes curves to path, creating parent directories.
func SaveCurvesCSV(path string, curves []*Curve) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("metrics: creating directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("metrics: creating %s: %w", path, err)
	}
	defer f.Close()
	if err := WriteCurvesCSV(f, curves); err != nil {
		return err
	}
	return f.Close()
}
