package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// loadSide reads one side of a comparison — a comma-separated list of
// -out files, one run of each workload in each — into workload → metric
// → one value per timed run.
func loadSide(arg string) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	for _, path := range strings.Split(arg, ",") {
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f resultsFile
		if err := json.Unmarshal(buf, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range f.Runs {
			if r.Traced {
				continue
			}
			m := out[r.Workload]
			if m == nil {
				m = map[string][]float64{}
				out[r.Workload] = m
			}
			for name, v := range r.Metrics {
				m[name] = append(m[name], v.Value)
			}
		}
	}
	return out, nil
}

// compareFiles prints, per workload × end-to-end metric, both medians,
// their ratio with its base, the bound and the verdict; it returns 1 if
// any pairing is worse.
func compareFiles(stdout, stderr io.Writer, sideA, sideB string) int {
	a, err := loadSide(sideA)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	b, err := loadSide(sideB)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "base a = %s, candidate b = %s; ratio = b ÷ a, lower is better\n", sideA, sideB)
	fmt.Fprintf(stdout, "%-11s %-12s %5s %14s %14s %8s %6s  %s\n", "workload", "metric", "runs", "a (median)", "b (median)", "b/a", "bound", "verdict")
	code := 0
	for _, w := range workloads {
		for _, m := range endToEndMetrics {
			va, vb := a[w.name][m.name], b[w.name][m.name]
			switch {
			case len(va) == 0 && len(vb) == 0: // a -quick p90: refused on both sides
				fmt.Fprintf(stdout, "%-11s %-12s not reported\n", w.name, m.name)
				continue
			case len(va) == 0 || len(vb) == 0:
				fmt.Fprintf(stdout, "%-11s %-12s missing on one side\n", w.name, m.name)
				code = 1
				continue
			}
			ratio, verdict := compareBound(m.name, va, vb, m.bound)
			if verdict == verdictWorse {
				code = 1
			}
			fmt.Fprintf(stdout, "%-11s %-12s %2d/%-2d %14.6g %14.6g %8.4f %6.2f  %s\n",
				w.name, m.name, len(va), len(vb), median(va), median(vb), ratio, m.bound, verdict)
		}
	}
	return code
}
