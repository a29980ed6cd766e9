package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestPercentile(t *testing.T) {
	// 1..101: the q-quantile of an arithmetic sequence is exact.
	if got, err := percentile(seq(101), 0.9); err != nil || got != 91 {
		t.Errorf("p90 of 1..101 = %v, %v; want 91", got, err)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// Exactly ten samples beyond the p90 at 100 ops is the floor.
	if _, err := percentile(seq(100), 0.9); err != nil {
		t.Errorf("p90 of 100 samples refused: %v", err)
	}
	for _, tc := range []struct {
		n int
		q float64
	}{{99, 0.9}, {60, 0.9}, {100, 0.99}, {99, 0.1}, {19, 0.5}} {
		if _, err := percentile(seq(tc.n), tc.q); err == nil {
			t.Errorf("p%g of %d samples reported with fewer than %d beyond it", tc.q*100, tc.n, minTail)
		}
	}
	if _, err := percentile(seq(100), 0.1); err != nil {
		t.Errorf("p10 of 100 samples refused: %v", err)
	}
	for _, q := range []float64{0, 1, -0.5} {
		if _, err := percentile(seq(100), q); err == nil {
			t.Errorf("quantile %v accepted", q)
		}
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples accepted")
	}
}

func TestShareOfParent(t *testing.T) {
	if got := shareOfParent(120, 2.5, 300); got != 1 {
		t.Errorf("120 × 2.5 of 300 = %v, want 1", got)
	}
	if got := shareOfParent(0.05, 30, 150); math.Abs(got-0.01) > 1e-15 {
		t.Errorf("0.05 × 30 of 150 = %v, want 0.01", got)
	}
	if got := shareOfParent(3, 1, 0); got != 0 {
		t.Errorf("share of an unmeasured parent = %v, want 0", got)
	}
}

func TestCompareBound(t *testing.T) {
	tight := func(m float64) []float64 { return []float64{m * 0.99, m, m, m * 1.01} }
	noisy := func(m float64) []float64 { return []float64{m * 0.7, m * 0.9, m * 1.1, m * 1.3} }
	for _, tc := range []struct {
		name, metric string
		a, b         []float64
		bound        float64
		want         string
	}{
		{"inside the bound", "wall_s", tight(10), tight(10.9), 0.10, verdictOK},
		{"better", "wall_s", tight(10), tight(5), 0.10, verdictOK},
		{"beyond the bound", "wall_s", tight(10), tight(11.5), 0.10, verdictWorse},
		{"single runs", "op_ms_p50", []float64{100}, []float64{111}, 0.10, verdictWorse},
		{"spread wider than the bound", "op_ms_p90", noisy(10), tight(12), 0.15, verdictUnresolved},
		{"candidate spread wider than the bound", "op_ms_p90", tight(10), noisy(12), 0.15, verdictUnresolved},
		{"noisy but inside", "op_ms_p90", noisy(10), noisy(10.5), 0.15, verdictOK},
		{"set-up under the floor", "setup_s", tight(0.020), tight(0.060), 0.25, verdictOK},
		{"set-up over the floor", "setup_s", tight(1.0), tight(1.4), 0.25, verdictWorse},
		{"the floor is for set-up only", "wall_s", tight(0.020), tight(0.060), 0.25, verdictWorse},
		{"fail_share stays zero", failShare, []float64{0, 0}, []float64{0, 0}, 0, verdictOK},
		{"fail_share rises", failShare, []float64{0, 0}, []float64{0.01, 0.01}, 0, verdictWorse},
	} {
		if _, got := compareBound(tc.metric, tc.a, tc.b, tc.bound); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
	if ratio, _ := compareBound("wall_s", []float64{8}, []float64{10}, 0.1); ratio != 1.25 {
		t.Errorf("ratio = %v, want candidate ÷ base = 1.25", ratio)
	}
}

// TestHostMeter: the calibration kernel samples while the meter runs,
// and a time taken on a host twice as slow as the reference halves.
func TestHostMeter(t *testing.T) {
	h := startHostMeter()
	time.Sleep(3 * kernelPeriod)
	if ms := h.stopMedian(); !(ms > 0) || len(h.ms) < 2 {
		t.Errorf("median kernel %v ms over %d samples in three periods", ms, len(h.ms))
	}
	if got := atRefSpeed(10, 2*refKernelMs); got != 5 {
		t.Errorf("10 s on a host at half the reference speed = %v s at the reference, want 5", got)
	}
}

func TestOpsFor(t *testing.T) {
	w, _ := findWorkload("tcp_echo")
	for _, tc := range []struct {
		seconds int
		quick   bool
		want    int
	}{{nominalSeconds, false, 250}, {2 * nominalSeconds, false, 500}, {1, false, minOps}, {nominalSeconds, true, 25}} {
		if got := w.opsFor(tc.seconds, tc.quick); got != tc.want {
			t.Errorf("opsFor(%d, %v) = %d, want %d", tc.seconds, tc.quick, got, tc.want)
		}
	}
	for _, w := range workloads {
		if n := w.opsFor(nominalSeconds, false); n < minOps {
			t.Errorf("%s runs %d ops at the nominal time: its p90 would be refused", w.name, n)
		}
	}
}

// TestContractFile keeps BENCHMARK.json and the tables in this package
// saying the same thing.
func TestContractFile(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var c struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	if c.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds %d, nominalSeconds %d", c.RunSeconds, nominalSeconds)
	}
	if len(c.Paths) != 1 || c.Paths[0] != "internal/bench" {
		t.Errorf("paths %v", c.Paths)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the table", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file says %q, table %q", i, c.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if len(c.EndToEnd) != len(contractMetrics()) {
		t.Fatalf("%d end-to-end metrics in the file, %d in the table", len(c.EndToEnd), len(contractMetrics()))
	}
	for i, m := range contractMetrics() {
		f := c.EndToEnd[i]
		if f.Name != m.name || f.Unit != m.unit || f.Better != "lower" || f.Bound == nil || *f.Bound != m.bound {
			t.Errorf("end-to-end %d: file %+v, table %+v", i, f, m)
		}
	}
	if len(c.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics in the file, %d in the table", len(c.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		f := c.PerLayer[i]
		if f.Name != m.name || f.Unit != m.unit || f.Better != m.better || f.Bound != nil {
			t.Errorf("per-layer %d: file %+v, table %+v", i, f, m)
		}
	}
}

// TestAttributionRowsResolve: every row of the attribution table names
// metrics the traced pass reports.
func TestAttributionRowsResolve(t *testing.T) {
	known := map[string]bool{}
	for _, m := range layerMetrics {
		known[m.name] = true
	}
	for _, r := range attribRows() {
		if !known[r.child] || !known[r.parent] {
			t.Errorf("row %s of %s names an unreported metric", r.child, r.parent)
		}
	}
}

// TestQuick runs the whole harness — every workload in its child
// processes, the output checks, the golden comparison, the two-workload
// oracles, -out and -compare, then one traced pass with the probes and
// the attribution table — at a tenth of the ops.
func TestQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all six workloads")
	}
	if runtime.NumCPU() < pinnedProcs {
		t.Skipf("the benchmark is pinned to %d CPUs", pinnedProcs)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	bench := func(args ...string) (string, error) {
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir // scratch goes under the working directory
		out, err := cmd.CombinedOutput()
		return string(out), err
	}
	lastLine := func(out string) Result {
		t.Helper()
		lines := strings.Split(strings.TrimSpace(out), "\n")
		var keys map[string]json.RawMessage
		var res Result
		last := []byte(lines[len(lines)-1])
		if err := json.Unmarshal(last, &keys); err != nil || len(keys) != 4 || json.Unmarshal(last, &res) != nil {
			t.Fatalf("last line is not the four-key result: %v\n%s", err, last)
		}
		return res
	}
	results := filepath.Join(dir, "quick.json")
	out, err := bench("-quick", "-seed", "1", "-out", results)
	if err != nil {
		t.Fatalf("bench -quick: %v\n%s", err, out)
	}
	buf, err := os.ReadFile(results)
	if err != nil {
		t.Fatal(err)
	}
	var f resultsFile
	if err := json.Unmarshal(buf, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Runs) != len(workloads) {
		t.Fatalf("%d runs recorded, want %d", len(f.Runs), len(workloads))
	}
	for i, r := range f.Runs {
		if r.Workload != workloads[i].name || !r.Correct || r.Failed != 0 || r.Attempted != r.Ops {
			t.Errorf("run %d: %s correct=%v failed=%d attempted=%d of %d", i, r.Workload, r.Correct, r.Failed, r.Attempted, r.Ops)
		}
		if _, ok := goldenFor(r.Workload, 1, r.Ops); !ok {
			t.Errorf("%s: no golden entry for seed 1 at %d ops, so the exact comparison did not run", r.Workload, r.Ops)
		}
		for _, name := range []string{"setup_s", "wall_s", "op_ms_p50", "peak_rss_mb", hostSlowdown} {
			if !(r.Metrics[name].Value > 0) {
				t.Errorf("%s: %s = %v", r.Workload, name, r.Metrics[name].Value)
			}
		}
		if v, ok := r.Metrics[failShare]; !ok || v.Value != 0 {
			t.Errorf("%s: fail_share = %v, reported %v", r.Workload, v.Value, ok)
		}
		if !strings.Contains(out, r.Workload+" op_ms_p90 refused") {
			t.Errorf("%s: a p90 over %d samples was not refused", r.Workload, r.Samples)
		}
	}
	if out, err := bench("-compare", results, results+","+results); err != nil {
		t.Errorf("a result file compared with itself: %v\n%s", err, out)
	}

	// One workload on its own prints the contract's result line last:
	// BENCHMARK.json's metrics, so neither fail_share nor op_ms_p90.
	out, err = bench("-quick", "-workload", "tcp_echo", "-seed", "2", "-seconds", "15", "-trace", "0")
	if err != nil {
		t.Fatalf("bench -workload tcp_echo: %v\n%s", err, out)
	}
	res := lastLine(out)
	if len(res.Metrics) != len(contractMetrics()) {
		t.Errorf("timed result line has metrics %v", res.Metrics)
	}
	for _, m := range contractMetrics() {
		if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit || !(v.Value > 0) {
			t.Errorf("timed result line: %s = %v %q", m.name, v.Value, v.Unit)
		}
	}

	// The traced pass: every per-layer metric in the result line, the
	// attribution table with a share on every row, one Perfetto file.
	traceOut := filepath.Join(dir, "trace.json")
	out, err = bench("-quick", "-workload", "tcp_echo", "-seed", "2", "-trace", traceOut)
	if err != nil {
		t.Fatalf("bench -trace: %v\n%s", err, out)
	}
	res = lastLine(out)
	if !res.Correct || res.Attempted < 1 {
		t.Errorf("traced run: correct=%v attempted=%d", res.Correct, res.Attempted)
	}
	for _, m := range layerMetrics {
		if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit {
			t.Errorf("traced result line: %s missing or in %q, want %q", m.name, v.Unit, m.unit)
		}
	}
	for _, name := range []string{"schemes.split_step.share_of_round", "nn.share_of_split_step", "transport.over_sim_share",
		"fleet.overhead_share", "sweep.ckpt_share", "pop.begin_round.share_of_round"} {
		if !strings.Contains(out, "tcp_echo "+name+" ") {
			t.Errorf("%s not printed", name)
		}
	}
	rows := 0
	for _, ln := range strings.Split(out, "\n") {
		if strings.HasPrefix(ln, "  ") && strings.HasSuffix(ln, "%") {
			rows++
		}
	}
	if rows != len(attribRows()) {
		t.Errorf("attribution table has %d rows with a %% of parent, want %d\n%s", rows, len(attribRows()), out)
	}
	var trace struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if buf, err = os.ReadFile(traceOut); err == nil {
		err = json.Unmarshal(buf, &trace)
	}
	if err != nil {
		t.Fatalf("the Perfetto file: %v", err)
	}
	lanes := map[string]bool{}
	for _, e := range trace.TraceEvents {
		if e.Name == "thread_name" {
			lanes[fmt.Sprint(e.Pid/pidStride, " ", e.Args["name"])] = true
		}
	}
	if !lanes["0 tcp_echo"] || !lanes["1 probes"] {
		t.Errorf("the Perfetto file lacks the workload's or the probes' lane: %v", lanes)
	}
}
