// Command bench is the repository's one benchmark: six workloads, the
// same six end-to-end metrics on each, and a traced pass that attributes
// the time layer by layer (kernel → nn layer → split step → round → sweep
// job → TCP round → fleet makespan). BENCHMARK.json at the repository
// root is its contract; README.md in this directory is the manual.
//
//	go run ./internal/bench -seed 1 -out a.json     # all six workloads, tracing off
//	go run ./internal/bench -seed 1 -trace t.json   # the traced pass: per-layer metrics, attribution, one Perfetto file
//	go run ./internal/bench -workload tcp_echo -seed 3 -seconds 15 -trace 0
//	go run ./internal/bench -compare a.json b.json
//
// Every workload runs in a fresh child process of this binary (clean
// heap, clean parallel/numeric-mode globals, peak RSS from the child's
// rusage) with GOMAXPROCS and the worker count pinned to 2.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"gsfl/obs"
)

var processStart = time.Now()

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what one run of one workload reports; its four JSON keys
// are the last line a single-workload invocation prints.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// runRecord is a Result with its provenance, as kept in the -out file.
// A timed run's metrics are the six end-to-end ones and host_slowdown;
// a traced run has none of its own (the per-layer metrics are the file's
// Layers).
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Ops      int    `json:"ops"`
	Traced   bool   `json:"traced"`
	Result
	Samples int               `json:"samples"`
	Checks  map[string]string `json:"checks,omitempty"`
	Errors  []string          `json:"errors,omitempty"`
}

// failShare is failed ops over attempted ops; a failed output check
// makes it 1 for the whole run.
func (r *runRecord) failShare() float64 {
	if len(r.Errors) > 0 || r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// resultsFile is the -out document and the input of -compare.
type resultsFile struct {
	Go         string            `json:"go"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Workers    int               `json:"workers"`
	Seconds    int               `json:"seconds"`
	Quick      bool              `json:"quick"`
	Runs       []runRecord       `json:"runs"`
	Layers     map[string]Metric `json:"layers,omitempty"`
}

// childReport is what a child process prints as its last line: a
// workload's pass, or the probes' per-layer metrics.
type childReport struct {
	Pass   *pass             `json:"pass,omitempty"`
	Layers map[string]Metric `json:"layers,omitempty"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    string // "0": timed pass; "1": traced pass; else traced pass and the Perfetto file to write
	out      string
	quick    bool
	golden   string
}

func (o options) traced() bool { return o.trace != "0" }

// Kinds of child process.
const (
	childPass   = "pass"   // one pass of one workload
	childSetup  = "setup"  // the same, stopping when set-up is done
	childProbes = "probes" // the unit-cost probes
)

type childOptions struct {
	kind    string
	ops     int
	scratch string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run one workload and print its result as the last line (default: all six)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: world seed, loadgen seed, first grid seed")
	fs.IntVar(&o.seconds, "seconds", nominalSeconds, "measuring time the op counts are scaled to")
	fs.StringVar(&o.trace, "trace", "0", "0: timed pass, end-to-end metrics; 1 or a file name: traced pass, per-layer metrics and the attribution table; a file name also gets the Perfetto trace")
	fs.StringVar(&o.out, "out", "", "write every run's result to this JSON file")
	fs.BoolVar(&o.quick, "quick", false, "1/10 of the ops, checks on, percentiles short of samples refused: tests the harness, not the code")
	fs.StringVar(&o.golden, "update-golden", "", "record this run's exact outputs into the given golden.json")
	list := fs.Bool("list", false, "list workloads and metrics")
	compare := fs.Bool("compare", false, "compare two sides: bench -compare a.json b.json, each one -out file or a comma-separated list of them")
	var c childOptions
	fs.StringVar(&c.kind, "child", "", "internal: run one pass in this process")
	fs.IntVar(&c.ops, "ops", 0, "internal: timed op count")
	fs.StringVar(&c.scratch, "scratch", "", "internal: scratch directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *list:
		printList(stdout)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two sides")
			return 2
		}
		return compareFiles(stdout, stderr, fs.Arg(0), fs.Arg(1))
	case c.kind != "":
		return runChild(o, c, stdout, stderr)
	}
	if o.seconds < 1 || o.trace == "" {
		fmt.Fprintln(stderr, "bench: -seconds must be positive, -trace 0, 1 or a file name")
		return 2
	}
	if runtime.NumCPU() < pinnedProcs {
		fmt.Fprintf(stderr, "bench: this box has %d CPU, the benchmark is pinned to %d and does not rescale\n", runtime.NumCPU(), pinnedProcs)
		return 1
	}
	selected := workloads
	if o.workload != "" {
		w, ok := findWorkload(o.workload)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q (see -list)\n", o.workload)
			return 2
		}
		selected = []workload{w}
	}
	code, err := runBench(o, selected, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return code
}

// sameOutput names, for a workload, the earlier workload that does the
// same arithmetic another way and the exact output the two must share.
var sameOutput = map[string]struct{ as, check string }{
	"tcp_train":  {"sim_paper", "final_loss"},
	"fleet_grid": {"sweep_grid", "store_sha256"},
}

// runBench makes one pass — timed, or traced — over the selected
// workloads one after another; the traced pass ends with the probes and
// the attribution table. It returns 1 if any output check failed.
func runBench(o options, selected []workload, stdout, stderr io.Writer) (int, error) {
	file := resultsFile{Go: runtime.Version(), GOMAXPROCS: pinnedProcs, Workers: pinnedProcs, Seconds: o.seconds, Quick: o.quick}
	label := "all"
	if len(selected) == 1 {
		label = selected[0].name
	}
	tf, err := newTraceFile(o.trace)
	if err != nil {
		return 0, err
	}
	defer tf.close()
	code := 0
	done := map[string]*runRecord{}
	for _, w := range selected {
		rec, err := runWorkload(w, o, tf, stdout, stderr)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", w.name, err)
		}
		if same, ok := sameOutput[w.name]; ok && done[same.as] != nil {
			if a, b := done[same.as].Checks[same.check], rec.Checks[same.check]; a != b {
				rec.Errors = append(rec.Errors, fmt.Sprintf("%s %s differs from %s's %s", same.check, b, same.as, a))
			}
		}
		report(rec, w, stdout, stderr)
		if !rec.Correct {
			code = 1
		}
		done[w.name] = rec
		file.Runs = append(file.Runs, *rec)
	}
	if o.traced() {
		// The probes do not depend on the workload: one child measures
		// them once, whatever was selected.
		rep, _, err := spawn(childProbes, "", o, 0, tf, stderr)
		if err != nil {
			return 0, fmt.Errorf("probes: %w", err)
		}
		file.Layers = rep.Layers
		for _, m := range layerMetrics {
			printMetric(stdout, label, m.name, file.Layers)
		}
		printAttribution(stdout, label, file.Layers)
	}
	if err := tf.close(); err != nil {
		return 0, err
	}
	if o.out != "" {
		buf, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return 0, err
		}
		if err := os.WriteFile(o.out, append(buf, '\n'), 0o644); err != nil {
			return 0, err
		}
	}
	if o.golden != "" && !o.traced() {
		if err := updateGolden(o.golden, file.Runs); err != nil {
			return 0, err
		}
	}
	if len(selected) == 1 {
		// The driver's line: exactly BENCHMARK.json's end-to-end metrics
		// for a timed run, exactly its per-layer metrics for a traced one.
		res := file.Runs[0].Result
		if o.traced() {
			res.Metrics = file.Layers
		} else {
			res.Metrics = map[string]Metric{}
			for _, m := range contractMetrics() {
				if v, ok := file.Runs[0].Metrics[m.name]; ok {
					res.Metrics[m.name] = v
				}
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			return 0, err
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return code, nil
}

// setupRepeats is how many times set-up is measured per run, each in
// its own child; the run reports their median. One child's set-up is a
// single sample of a sub-second interval, too coarse to hold a bound.
const setupRepeats = 3

// tracedFraction of the timed op count is what the traced pass runs.
const tracedFraction = 4

// runWorkload makes one run of one workload: the measuring child plus
// the set-up-only children (timed pass), or the traced child. The
// record's verdict is left to report.
func runWorkload(w workload, o options, tf *traceFile, stdout, stderr io.Writer) (*runRecord, error) {
	ops := w.opsFor(o.seconds, o.quick)
	if o.traced() {
		if ops /= tracedFraction; ops < 1 {
			ops = 1
		}
	}
	rec := &runRecord{Workload: w.name, Seed: o.seed, Ops: ops, Traced: o.traced()}
	rep, rssMiB, err := spawn(childPass, w.name, o, ops, tf, stderr)
	if err != nil {
		return nil, err
	}
	p := rep.Pass
	rec.Attempted, rec.Failed, rec.Samples = p.Attempted, p.Failed, len(p.OpMs)
	rec.Checks, rec.Errors = p.Checks, p.Errors
	if o.traced() {
		return rec, nil
	}
	if g, ok := goldenFor(w.name, o.seed, ops); ok && o.golden == "" {
		for k, want := range g {
			if got := p.Checks[k]; got != want {
				rec.Errors = append(rec.Errors, fmt.Sprintf("golden %s: got %s, recorded %s", k, got, want))
			}
		}
	}
	setups := []float64{p.SetupS}
	for i := 1; i < setupRepeats; i++ {
		srep, _, err := spawn(childSetup, w.name, o, ops, tf, stderr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, srep.Pass.SetupS)
	}
	// Times are reported at the reference host speed (calib.go), which the
	// kernels run during the timed interval rate. Set-up is too short to
	// rate by itself — two or three kernels, and one slow one halves it —
	// so it takes the timed interval's rating: the interval starts as the
	// first set-up ends and the others follow it within seconds, and the
	// host's speed moves over tens of seconds.
	rec.Metrics = map[string]Metric{
		"setup_s":     {atRefSpeed(median(setups), p.KernelMs), "s"},
		"wall_s":      {atRefSpeed(p.WallS, p.KernelMs), "s"},
		"op_ms_p50":   {atRefSpeed(median(p.OpMs), p.KernelMs), "ms"},
		"peak_rss_mb": {rssMiB - streamBytes/(1<<20), "MiB"}, // less the harness's own calibration buffer
		hostSlowdown:  {p.KernelMs / refKernelMs, "ratio"},
	}
	if p90, err := percentile(p.OpMs, 0.9); err == nil {
		rec.Metrics["op_ms_p90"] = Metric{atRefSpeed(p90, p.KernelMs), "ms"}
	} else {
		fmt.Fprintf(stdout, "%s op_ms_p90 refused: %v\n", w.name, err)
	}
	return rec, nil
}

// report settles a run's verdict once every check on it has been made,
// and prints its metrics.
func report(rec *runRecord, w workload, stdout, stderr io.Writer) {
	rec.Correct = len(rec.Errors) == 0 && rec.Failed == 0 && rec.Attempted > 0
	for _, e := range rec.Errors {
		fmt.Fprintf(stderr, "bench: %s seed %d: check failed: %s\n", rec.Workload, rec.Seed, e)
	}
	if rec.Traced {
		fmt.Fprintf(stdout, "%s traced %d %ss correct=%v\n", w.name, rec.Attempted, w.op, rec.Correct)
		return
	}
	rec.Metrics[failShare] = Metric{rec.failShare(), "ratio"}
	for _, m := range endToEndMetrics {
		printMetric(stdout, w.name, m.name, rec.Metrics)
	}
	printMetric(stdout, w.name, hostSlowdown, rec.Metrics)
	fmt.Fprintf(stdout, "%s samples %d %ss\n", w.name, rec.Samples, w.op)
}

func printMetric(out io.Writer, label, name string, m map[string]Metric) {
	if v, ok := m[name]; ok {
		fmt.Fprintf(out, "%s %s %v %s\n", label, name, v.Value, v.Unit)
	}
}

// spawn runs one child of this binary and decodes its report; rssMiB is
// the child's peak resident set.
func spawn(kind, workload string, o options, ops int, tf *traceFile, stderr io.Writer) (*childReport, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	// Scratch lives under the working directory — the checkout — never
	// in the system temp directory.
	root := filepath.Join(".bench_build", "runs")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, 0, err
	}
	scratch, err := os.MkdirTemp(root, kind+"-")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(scratch)
	if scratch, err = filepath.Abs(scratch); err != nil {
		return nil, 0, err
	}
	part := tf.part(scratch)
	args := []string{"-child", kind, "-workload", workload, "-seed", fmt.Sprint(o.seed), "-ops", fmt.Sprint(ops),
		"-trace", part, "-scratch", scratch}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", pinnedProcs), "TMPDIR="+scratch)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = stderr
	started := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("child: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var rep childReport
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, 0, fmt.Errorf("child printed no report: %v", err)
	}
	if (kind == childProbes && rep.Layers == nil) || (kind != childProbes && rep.Pass == nil) {
		return nil, 0, fmt.Errorf("child's report is empty")
	}
	if err := tf.absorb(part, started); err != nil {
		return nil, 0, err
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, 0, fmt.Errorf("no rusage for the child")
	}
	return &rep, float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// runChild is the child process: one pass of one workload, traced or
// not, or the probes.
func runChild(o options, c childOptions, stdout, stderr io.Writer) int {
	var tracer *obs.Tracer
	if o.traced() {
		tracer = obs.New(obs.ClockWall)
	}
	var rep childReport
	var err error
	switch w, ok := findWorkload(o.workload); {
	case c.scratch == "":
		err = fmt.Errorf("-child needs -scratch")
	case c.kind == childProbes:
		rep.Layers, err = probes(o.seed, c.scratch, tracer, o.quick)
	case !ok || c.ops < 1:
		err = fmt.Errorf("-child %s needs -workload and -ops", c.kind)
	default:
		rc := &runCtx{seed: o.seed, ops: c.ops, warm: w.warm, setupOnly: c.kind == childSetup,
			tracer: tracer, lane: tracer.Lane("bench", w.name),
			scratch: filepath.Join(c.scratch, "pass"), start: processStart}
		rep.Pass, err = w.run(rc)
	}
	if err == nil && o.traced() && o.trace != "1" {
		err = tracer.WriteFile(o.trace) // the part the parent gathers
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s %s: %v\n", c.kind, o.workload, err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

//go:embed golden.json
var goldenJSON []byte

// goldenEntry pins one run's exact outputs: final loss, accuracy and
// virtual seconds for round workloads, byte counts for tcp_echo, the
// store hash for grids.
type goldenEntry struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Ops      int               `json:"ops"`
	Checks   map[string]string `json:"checks"`
}

func goldenFor(workload string, seed int64, ops int) (map[string]string, bool) {
	var entries []goldenEntry
	if err := json.Unmarshal(goldenJSON, &entries); err != nil {
		return nil, false
	}
	for _, e := range entries {
		if e.Workload == workload && e.Seed == seed && e.Ops == ops {
			return e.Checks, true
		}
	}
	return nil, false
}

// updateGolden merges the runs' outputs into the golden file at path,
// replacing entries with the same (workload, seed, ops).
func updateGolden(path string, recs []runRecord) error {
	var entries []goldenEntry
	if buf, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(buf, &entries); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	for _, r := range recs {
		e := goldenEntry{r.Workload, r.Seed, r.Ops, r.Checks}
		replaced := false
		for i := range entries {
			if entries[i].Workload == e.Workload && entries[i].Seed == e.Seed && entries[i].Ops == e.Ops {
				entries[i], replaced = e, true
			}
		}
		if !replaced {
			entries = append(entries, e)
		}
	}
	buf, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
