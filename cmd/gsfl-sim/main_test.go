package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func tinyArgs(extra ...string) []string {
	base := []string{
		"-clients", "4", "-groups", "2", "-rounds", "2", "-eval-every", "1",
		"-image-size", "8", "-samples", "20", "-test-per-class", "1",
		"-batch", "4", "-steps", "1",
	}
	return append(base, extra...)
}

func runTiny(t *testing.T, args []string) {
	t.Helper()
	if err := run(context.Background(), args); err != nil {
		t.Fatal(err)
	}
}

func TestRunAllSchemes(t *testing.T) {
	for _, scheme := range []string{"gsfl", "sl", "fl", "cl", "sfl"} {
		if err := run(context.Background(), tinyArgs("-scheme", scheme)); err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
	}
}

func TestRunWritesCSV(t *testing.T) {
	out := filepath.Join(t.TempDir(), "curve.csv")
	runTiny(t, tinyArgs("-out", out))
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(b), "scheme,round") {
		t.Fatalf("csv content: %.40q", string(b))
	}
}

func TestRunAllocatorsAndStrategies(t *testing.T) {
	for _, alloc := range []string{"uniform", "propfair", "latmin"} {
		runTiny(t, tinyArgs("-alloc", alloc))
	}
	for _, st := range []string{"roundrobin", "random", "balanced"} {
		runTiny(t, tinyArgs("-strategy", st))
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	cases := map[string][]string{
		"bad scheme":          tinyArgs("-scheme", "bogus"),
		"bad alloc":           tinyArgs("-alloc", "bogus"),
		"bad strategy":        tinyArgs("-strategy", "bogus"),
		"bad flag":            {"-no-such-flag"},
		"numeric flag":        tinyArgs("-numeric", "fast"),
		"resume without ckpt": tinyArgs("-resume"),
	}
	for name, args := range cases {
		if err := run(context.Background(), args); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

// mainArgsEnv, when set, makes the test binary run main with its
// value's fields as the command line: the way to watch the process's
// exit status rather than run's error.
const mainArgsEnv = "GSFL_SIM_TEST_MAIN_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(mainArgsEnv); ok {
		os.Args = append([]string{"gsfl-sim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestNonFiniteFlagsExitOne runs the command with non-finite float
// flags. Each must exit 1 with an error naming the Spec field: an
// infinite Dirichlet concentration used to panic inside the
// partitioner, and NaN ones used to train and exit 0.
func TestNonFiniteFlagsExitOne(t *testing.T) {
	for _, c := range []struct{ flag, value, field string }{
		{"-alpha", "Inf", "Alpha"},
		{"-alpha", "NaN", "Alpha"},
		{"-dropout", "NaN", "DropoutProb"},
	} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), mainArgsEnv+"="+strings.Join(tinyArgs(c.flag, c.value), " "))
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("%s %s: exit %v, want status 1\n%s", c.flag, c.value, err, out)
		}
		if !strings.Contains(string(out), c.field) {
			t.Fatalf("%s %s: output does not name %s:\n%s", c.flag, c.value, c.field, out)
		}
	}
}

func TestJSONStreamShape(t *testing.T) {
	// -json writes to stdout; capture it through a pipe.
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run(context.Background(), tinyArgs("-json"))
	w.Close()
	os.Stdout = old
	if runErr != nil {
		t.Fatal(runErr)
	}

	sc := bufio.NewScanner(r)
	lines := 0
	for sc.Scan() {
		var ev jsonEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d not JSON: %v (%q)", lines+1, err, sc.Text())
		}
		lines++
		if ev.Round != lines || ev.Scheme != "gsfl" {
			t.Fatalf("line %d: unexpected event %+v", lines, ev)
		}
		if ev.RoundSeconds <= 0 || len(ev.Components) == 0 {
			t.Fatalf("line %d: missing latency breakdown: %+v", lines, ev)
		}
		// -eval-every 1: every round carries an evaluation.
		if ev.Loss == nil || ev.Accuracy == nil {
			t.Fatalf("line %d: missing evaluation: %+v", lines, ev)
		}
	}
	if lines != 2 {
		t.Fatalf("got %d JSON lines, want one per round (2)", lines)
	}
}

func TestCheckpointResumeCLI(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	// 2 rounds with a checkpoint each round, then resume to round 4.
	runTiny(t, tinyArgs("-checkpoint", ckpt, "-checkpoint-every", "1"))
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	args := append(tinyArgs("-checkpoint", ckpt, "-resume"), "-rounds", "4")
	runTiny(t, args)
	// Cadence inheritance: the resume above did not re-pass
	// -checkpoint-every, so per-round checkpointing must have continued
	// and the file must now hold round 4 — resuming past it works.
	runTiny(t, append(tinyArgs("-checkpoint", ckpt, "-resume"), "-rounds", "5"))
}

func TestResumeRejectsChangedFlagsCLI(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	runTiny(t, tinyArgs("-checkpoint", ckpt, "-checkpoint-every", "1"))
	// A different learning rate rebuilds a different env; the env
	// fingerprint must reject the resume.
	args := append(tinyArgs("-checkpoint", ckpt, "-resume", "-lr", "0.5"), "-rounds", "4")
	if err := run(context.Background(), args); err == nil {
		t.Fatal("resume with changed env flags must error")
	}
}

// captureStdout runs f with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	f()
	w.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteString("\n")
	}
	return sb.String()
}

func TestListFlag(t *testing.T) {
	out := captureStdout(t, func() {
		if err := run(context.Background(), []string{"-list"}); err != nil {
			t.Error(err)
		}
	})
	// One source of truth — the registries — so every built-in name must
	// stream through -list.
	for _, want := range []string{
		"schemes:", "gsfl", "allocators:", "proportional-fair",
		"strategies:", "compute-balanced", "archs:", "deepthin-cnn",
		"datasets:", "gtsrb-synth",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("-list output missing %q:\n%s", want, out)
		}
	}
}
