package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gsfl/env"
	"gsfl/sweep"
)

func TestRunNamedExperiment(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	err := run(context.Background(), []string{
		"-exp", "fig2b", "-scale", "test", "-rounds", "2", "-jobs", "2", "-quiet", "-out", dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"manifest.jsonl", "fig2b.csv"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("missing %s: %v", f, err)
		}
	}
}

func TestRunGridFileAndResume(t *testing.T) {
	tmp := t.TempDir()
	grid := filepath.Join(tmp, "grid.json")
	if err := os.WriteFile(grid, []byte(`{
		"name": "mini",
		"rounds": 2, "eval_every": 1,
		"axes": {"dropouts": [0, 0.2], "schemes": ["gsfl"]}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(tmp, "store")
	args := []string{"-grid", grid, "-scale", "test", "-jobs", "2", "-quiet", "-out", dir}
	if err := run(context.Background(), args); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(filepath.Join(dir, "manifest.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	// A second run without -resume must refuse the populated store.
	if err := run(context.Background(), args); err == nil {
		t.Fatal("expected refusal to reuse a store without -resume")
	}
	// With -resume it skips everything and leaves the manifest unchanged.
	if err := run(context.Background(), append(args, "-resume")); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(filepath.Join(dir, "manifest.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("resume of a complete sweep changed the manifest")
	}
}

func TestRunFlagValidation(t *testing.T) {
	if err := run(context.Background(), nil); err == nil {
		t.Fatal("expected error when neither -grid nor -exp is given")
	}
	if err := run(context.Background(), []string{"-grid", "x.json", "-exp", "fig2a"}); err == nil {
		t.Fatal("expected error when both -grid and -exp are given")
	}
}

func TestRunRejectsBadScale(t *testing.T) {
	if err := run(context.Background(), []string{"-exp", "fig2a", "-scale", "bogus"}); err == nil {
		t.Fatal("expected error for unknown scale")
	}
}

// TestRunRejectsUnknownExperiment: the error is the catalogue's, names
// what -exp accepts, and arrives before any store is created.
func TestRunRejectsUnknownExperiment(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "s")
	err := run(context.Background(), []string{"-exp", "bogus", "-scale", "test", "-out", dir})
	if err == nil || !strings.Contains(err.Error(), "validate") {
		t.Fatalf("expected an unknown-experiment error listing the catalogue, got %v", err)
	}
	if _, statErr := os.Stat(dir); !os.IsNotExist(statErr) {
		t.Fatalf("unknown -exp left a store behind: %v", statErr)
	}
}

// TestRunSingleExperiments runs every -exp name alone at test scale with
// very few rounds and checks its CSV set. table3 and validate have no
// jobs: they must write their CSV without opening a store — so they
// leave no manifest, and run again into the same directory without
// -resume.
func TestRunSingleExperiments(t *testing.T) {
	// What each entry writes is the catalogue's to say (its Outputs);
	// the catalogue's own tests pin the 16 names and 17 files.
	cases := map[string][]string{}
	for _, e := range sweep.GridExperiments(sweep.Spec{}, 2, 2, 0.3) {
		for _, o := range e.Outputs {
			cases[e.Name] = append(cases[e.Name], o.File)
		}
	}
	if len(cases) != len(sweep.ExperimentNames()) {
		t.Fatalf("%d cases for catalogue %v", len(cases), sweep.ExperimentNames())
	}
	for exp, files := range cases {
		t.Run(exp, func(t *testing.T) {
			dir := t.TempDir()
			args := []string{"-exp", exp, "-scale", "test", "-rounds", "2", "-quiet", "-out", dir}
			if err := run(context.Background(), args); err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
					t.Fatalf("missing artifact %s: %v", f, err)
				}
			}
			if exp == "table3" || exp == "validate" {
				if sweep.StoreExists(dir) {
					t.Fatal("a zero-job experiment opened a store")
				}
				if err := run(context.Background(), args); err != nil {
					t.Fatalf("second run into the same directory: %v", err)
				}
			}
		})
	}
}

// TestRunJobsEquivalence pins the figure contract: the CSVs are
// byte-identical at -jobs 1 (the serial reference) and at -jobs 4.
func TestRunJobsEquivalence(t *testing.T) {
	dirSerial, dirJobs := t.TempDir(), t.TempDir()
	for dir, jobs := range map[string]string{dirSerial: "1", dirJobs: "4"} {
		if err := run(context.Background(), []string{"-exp", "fig2a", "-scale", "test", "-rounds", "2", "-jobs", jobs, "-quiet", "-out", dir}); err != nil {
			t.Fatal(err)
		}
	}
	a, err := os.ReadFile(filepath.Join(dirSerial, "fig2a.csv"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dirJobs, "fig2a.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("fig2a.csv differs between -jobs 1 and -jobs 4:\n%s\nvs\n%s", a, b)
	}
}

func TestListFlag(t *testing.T) {
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run(context.Background(), []string{"-list"})
	os.Stdout = old
	w.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	buf, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	out := string(buf)
	for _, want := range []string{"schemes:", "allocators:", "strategies:", "archs:", "datasets:", "latency-min", "round-robin"} {
		if !strings.Contains(out, want) {
			t.Fatalf("-list output missing %q:\n%s", want, out)
		}
	}
}

// TestGridFileBasePatch drives the env.Spec patch path: the grid file
// overrides base-spec fields (here the allocator and image size) that
// no axis sweeps, so external grids can express full world
// configurations.
func TestGridFileBasePatch(t *testing.T) {
	tmp := t.TempDir()
	grid := filepath.Join(tmp, "grid.json")
	if err := os.WriteFile(grid, []byte(`{
		"name": "patched",
		"rounds": 2, "eval_every": 1,
		"base": {"alloc": "latency-min", "train_per_client": 20},
		"axes": {"schemes": ["gsfl"]}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(tmp, "store")
	if err := run(context.Background(), []string{"-grid", grid, "-scale", "test", "-quiet", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(dir, "manifest.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(manifest), `"name":"patched"`) {
		t.Fatalf("manifest missing patched job: %s", manifest)
	}

	// A bad patch must fail up front with a field-specific error.
	bad := filepath.Join(tmp, "bad.json")
	if err := os.WriteFile(bad, []byte(`{
		"name": "broken", "rounds": 2, "eval_every": 1,
		"base": {"alloc": "no-such-policy"},
		"axes": {"schemes": ["gsfl"]}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-grid", bad, "-scale", "test", "-quiet", "-out", filepath.Join(tmp, "store2")}); err == nil || !strings.Contains(err.Error(), "Alloc") {
		t.Fatalf("expected base-spec validation error, got %v", err)
	}
}

// TestGridFileRejectsUnknownKeys: a misspelt key — at the top level, in
// "axes", or in the "base" patch — used to be dropped, so the sweep ran
// (here: one default cell instead of four) and exited 0. It is now an
// error naming the key and the file, before any store exists.
func TestGridFileRejectsUnknownKeys(t *testing.T) {
	for key, body := range map[string]string{
		"alpha":     `{"name":"typo","rounds":2,"eval_every":1,"axes":{"alpha":[0.1,1],"schemes":["gsfl","sl"]}}`,
		"scheme":    `{"name":"typo","rounds":2,"eval_every":1,"axes":{"alphas":[0.1,1],"scheme":["gsfl","sl"]}}`,
		"allocator": `{"name":"typo","rounds":2,"eval_every":1,"base":{"allocator":"latency-min"},"axes":{"alphas":[0.1,1]}}`,
		"round":     `{"name":"typo","round":2,"eval_every":1,"axes":{"alphas":[0.1,1]}}`,
	} {
		t.Run(key, func(t *testing.T) {
			tmp := t.TempDir()
			grid := filepath.Join(tmp, "typo.json")
			if err := os.WriteFile(grid, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			dir := filepath.Join(tmp, "store")
			err := run(context.Background(), []string{"-grid", grid, "-scale", "test", "-quiet", "-out", dir})
			if err == nil || !strings.Contains(err.Error(), `"`+key+`"`) || !strings.Contains(err.Error(), "typo.json") {
				t.Fatalf("expected an error naming %q and the file, got %v", key, err)
			}
			if _, statErr := os.Stat(dir); !os.IsNotExist(statErr) {
				t.Fatalf("a rejected grid file left a store behind: %v", statErr)
			}
		})
	}
}

// TestHostileHardwareIsAnError: an out-of-range Wireless or Device
// value is an error naming the field, never a panic or a hang, at every
// door outside input comes through — Spec.Validate, env.Build, a grid
// file's base patch, and a job arriving over the fleet wire.
func TestHostileHardwareIsAnError(t *testing.T) {
	for field, patch := range map[string]string{
		"Wireless.OutageProb":      `{"wireless":{"OutageProb":1.5}}`,
		"Wireless.UplinkHz":        `{"wireless":{"UplinkHz":0}}`,
		"Wireless.DownlinkHz":      `{"wireless":{"DownlinkHz":-20e6}}`,
		"Wireless.MinDistanceM":    `{"wireless":{"MinDistanceM":0}}`,
		"Wireless.MaxDistanceM":    `{"wireless":{"MaxDistanceM":1}}`,
		"Wireless.FadingJitter":    `{"wireless":{"FadingJitter":1}}`,
		"Wireless.MobilitySigmaM":  `{"wireless":{"MobilitySigmaM":1e9}}`,
		"Device.ServerFLOPS":       `{"device":{"ServerFLOPS":-1}}`,
		"Device.ClientMedianFLOPS": `{"device":{"ClientMedianFLOPS":0}}`,
		"Device.ClientSpread":      `{"device":{"ClientSpread":-0.5}}`,
	} {
		t.Run(field, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			names := func(door string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), field) {
					t.Fatalf("%s: error %v, want one naming %s", door, err, field)
				}
			}
			spec := env.TestSpec()
			if err := decodeStrict([]byte(patch), &spec); err != nil {
				t.Fatal(err)
			}
			names("Spec.Validate", spec.Validate())
			_, err := env.Build(spec)
			names("env.Build", err)

			grid := filepath.Join(t.TempDir(), "hostile.json")
			body := `{"name":"hostile","rounds":1,"eval_every":1,"base":` + patch + `,"axes":{"schemes":["gsfl"]}}`
			if err := os.WriteFile(grid, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = loadGrid(grid, env.TestSpec(), 1, 1)
			names("loadGrid", err)

			// Grid expansion canonicalizes but does not validate, so a
			// coordinator handed this grid ships the job with a consistent
			// ID; the worker must still refuse to run it.
			jobs, err := sweep.Grid{Name: "hostile", Base: spec, Rounds: 1, EvalEvery: 1,
				Axes: sweep.Axes{Schemes: []string{"gsfl"}}}.Jobs()
			if err != nil {
				t.Fatal(err)
			}
			wire, err := sweep.MarshalJobWire(jobs[0])
			if err != nil {
				t.Fatal(err)
			}
			j, err := sweep.UnmarshalJobWire(wire)
			if err == nil {
				_, err = sweep.RunLeased(context.Background(), j, t.TempDir(), 0, nil, sweep.LeaseCallbacks{})
			}
			names("UnmarshalJobWire+RunLeased", err)
		})
	}
}
