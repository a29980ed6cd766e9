package env_test

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"gsfl/env"
	"gsfl/sim"
)

// runSpec builds the spec's world, trains GSFL for rounds, and returns
// the curve (evaluating every round, so latencies and numerics are both
// pinned).
func runSpec(t *testing.T, spec env.Spec, rounds int, ropts ...sim.RunOption) *sim.Curve {
	t.Helper()
	world, err := env.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := spec.SchemeOptions()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.New("gsfl", world, opts)
	if err != nil {
		t.Fatal(err)
	}
	ropts = append([]sim.RunOption{sim.WithRounds(rounds), sim.WithEvalEvery(1)}, ropts...)
	curve, err := sim.NewRunner(tr, ropts...).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return curve
}

// TestSpecJSONRoundTrip is the serializability contract: marshal →
// unmarshal → Build must produce a bit-identical run versus the
// in-memory Spec (same losses, accuracies, and latencies at every
// evaluation).
func TestSpecJSONRoundTrip(t *testing.T) {
	spec := env.TestSpec()
	spec.Alloc = "latency-min"
	spec.Strategy = "compute-balanced"
	spec.Alpha = 0.5
	spec.Wireless.MobilitySigmaM = 5
	spec.Hyper.QuantizeTransfers = true

	buf, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var restored env.Spec
	if err := json.Unmarshal(buf, &restored); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, restored) {
		t.Fatalf("spec did not round-trip:\n  in  %+v\n  out %+v", spec, restored)
	}

	want := runSpec(t, spec, 3)
	got := runSpec(t, restored, 3)
	if !reflect.DeepEqual(want.Points, got.Points) {
		t.Fatalf("round-tripped spec trains differently:\n  want %+v\n  got  %+v", want.Points, got.Points)
	}
}

// TestSpecNormalizedDefaults: an empty extension name and the explicit
// default describe the same configuration.
func TestSpecNormalizedDefaults(t *testing.T) {
	spec := env.TestSpec()
	spec.Strategy, spec.Dataset, spec.Arch = "", "", ""
	n := spec.Normalized()
	if n.Strategy != env.DefaultStrategy || n.Dataset != env.DefaultDataset || n.Arch != env.DefaultArch {
		t.Fatalf("normalization wrong: %+v", n)
	}
	want := runSpec(t, env.TestSpec(), 2)
	got := runSpec(t, spec, 2)
	if !reflect.DeepEqual(want.Points, got.Points) {
		t.Fatal("empty extension names must build the default world")
	}
}

// TestSpecNumericByteStability pins the numeric field's inverse
// normalization: the default mode is erased from both the normalized
// spec and the JSON encoding, so every spec written before the field
// existed — and every spec that spells the default explicitly —
// produces the same bytes, hashes, and store entries.
func TestSpecNumericByteStability(t *testing.T) {
	plain := env.TestSpec()
	explicit := env.TestSpec()
	explicit.Numeric = env.DefaultNumericMode
	if n := explicit.Normalized(); n.Numeric != "" {
		t.Fatalf("Normalized kept the default numeric mode: %q", n.Numeric)
	}
	bufPlain, err := json.Marshal(plain.Normalized())
	if err != nil {
		t.Fatal(err)
	}
	bufExplicit, err := json.Marshal(explicit.Normalized())
	if err != nil {
		t.Fatal(err)
	}
	if string(bufPlain) != string(bufExplicit) {
		t.Fatalf("explicit default numeric mode changed the spec bytes:\n  %s\n  %s", bufPlain, bufExplicit)
	}
	if strings.Contains(string(bufPlain), "numeric") {
		t.Fatalf("default-mode spec JSON must omit the numeric field: %s", bufPlain)
	}

	fast := env.TestSpec()
	fast.Numeric = "fast"
	if n := fast.Normalized(); n.Numeric != "fast" {
		t.Fatalf("Normalized dropped a non-default numeric mode: %q", n.Numeric)
	}
	if err := fast.Validate(); err != nil {
		t.Fatal(err)
	}
	fast.Numeric = "bogus"
	if err := fast.Validate(); err == nil || !strings.Contains(err.Error(), "Numeric") {
		t.Fatalf("Validate must reject unknown numeric modes, got %v", err)
	}
}

// TestSpecValidate covers the eager field-specific validation Build
// runs before constructing anything.
func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*env.Spec)
		wantErr string
	}{
		{"zero clients", func(s *env.Spec) { s.Clients = 0 }, "Clients"},
		{"negative clients", func(s *env.Spec) { s.Clients = -3 }, "Clients"},
		{"zero groups", func(s *env.Spec) { s.Groups = 0 }, "Groups"},
		{"groups exceed clients", func(s *env.Spec) { s.Groups = s.Clients + 1 }, "Groups"},
		{"zero image size", func(s *env.Spec) { s.ImageSize = 0 }, "ImageSize"},
		{"zero train samples", func(s *env.Spec) { s.TrainPerClient = 0 }, "TrainPerClient"},
		{"zero test samples", func(s *env.Spec) { s.TestPerClass = 0 }, "TestPerClass"},
		{"negative alpha", func(s *env.Spec) { s.Alpha = -1 }, "Alpha"},
		{"infinite alpha", func(s *env.Spec) { s.Alpha = math.Inf(1) }, "Alpha"},
		{"NaN alpha", func(s *env.Spec) { s.Alpha = math.NaN() }, "Alpha"},
		{"negative cut", func(s *env.Spec) { s.Cut = -1 }, "Cut"},
		{"zero batch", func(s *env.Spec) { s.Hyper.Batch = 0 }, "batch"},
		{"zero steps", func(s *env.Spec) { s.Hyper.StepsPerClient = 0 }, "steps"},
		{"missing allocator", func(s *env.Spec) { s.Alloc = "" }, "allocator"},
		{"unknown allocator", func(s *env.Spec) { s.Alloc = "nope" }, "Alloc"},
		{"unknown strategy", func(s *env.Spec) { s.Strategy = "nope" }, "Strategy"},
		{"unknown dataset", func(s *env.Spec) { s.Dataset = "nope" }, "Dataset"},
		{"unknown arch", func(s *env.Spec) { s.Arch = "nope" }, "Arch"},
		{"negative dropout", func(s *env.Spec) { s.DropoutProb = -0.1 }, "DropoutProb"},
		{"dropout of one", func(s *env.Spec) { s.DropoutProb = 1 }, "DropoutProb"},
		{"NaN dropout", func(s *env.Spec) { s.DropoutProb = math.NaN() }, "DropoutProb"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := env.TestSpec()
			tc.mutate(&spec)
			err := spec.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name the field (want %q)", err, tc.wantErr)
			}
			if _, err := env.Build(spec); err == nil {
				t.Fatalf("Build accepted %s", tc.name)
			}
		})
	}
	// The cut upper bound needs the materialized arch, so it is a Build
	// check, still field-specific.
	spec := env.TestSpec()
	spec.Cut = 99
	if _, err := env.Build(spec); err == nil || !strings.Contains(err.Error(), "Cut") {
		t.Fatalf("Build must reject an out-of-range cut with a field error, got %v", err)
	}
	if err := env.TestSpec().Validate(); err != nil {
		t.Fatalf("TestSpec must validate: %v", err)
	}
	if err := env.PaperSpec().Validate(); err != nil {
		t.Fatalf("PaperSpec must validate: %v", err)
	}
}

// TestBuildDeterminism: two Builds of one Spec are independent worlds
// that train identically.
func TestBuildDeterminism(t *testing.T) {
	a := runSpec(t, env.TestSpec(), 2)
	b := runSpec(t, env.TestSpec(), 2)
	if !reflect.DeepEqual(a.Points, b.Points) {
		t.Fatal("Build is not deterministic")
	}
}
