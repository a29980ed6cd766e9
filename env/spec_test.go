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

// FuzzSpecJSON decodes arbitrary bytes as a Spec and validates it,
// which must never panic. A spec Validate accepts must keep the Spec
// doc's promise that it marshals to JSON and back without loss: its
// canonical form marshals, unmarshals, re-validates and re-canonicalizes
// to the same bytes. The last seed carries "numeric", a key specs no
// longer have.
func FuzzSpecJSON(f *testing.F) {
	popSpec := env.TestSpec()
	popSpec.Population = 24
	popSpec.SampleFraction = 0.25
	popSpec.AvailTrace = "onoff"
	popSpec.DeviceProfileMix = "low-end:0.5,baseline:0.5"
	for _, s := range []env.Spec{env.PaperSpec(), env.TestSpec(), popSpec} {
		buf, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	buf, err := json.Marshal(env.TestSpec())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(`{"numeric":"fast",`), buf[1:]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		var s env.Spec
		if json.Unmarshal(data, &s) != nil || s.Validate() != nil {
			return
		}
		canon, err := s.Canonical()
		if err != nil {
			t.Fatalf("Validate accepted a spec Canonical rejects: %v", err)
		}
		first, err := json.Marshal(canon)
		if err != nil {
			t.Fatalf("marshalling an accepted spec: %v", err)
		}
		var back env.Spec
		if err := json.Unmarshal(first, &back); err != nil {
			t.Fatalf("unmarshalling %s: %v", first, err)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("the round trip of an accepted spec is rejected: %v\n%s", err, first)
		}
		recanon, err := back.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		second, err := json.Marshal(recanon)
		if err != nil {
			t.Fatal(err)
		}
		if string(first) != string(second) {
			t.Fatalf("the canonical spec changed in a JSON round trip:\n  %s\n  %s", first, second)
		}
	})
}
