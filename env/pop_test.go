package env_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"gsfl/env"
	"gsfl/sim"
)

// popSpec is the canonical population configuration the tests exercise:
// a 24-member population churning through the on/off trace with a
// heterogeneous device mix, sampled 6 members (= every slot) per round.
func popSpec() env.Spec {
	s := env.TestSpec()
	s.Population = 4 * s.Clients
	s.SampleFraction = 0.25
	s.AvailTrace = "onoff"
	s.DeviceProfileMix = "low-end:0.5,baseline:0.5"
	return s
}

// TestPopulationSpecValidation covers the population-specific eager
// validation, in the same table style as TestSpecValidate.
func TestPopulationSpecValidation(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*env.Spec)
		wantErr string
	}{
		{"negative population", func(s *env.Spec) { s.Population = -1 }, "Population"},
		{"population below clients", func(s *env.Spec) { s.Population = s.Clients - 1 }, "Population"},
		{"fraction without population", func(s *env.Spec) {
			s.Population = 0
			s.SampleFraction = 0.5
			s.AvailTrace = ""
			s.DeviceProfileMix = ""
		}, "SampleFraction"},
		{"trace without population", func(s *env.Spec) { s.Population = 0; s.SampleFraction = 0; s.DeviceProfileMix = "" }, "AvailTrace"},
		{"mix without population", func(s *env.Spec) { s.Population = 0; s.SampleFraction = 0; s.AvailTrace = "" }, "DeviceProfileMix"},
		{"negative fraction", func(s *env.Spec) { s.SampleFraction = -0.1 }, "SampleFraction"},
		{"fraction above one", func(s *env.Spec) { s.SampleFraction = 1.5 }, "SampleFraction"},
		{"NaN fraction", func(s *env.Spec) { s.SampleFraction = math.NaN() }, "SampleFraction"},
		{"cohort exceeds slots", func(s *env.Spec) { s.SampleFraction = 0.5 }, "slots"},
		{"unknown trace", func(s *env.Spec) { s.AvailTrace = "nope" }, "AvailTrace"},
		{"malformed mix", func(s *env.Spec) { s.DeviceProfileMix = "low-end:zero" }, "DeviceProfileMix"},
		{"unknown mix profile", func(s *env.Spec) { s.DeviceProfileMix = "nope:1" }, "DeviceProfileMix"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := popSpec()
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
	if err := popSpec().Validate(); err != nil {
		t.Fatalf("the baseline population spec must validate: %v", err)
	}
}

// TestPopulationIdentityFastPath pins the compatibility contract: a
// population that is exactly the classic world — every client a member,
// full sampling, always-on, no profile mix — must not attach a
// population layer at all, so its numerics stay byte-identical to a
// spec with no population fields.
func TestPopulationIdentityFastPath(t *testing.T) {
	spec := env.TestSpec()
	spec.Population = spec.Clients
	spec.SampleFraction = 1

	world, err := env.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if world.Pop != nil {
		t.Fatal("the identity population configuration must short-circuit to the legacy path")
	}

	want := runSpec(t, env.TestSpec(), 3)
	got := runSpec(t, spec, 3)
	if !reflect.DeepEqual(want.Points, got.Points) {
		t.Fatalf("identity population trains differently:\n  want %+v\n  got  %+v", want.Points, got.Points)
	}
}

// TestPopulationAttachesOnActiveConfig: any non-identity population
// configuration must build a live population layer.
func TestPopulationAttachesOnActiveConfig(t *testing.T) {
	world, err := env.Build(popSpec())
	if err != nil {
		t.Fatal(err)
	}
	if world.Pop == nil {
		t.Fatal("an active population configuration must attach a population")
	}
}

// TestPopulationWorkerDeterminism: cohorts are pure functions of
// (seed, round), so a churning, profile-mixed population run must be
// byte-identical at any worker count.
func TestPopulationWorkerDeterminism(t *testing.T) {
	var want *sim.Curve
	// The last run is at 0 (GOMAXPROCS), which also leaves the shared
	// pool as the other tests expect to find it.
	for _, workers := range []int{1, 2, 8, 0} {
		got := runSpec(t, popSpec(), 4, sim.WithWorkers(workers))
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(want.Points, got.Points) {
			t.Fatalf("population run diverges at %d workers:\n  want %+v\n  got  %+v", workers, want.Points, got.Points)
		}
	}
}

// TestPopulationSchemeCoverage: fl and sfl draw cohorts from the same
// population layer; both must build and train deterministically, and
// the sequential schemes must refuse a population cleanly.
func TestPopulationSchemeCoverage(t *testing.T) {
	opts, err := popSpec().SchemeOptions()
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{"fl", "sfl"} {
		run := func() *sim.Curve {
			world, err := env.Build(popSpec())
			if err != nil {
				t.Fatal(err)
			}
			tr, err := sim.New(scheme, world, opts)
			if err != nil {
				t.Fatal(err)
			}
			c, err := sim.NewRunner(tr, sim.WithRounds(3), sim.WithEvalEvery(1)).Run(t.Context())
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		if !reflect.DeepEqual(run().Points, run().Points) {
			t.Fatalf("%s: population run is not deterministic", scheme)
		}
	}
	for _, scheme := range []string{"sl", "cl"} {
		world, err := env.Build(popSpec())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.New(scheme, world, opts); err == nil {
			t.Fatalf("%s must reject a population environment", scheme)
		}
	}
}
