package env

import (
	"fmt"
	"math"

	"gsfl/internal/device"
	"gsfl/internal/partition"
	"gsfl/internal/schemes"
	"gsfl/internal/wireless"
	"gsfl/pop"
)

// Default extension names: the values an empty Spec field normalizes
// to, chosen so the zero-ish Spec keeps describing the paper's world.
const (
	// DefaultStrategy is round-robin grouping (the paper's default).
	DefaultStrategy = "round-robin"
	// DefaultDataset is the synthetic-GTSRB generator.
	DefaultDataset = "gtsrb-synth"
	// DefaultArch is the paper's lightweight GTSRB CNN.
	DefaultArch = "gtsrb-cnn"
)

// Spec describes one experimental configuration. Every extension point
// (allocator, grouping strategy, dataset, architecture) is referenced by
// registered name, so a Spec marshals to JSON and back without loss —
// Build(unmarshal(marshal(s))) constructs a world bit-identical to
// Build(s). The zero value is not usable; start from PaperSpec or
// TestSpec and override.
type Spec struct {
	// Clients (N) and Groups (M) set the population structure; the paper
	// uses N=30, M=6.
	Clients int `json:"clients"`
	Groups  int `json:"groups"`
	// Strategy names the registered grouping policy assigning clients to
	// groups ("" = round-robin; see Strategies).
	Strategy string `json:"strategy,omitempty"`
	// Dataset names the registered dataset generator ("" = gtsrb-synth;
	// see Datasets).
	Dataset string `json:"dataset,omitempty"`
	// Arch names the registered model architecture ("" = gtsrb-cnn; see
	// Archs).
	Arch string `json:"arch,omitempty"`
	// ImageSize is the square sample edge length in pixels (32 at paper
	// scale).
	ImageSize int `json:"image_size"`
	// TrainPerClient is each client's private sample count.
	TrainPerClient int `json:"train_per_client"`
	// TestPerClass sizes the balanced held-out test set.
	TestPerClass int `json:"test_per_class"`
	// Alpha is the Dirichlet non-IID concentration; 0 means IID.
	Alpha float64 `json:"alpha"`
	// Cut is the split index into the architecture's layer stack.
	Cut int `json:"cut"`
	// Hyper are the shared optimization hyperparameters.
	Hyper Hyper `json:"hyper"`
	// Alloc names the registered bandwidth-allocation policy (see
	// Allocators). Unlike the other extension fields it has no default:
	// an empty name is a validation error, because the allocator is the
	// knob the paper's future work sweeps.
	Alloc string `json:"alloc"`
	// Device and Wireless are the hardware environment. Build hands them
	// to the fleet and the channel verbatim (only Device.N is overwritten,
	// with Clients) and Validate holds them to those packages' ranges, so
	// a zero value is an error, not a default: start from PaperSpec.
	Device   DeviceConfig   `json:"device"`
	Wireless WirelessConfig `json:"wireless"`
	// Seed derives all randomness.
	Seed int64 `json:"seed"`
	// Pipelined enables communication/computation overlap in GSFL turns.
	Pipelined bool `json:"pipelined,omitempty"`
	// DropoutProb injects per-round client unavailability into GSFL.
	DropoutProb float64 `json:"dropout_prob,omitempty"`
	// Population, when positive, puts a persistent client population of
	// that size behind the Clients physical slots: each round the
	// cohort-based schemes (gsfl, fl, sfl) sample
	// round(SampleFraction×Population) members — capped at Clients —
	// from the currently available population instead of training the
	// fixed client list. Members are compact records (gsfl/pop); the
	// fleet, channel, and datasets stay sized Clients. Zero keeps the
	// classic fixed-client world. A population equal to Clients with
	// SampleFraction 1 under the default trace and mix is exactly that
	// world, and Build treats it as such (no population attached), so
	// numerics stay bit-identical.
	Population int `json:"population,omitempty"`
	// SampleFraction is the per-round sampling fraction in (0,1];
	// 0 normalizes to 1 (sample everyone, bounded by Clients slots).
	// Only meaningful with Population set.
	SampleFraction float64 `json:"sample_fraction,omitempty"`
	// AvailTrace names the registered availability/churn trace driving
	// member online/offline dwell times ("" = always-on; see
	// AvailTraces). Only meaningful with Population set.
	AvailTrace string `json:"avail_trace,omitempty"`
	// DeviceProfileMix is a weighted device-heterogeneity mix,
	// "profile:weight,profile:weight" over registered profiles (see
	// DeviceProfiles); "" assigns every member the baseline profile.
	// Only meaningful with Population set.
	DeviceProfileMix string `json:"device_profile_mix,omitempty"`
}

// PaperSpec is the configuration of the paper's Section III: 30
// clients, 6 groups, GTSRB-scale images, mildly non-IID data.
func PaperSpec() Spec {
	return Spec{
		Clients:        30,
		Groups:         6,
		Strategy:       DefaultStrategy,
		Dataset:        DefaultDataset,
		Arch:           DefaultArch,
		ImageSize:      32,
		TrainPerClient: 200,
		TestPerClass:   10,
		Alpha:          1.0,
		Cut:            3,
		Hyper: Hyper{
			Batch:          16,
			StepsPerClient: 4,
			LR:             0.02,
			Momentum:       0.9,
			ClipNorm:       5,
		},
		Alloc:    "uniform",
		Device:   device.DefaultConfig(30),
		Wireless: wireless.DefaultConfig(),
		Seed:     1,
	}
}

// TestSpec is a minimal configuration for fast CI runs: 6 clients in 2
// groups on 8x8 images.
func TestSpec() Spec {
	s := PaperSpec()
	s.Clients = 6
	s.Groups = 2
	s.ImageSize = 8
	s.TrainPerClient = 40
	s.TestPerClass = 2
	s.Hyper.Batch = 8
	s.Hyper.StepsPerClient = 2
	s.Device = device.DefaultConfig(6)
	return s
}

// Normalized returns the spec with empty extension names replaced by
// their defaults (Strategy, Dataset, Arch — not Alloc, which is
// required). Build, Validate, and the job content hash all operate on
// the normalized form, so an unset field and an explicit default are
// the same configuration.
func (s Spec) Normalized() Spec {
	if s.Strategy == "" {
		s.Strategy = DefaultStrategy
	}
	if s.Dataset == "" {
		s.Dataset = DefaultDataset
	}
	if s.Arch == "" {
		s.Arch = DefaultArch
	}
	if s.Population > 0 {
		if s.AvailTrace == "" {
			s.AvailTrace = pop.DefaultTrace
		}
		if s.SampleFraction == 0 {
			s.SampleFraction = 1
		}
	}
	return s
}

// CohortSize returns the per-round sampling target the population
// fields imply: round(SampleFraction × Population), at least 1. It is
// meaningful only when Population is set; Validate bounds it by
// Clients (the physical slot count).
func (s Spec) CohortSize() int {
	s = s.Normalized()
	k := int(math.Round(s.SampleFraction * float64(s.Population)))
	if k < 1 {
		k = 1
	}
	return k
}

// populationActive reports whether Build should attach a population:
// the fields are set AND they describe something other than the
// classic fixed-client world. The identity configuration — population
// == clients, full sampling, always-on, baseline-only — short-circuits
// to the legacy path so its numerics stay bit-identical to a spec with
// no population at all.
func (s Spec) populationActive() bool {
	s = s.Normalized()
	if s.Population <= 0 {
		return false
	}
	identity := s.Population == s.Clients &&
		s.SampleFraction == 1 &&
		s.AvailTrace == pop.DefaultTrace &&
		s.DeviceProfileMix == ""
	return !identity
}

// Canonical returns the normalized spec with every registry-named field
// resolved: Alloc and Strategy aliases rewritten to their canonical
// names, and Dataset, Arch and AvailTrace (when a population is set)
// checked to exist. It is the single name-resolution point —
// Validate, grid expansion and the job content hash all go through it —
// so an unknown name is reported once, prefixed with the field at
// fault. Alloc has no default: an empty one is an error.
func (s Spec) Canonical() (Spec, error) {
	s = s.Normalized()
	if s.Alloc == "" {
		return s, fmt.Errorf("env: missing allocator (set Spec.Alloc to one of %v)", Allocators())
	}
	var err error
	resolve := func(field string, name *string, canonical func(string) (string, error)) {
		if err != nil {
			return
		}
		if *name, err = canonical(*name); err != nil {
			err = fmt.Errorf("env: %s: %w", field, err)
		}
	}
	resolve("Alloc", &s.Alloc, CanonicalAllocator)
	resolve("Strategy", &s.Strategy, CanonicalStrategy)
	resolve("Dataset", &s.Dataset, CanonicalDataset)
	resolve("Arch", &s.Arch, CanonicalArch)
	if s.Population > 0 { // otherwise validatePopulation requires it unset
		resolve("AvailTrace", &s.AvailTrace, CanonicalAvailTrace)
	}
	return s, err
}

// Validate checks every Spec field eagerly and reports the first
// problem with a field-specific error. Registry-named fields must
// resolve (see Canonical); Build performs the remaining checks that
// need the materialized architecture (the cut index upper bound).
func (s Spec) Validate() error {
	s, err := s.Canonical()
	if err != nil {
		return err
	}
	if s.Clients <= 0 {
		return fmt.Errorf("env: Clients %d must be positive", s.Clients)
	}
	if s.Groups <= 0 {
		return fmt.Errorf("env: Groups %d must be positive", s.Groups)
	}
	if s.Groups > s.Clients {
		return fmt.Errorf("env: Groups %d cannot exceed Clients %d", s.Groups, s.Clients)
	}
	if s.ImageSize <= 0 {
		return fmt.Errorf("env: ImageSize %d must be positive", s.ImageSize)
	}
	if s.TrainPerClient <= 0 {
		return fmt.Errorf("env: TrainPerClient %d must be positive", s.TrainPerClient)
	}
	if s.TestPerClass <= 0 {
		return fmt.Errorf("env: TestPerClass %d must be positive", s.TestPerClass)
	}
	if !(s.Alpha >= 0 && s.Alpha <= math.MaxFloat64) {
		return fmt.Errorf("env: Alpha %v must be finite and non-negative (0 = IID)", s.Alpha)
	}
	if s.Cut < 0 {
		return fmt.Errorf("env: Cut %d must be non-negative", s.Cut)
	}
	if err := s.Hyper.Validate(); err != nil {
		return fmt.Errorf("env: %w", err)
	}
	if !(s.DropoutProb >= 0 && s.DropoutProb < 1) {
		return fmt.Errorf("env: DropoutProb %v outside [0,1)", s.DropoutProb)
	}
	if err := s.Wireless.Validate(); err != nil {
		return fmt.Errorf("env: Wireless.%w", err)
	}
	s.Device.N = s.Clients // as Build sets it
	if err := s.Device.Validate(); err != nil {
		return fmt.Errorf("env: Device.%w", err)
	}
	return s.validatePopulation()
}

// validatePopulation checks the population fields (the spec is already
// canonical, so the trace name resolved). Zero Population requires the
// satellite fields unset; a set Population requires a coherent sampling
// configuration.
func (s Spec) validatePopulation() error {
	if s.Population < 0 {
		return fmt.Errorf("env: Population %d must be non-negative (0 = no population layer)", s.Population)
	}
	if s.Population == 0 {
		if s.SampleFraction != 0 {
			return fmt.Errorf("env: SampleFraction %v set without Population", s.SampleFraction)
		}
		if s.AvailTrace != "" {
			return fmt.Errorf("env: AvailTrace %q set without Population", s.AvailTrace)
		}
		if s.DeviceProfileMix != "" {
			return fmt.Errorf("env: DeviceProfileMix %q set without Population", s.DeviceProfileMix)
		}
		return nil
	}
	if s.Population < s.Clients {
		return fmt.Errorf("env: Population %d smaller than Clients %d (members need a data shard each slot)", s.Population, s.Clients)
	}
	if !(s.SampleFraction > 0 && s.SampleFraction <= 1) {
		return fmt.Errorf("env: SampleFraction %v outside (0,1]", s.SampleFraction)
	}
	if k := s.CohortSize(); k > s.Clients {
		return fmt.Errorf("env: cohort %d (SampleFraction %v × Population %d) exceeds the %d client slots",
			k, s.SampleFraction, s.Population, s.Clients)
	}
	if _, err := pop.ParseMix(s.DeviceProfileMix); err != nil {
		return fmt.Errorf("env: DeviceProfileMix: %w", err)
	}
	return nil
}

// EnvSeed derives the env-level seed every scheme RNG stream hangs off.
// Build and data-free architecture probes (the cut-layer ablation's
// size accounting) must agree on it, so it has exactly one definition.
func (s Spec) EnvSeed() int64 { return s.Seed + 4 }

// SchemeOptions maps the Spec's scheme-structure knobs into the run
// API's factory options, resolving the grouping strategy name through
// the registry.
func (s Spec) SchemeOptions() (schemes.FactoryOpts, error) {
	st, err := partition.CanonicalStrategy(s.Strategy)
	if err != nil {
		return schemes.FactoryOpts{}, fmt.Errorf("env: Strategy: %w", err)
	}
	return schemes.FactoryOpts{
		Groups:      s.Groups,
		Strategy:    st,
		Pipelined:   s.Pipelined,
		DropoutProb: s.DropoutProb,
	}, nil
}
