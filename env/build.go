package env

import (
	"fmt"
	"math/rand"

	"gsfl/internal/data"
	"gsfl/internal/device"
	"gsfl/internal/model"
	"gsfl/internal/partition"
	"gsfl/internal/schemes"
	"gsfl/internal/wireless"
	"gsfl/pop"
)

// Build materializes a Spec into the complete simulated world a scheme
// trains in: generated client datasets, a synthesized device fleet, an
// instantiated radio channel, and the split model architecture. The
// Spec is validated eagerly; extension names resolve through the
// registries. Building the same Spec twice — or a Spec that round-trips
// through JSON — produces bit-identical worlds.
func Build(spec Spec) (*Env, error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	alloc, err := wireless.ParseAllocator(spec.Alloc)
	if err != nil {
		return nil, fmt.Errorf("env: Alloc: %w", err)
	}
	spec.Device.N = spec.Clients

	src, err := data.NewSource(spec.Dataset, data.SourceConfig{ImageSize: spec.ImageSize, Seed: spec.Seed})
	if err != nil {
		return nil, fmt.Errorf("env: Dataset: %w", err)
	}
	pool := src.Pool(spec.Clients * spec.TrainPerClient)
	testSrc, err := data.NewSource(spec.Dataset, data.SourceConfig{ImageSize: spec.ImageSize, Seed: spec.Seed + 1})
	if err != nil {
		return nil, fmt.Errorf("env: Dataset: %w", err)
	}
	test := testSrc.Balanced(spec.TestPerClass)

	arch, err := model.NewArch(spec.Arch, model.ArchConfig{
		ImageSize: spec.ImageSize,
		Classes:   src.Classes(),
		Seed:      spec.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("env: Arch: %w", err)
	}
	// The cut bound needs the materialized layer stack; probe it with a
	// throwaway RNG (weights are discarded, only the depth matters). The
	// one extra arch construction per Build is noise next to the dataset
	// generation above, and buys a field-specific error instead of a
	// panic deep inside the scheme's split construction.
	if depth := len(arch.Build(rand.New(rand.NewSource(0)))); spec.Cut > depth {
		return nil, fmt.Errorf("env: Cut %d outside [0,%d] for arch %q", spec.Cut, depth, spec.Arch)
	}

	fleet := device.NewFleet(spec.Device, spec.Seed+2)
	channel := wireless.NewChannel(spec.Wireless, spec.Clients, spec.Seed+3)

	world := &schemes.Env{
		Arch:    arch,
		Cut:     spec.Cut,
		Fleet:   fleet,
		Channel: channel,
		Alloc:   alloc,
		Test:    test,
		Hyper:   spec.Hyper,
		Seed:    spec.EnvSeed(),
	}

	partRng := world.Rng("partition", 0)
	var subsets []*data.Subset
	if spec.Alpha > 0 {
		subsets = partition.Dirichlet(pool, spec.Clients, spec.Alpha, partRng)
	} else {
		subsets = partition.IID(pool, spec.Clients, partRng)
	}
	world.Train = make([]data.Dataset, len(subsets))
	for i, s := range subsets {
		world.Train[i] = s
	}
	if err := world.Validate(); err != nil {
		return nil, fmt.Errorf("env: built invalid world: %w", err)
	}

	// Attach the client population when the spec asks for one beyond
	// the identity configuration (population == clients, full sampling,
	// always-on, baseline-only — which IS the classic world, kept on
	// the legacy path so numerics stay bit-identical). The population
	// seed hangs off the spec seed like the other world components
	// (+1 test data, +2 fleet, +3 channel, +5 population).
	if spec.populationActive() {
		p, err := pop.New(pop.Config{
			Members:    spec.Population,
			Slots:      spec.Clients,
			Cohort:     spec.CohortSize(),
			Trace:      spec.AvailTrace,
			ProfileMix: spec.DeviceProfileMix,
			Seed:       spec.Seed + 5,
			Fleet:      fleet,
		})
		if err != nil {
			return nil, fmt.Errorf("env: Population: %w", err)
		}
		world.Pop = p
	}
	return world, nil
}
