package env

import (
	"fmt"

	"gsfl/internal/data"
	"gsfl/internal/model"
	"gsfl/internal/partition"
	"gsfl/internal/wireless"
	"gsfl/pop"

	// The built-in dataset generator self-registers from its init
	// function; importing gsfl/env therefore makes "gtsrb-synth"
	// available by name (the allocator, strategy, and arch built-ins
	// live in packages env already imports).
	_ "gsfl/internal/gtsrb"
)

// This file is the extension surface of the environment API: the
// allocator, grouping-strategy, dataset, architecture, availability-
// trace and device-profile registries, each with Register/List/resolve
// entry points, mirroring the scheme registry in gsfl/sim. Register
// panics on duplicate or empty names (programmer errors at init time);
// resolution by unknown name returns an error listing what is
// registered. Spec.Canonical is where a Spec's names meet them.

// RegisterAllocator adds a bandwidth-allocation policy under its Name()
// plus any extra aliases, making it usable by name in Spec.Alloc, grid
// files, and the -alloc flag.
func RegisterAllocator(a Allocator, aliases ...string) {
	wireless.RegisterAllocator(a, aliases...)
}

// Allocators returns the canonical names of the registered allocators
// in sorted order.
func Allocators() []string { return wireless.AllocatorNames() }

// NewAllocator resolves an allocator from its canonical name or a
// registered alias ("uniform", "propfair"/"proportional-fair",
// "latmin"/"latency-min", plus anything registered out of tree).
func NewAllocator(name string) (Allocator, error) {
	return wireless.ParseAllocator(name)
}

// CanonicalAllocator resolves an allocator name or alias to its
// canonical Name() — the form job content hashes, manifests, and CSVs
// record.
func CanonicalAllocator(name string) (string, error) { return nameOf(wireless.ParseAllocator(name)) }

// nameOf turns a registry lookup's (value, error) into the canonical
// name the resolved value carries.
func nameOf[T interface{ Name() string }](v T, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return v.Name(), nil
}

// RegisterStrategy adds a grouping policy under its canonical name,
// making it usable by name in Spec.Strategy, grid files, and the
// -strategy flag.
func RegisterStrategy(name string, fn GroupFunc) {
	partition.RegisterStrategy(name, fn)
}

// Strategies returns the canonical names of the registered grouping
// strategies in sorted order.
func Strategies() []string { return partition.StrategyNames() }

// CanonicalStrategy resolves a strategy name or alias
// ("roundrobin"/"round-robin", "random", "balanced"/"compute-balanced",
// plus anything registered out of tree) to its canonical name.
func CanonicalStrategy(name string) (string, error) { return partition.CanonicalStrategy(name) }

// GroupClients assigns n clients (identified by index) to m groups
// using the named strategy. capacity carries per-client compute
// capability for capacity-aware strategies (nil otherwise); rng drives
// randomized strategies (nil for deterministic ones). Strategy-specific
// input errors (a missing capacity vector for "compute-balanced", a nil
// rng for "random") come back as errors, not panics — this is a public
// entry point.
func GroupClients(n, m int, strategy string, capacity []float64, rng Rng) (out [][]int, err error) {
	if _, err := partition.CanonicalStrategy(strategy); err != nil {
		return nil, err
	}
	if n <= 0 || m <= 0 {
		return nil, fmt.Errorf("env: grouping needs positive n=%d m=%d", n, m)
	}
	if m > n {
		return nil, fmt.Errorf("env: %d groups cannot be filled by %d clients", m, n)
	}
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("env: grouping with %q: %v", strategy, r)
		}
	}()
	return partition.Groups(n, m, strategy, capacity, rng), nil
}

// RegisterDataset adds a dataset generator factory under its name,
// making it usable by name in Spec.Dataset and grid files.
func RegisterDataset(name string, f DatasetFactory) {
	data.RegisterSource(name, f)
}

// Datasets returns the registered dataset names in sorted order.
func Datasets() []string { return data.SourceNames() }

// NewDataset instantiates the named dataset generator.
func NewDataset(name string, cfg DataConfig) (DataSource, error) {
	return data.NewSource(name, cfg)
}

// CanonicalDataset validates a dataset name against the registry
// without instantiating a generator, returning the name job content
// hashes and manifests record (dataset names have no aliases today, so
// the canonical form is the name itself).
func CanonicalDataset(name string) (string, error) { return data.CanonicalSource(name) }

// RegisterArch adds a model architecture factory under its name, making
// it usable by name in Spec.Arch, grid files, and the -arch flag.
func RegisterArch(name string, f ArchFactory) {
	model.RegisterArch(name, f)
}

// Archs returns the registered architecture names in sorted order.
func Archs() []string { return model.ArchNames() }

// NewArch instantiates the named architecture.
func NewArch(name string, cfg ArchConfig) (Arch, error) {
	return model.NewArch(name, cfg)
}

// CanonicalArch validates an architecture name against the registry
// without building anything, returning the name job content hashes and
// manifests record (arch names have no aliases today, so the canonical
// form is the name itself).
func CanonicalArch(name string) (string, error) { return model.CanonicalArch(name) }

// RegisterAvailTrace adds an availability/churn trace under its Name(),
// making it usable by name in Spec.AvailTrace, grid files, and the
// -avail-trace flag.
func RegisterAvailTrace(t AvailTrace) { pop.RegisterTrace(t) }

// AvailTraces returns the registered availability-trace names in sorted
// order.
func AvailTraces() []string { return pop.Traces() }

// CanonicalAvailTrace validates an availability-trace name against the
// registry, returning the name job content hashes and manifests record
// (trace names have no aliases, so the canonical form is the name
// itself).
func CanonicalAvailTrace(name string) (string, error) { return nameOf(pop.TraceByName(name)) }

// RegisterDeviceProfile adds a device-heterogeneity profile, making it
// usable in Spec.DeviceProfileMix expressions and the -profile-mix
// flag.
func RegisterDeviceProfile(p DeviceProfile) { pop.RegisterProfile(p) }

// DeviceProfiles returns the registered device-profile names in sorted
// order.
func DeviceProfiles() []string { return pop.Profiles() }
