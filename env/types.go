package env

import (
	"math/rand"

	"gsfl/internal/data"
	"gsfl/internal/device"
	"gsfl/internal/model"
	"gsfl/internal/partition"
	"gsfl/internal/schemes"
	"gsfl/internal/wireless"
	"gsfl/pop"
)

// Aliases re-export the environment vocabulary so Spec fields,
// registry signatures, and the worlds Build returns are fully usable —
// and implementable — without internal imports.
type (
	// Env is the complete simulated world a scheme trains in; Build
	// returns one (the same type the run API's sim.Env names).
	Env = schemes.Env
	// Options carries the scheme-structure knobs SchemeOptions derives
	// (the same type as sim.Options).
	Options = schemes.FactoryOpts
	// Hyper are the shared optimization hyperparameters.
	Hyper = schemes.Hyper
	// DeviceConfig controls device-fleet synthesis (client/server FLOPS).
	DeviceConfig = device.Config
	// WirelessConfig describes the radio environment (bandwidth, power,
	// fading, outages, mobility).
	WirelessConfig = wireless.Config
	// Channel is an instantiated radio environment; allocator
	// implementations receive one for channel-aware decisions.
	Channel = wireless.Channel
	// Allocator splits a bandwidth budget among concurrently
	// transmitting clients; implement it and RegisterAllocator to add a
	// policy.
	Allocator = wireless.Allocator
	// GroupFunc implements a grouping policy; RegisterStrategy adds one
	// by name.
	GroupFunc = partition.GroupFunc
	// Arch describes a model architecture (input shape, classes, layer
	// builder).
	Arch = model.Arch
	// ArchConfig parameterizes a registered architecture factory.
	ArchConfig = model.ArchConfig
	// ArchFactory builds an architecture for a configuration.
	ArchFactory = model.ArchFactory
	// SplitModel is a model cut into client/server halves; Arch.NewSplit
	// produces one and its size accessors drive cut-layer accounting.
	SplitModel = model.SplitModel
	// Dataset is an indexable collection of labelled samples.
	Dataset = data.Dataset
	// InMemory is the slice-backed Dataset implementation generators
	// produce.
	InMemory = data.InMemory
	// Subset is a view of a Dataset through an index list; partitioning
	// produces one per client.
	Subset = data.Subset
	// DataSource is one instantiated dataset generator.
	DataSource = data.Source
	// DataConfig parameterizes a registered dataset generator.
	DataConfig = data.SourceConfig
	// DatasetFactory instantiates a generator from a configuration.
	DatasetFactory = data.SourceFactory
	// Rng is the randomness source threaded through grouping and
	// partitioning helpers.
	Rng = *rand.Rand
	// Cohort is the per-round population-sampling interface a built
	// world carries in Env.Pop (nil in the classic fixed-client world).
	Cohort = schemes.Cohort
	// SlotBinding mounts one sampled population member onto a physical
	// client slot for a round.
	SlotBinding = schemes.SlotBinding
	// AvailTrace models member availability dwell times; implement it
	// and RegisterAvailTrace to add a churn model by name.
	AvailTrace = pop.Trace
	// DeviceProfile is a named compute-speed class for
	// Spec.DeviceProfileMix; RegisterDeviceProfile adds one.
	DeviceProfile = pop.Profile
	// Population is the concrete record-array population engine behind
	// Env.Pop when Spec.Population is set (type-assert Env.Pop to reach
	// its metrics registry and memory accounting).
	Population = pop.Population
)

// DefaultCut is the paper's client/server boundary in the default
// architecture: after the first conv block of "gtsrb-cnn".
const DefaultCut = model.GTSRBCNNDefaultCut

// DefaultDeviceConfig returns the paper-scale fleet configuration for n
// clients (mobile-class SoCs against a GPU-class edge server).
func DefaultDeviceConfig(n int) DeviceConfig { return device.DefaultConfig(n) }

// DefaultWirelessConfig returns the paper's small-cell radio
// deployment: 20 MHz up/down, 23 dBm clients, 30 dBm AP.
func DefaultWirelessConfig() WirelessConfig { return wireless.DefaultConfig() }

// NewChannel instantiates a radio environment for n clients,
// deterministic in seed — what Build does internally, exposed for
// tooling that prices transfers without a full world (e.g. comparing
// allocator policies on a fixed fleet).
func NewChannel(cfg WirelessConfig, n int, seed int64) *Channel {
	return wireless.NewChannel(cfg, n, seed)
}

// PartitionIID splits ds uniformly at random into n near-equal client
// subsets.
func PartitionIID(ds Dataset, n int, rng Rng) []*Subset {
	return partition.IID(ds, n, rng)
}
