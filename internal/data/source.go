package data

import "gsfl/internal/registry"

// SourceConfig parameterizes a registered dataset generator.
type SourceConfig struct {
	// ImageSize is the square image edge length in pixels (generator
	// interpretation for non-image sources).
	ImageSize int
	// Seed derives all of the source's randomness; equal configs produce
	// bit-identical samples.
	Seed int64
	// Options carries generator-specific knobs by name (e.g. the
	// synthetic-GTSRB "noise_std"); generators reject unknown keys. Nil
	// means all defaults.
	Options map[string]float64
}

// Source is one instantiated dataset generator: a deterministic,
// class-conditional sample stream plus the bulk constructors the
// environment builder uses. Sources are cheap to construct; Build makes
// a fresh one per use so derived seeds stay independent.
type Source interface {
	// InShape is the per-sample feature tensor shape.
	InShape() []int
	// Classes is the number of distinct labels.
	Classes() int
	// Sample draws one sample of the given class (features, label).
	Sample(class int) ([]float64, int)
	// Pool draws n samples with the generator's natural class mix.
	Pool(n int) *InMemory
	// Balanced draws perClass samples of every class, in class order.
	Balanced(perClass int) *InMemory
}

// SourceFactory instantiates a generator from a configuration,
// validating it eagerly (bad sizes return errors, not panics).
type SourceFactory func(cfg SourceConfig) (Source, error)

var sources = registry.New[SourceFactory]("data", "dataset")

// RegisterSource adds a dataset generator factory under its name,
// making it resolvable by NewSource and usable by name in experiment
// specs and grid files. It panics on an empty name, a nil factory, or a
// duplicate name — programmer errors at init time. The built-in
// generator (synthetic GTSRB) registers itself; call this only for
// out-of-tree datasets.
func RegisterSource(name string, f SourceFactory) { sources.Register(name, f) }

// SourceNames returns the registered dataset names in sorted order.
func SourceNames() []string { return sources.Names() }

// CanonicalSource checks a dataset name against the registry without
// instantiating a generator and returns the name manifests record.
func CanonicalSource(name string) (string, error) { return sources.Canonical(name) }

// NewSource instantiates the named dataset generator — the single
// name-to-dataset resolution path.
func NewSource(name string, cfg SourceConfig) (Source, error) {
	f, err := sources.Get(name)
	if err != nil {
		return nil, err
	}
	return f(cfg)
}
