package model

import (
	"fmt"

	"gsfl/internal/registry"
)

// ArchConfig parameterizes a registered architecture factory: the
// dataset's image edge length and class count plus the spec seed (for
// architectures with build-time randomness such as dropout masks).
type ArchConfig struct {
	// ImageSize is the square input edge length in pixels.
	ImageSize int
	// Classes is the output class count.
	Classes int
	// Seed derives any architecture-level randomness; factories for
	// deterministic architectures ignore it.
	Seed int64
}

// ArchFactory builds an architecture for a configuration, validating it
// eagerly (bad sizes return errors, not panics).
type ArchFactory func(cfg ArchConfig) (Arch, error)

var archs = registry.New[ArchFactory]("model", "architecture")

// RegisterArch adds a model architecture factory under its name, making
// it resolvable by NewArch and usable by name in experiment specs and
// grid files. It panics on an empty name, a nil factory, or a duplicate
// name — programmer errors at init time. The built-in architectures
// register themselves; call this only for out-of-tree archs.
func RegisterArch(name string, f ArchFactory) { archs.Register(name, f) }

// ArchNames returns the registered architecture names in sorted order.
func ArchNames() []string { return archs.Names() }

// CanonicalArch checks an architecture name against the registry
// without building anything and returns the name manifests record.
func CanonicalArch(name string) (string, error) { return archs.Canonical(name) }

// NewArch instantiates the named architecture — the single
// name-to-architecture resolution path.
func NewArch(name string, cfg ArchConfig) (Arch, error) {
	f, err := archs.Get(name)
	if err != nil {
		return Arch{}, err
	}
	return f(cfg)
}

// The built-in architectures register like out-of-tree ones, so name
// resolution, listing, and construction have exactly one path.
func init() {
	RegisterArch("gtsrb-cnn", func(cfg ArchConfig) (Arch, error) {
		if err := checkImageArch("gtsrb-cnn", cfg); err != nil {
			return Arch{}, err
		}
		return GTSRBCNN(cfg.ImageSize, cfg.Classes), nil
	})
	RegisterArch("deepthin-cnn", func(cfg ArchConfig) (Arch, error) {
		if err := checkImageArch("deepthin-cnn", cfg); err != nil {
			return Arch{}, err
		}
		return DeepThinCNN(cfg.Seed, cfg.ImageSize, cfg.Classes), nil
	})
	RegisterArch("mlp", func(cfg ArchConfig) (Arch, error) {
		if cfg.ImageSize <= 0 {
			return Arch{}, fmt.Errorf("model: mlp needs a positive image size, got %d", cfg.ImageSize)
		}
		if cfg.Classes <= 1 {
			return Arch{}, fmt.Errorf("model: mlp needs >=2 classes, got %d", cfg.Classes)
		}
		return MLP(3*cfg.ImageSize*cfg.ImageSize, 64, cfg.Classes), nil
	})
}

// checkImageArch validates the shared constraints of the two CNN
// factories with field-specific errors.
func checkImageArch(name string, cfg ArchConfig) error {
	if cfg.ImageSize <= 0 || cfg.ImageSize%4 != 0 {
		return fmt.Errorf("model: %s input size %d must be positive and divisible by 4", name, cfg.ImageSize)
	}
	if cfg.Classes <= 1 {
		return fmt.Errorf("model: %s needs >=2 classes, got %d", name, cfg.Classes)
	}
	return nil
}
