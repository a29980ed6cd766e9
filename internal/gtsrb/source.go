package gtsrb

import (
	"fmt"

	"gsfl/internal/data"
)

// SourceName is the registry name of the synthetic-GTSRB generator —
// the default dataset of every experiment spec.
const SourceName = "gtsrb-synth"

// source adapts a Generator to the data.Source interface so the
// environment builder (and out-of-tree tooling) can construct it by
// name.
type source struct{ gen *Generator }

func (s source) InShape() []int                    { return s.gen.InShape() }
func (s source) Classes() int                      { return NumClasses }
func (s source) Sample(class int) ([]float64, int) { return s.gen.Sample(class) }
func (s source) Pool(n int) *data.InMemory         { return s.gen.Dataset(n, nil) }
func (s source) Balanced(perClass int) *data.InMemory {
	return s.gen.Balanced(perClass)
}

// init registers the generator into the dataset registry. "noise_std"
// is its one option; any other key is a typo and is rejected by name,
// like an unknown key in a grid file.
func init() {
	data.RegisterSource(SourceName, func(cfg data.SourceConfig) (data.Source, error) {
		if cfg.ImageSize < 8 {
			return nil, fmt.Errorf("gtsrb: image size %d too small (min 8)", cfg.ImageSize)
		}
		c := DefaultConfig(cfg.ImageSize)
		for key, v := range cfg.Options {
			if key != "noise_std" {
				return nil, fmt.Errorf("gtsrb: unknown option %q (known: noise_std)", key)
			}
			c.NoiseStd = v
		}
		return source{gen: NewGenerator(c, cfg.Seed)}, nil
	})
}
