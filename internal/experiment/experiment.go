// Package experiment is the paper-reproduction harness: it declares the
// figures, tables, and ablations as one catalogue of experiments over
// environment specs, and folds their jobs' results into the paper's
// CSVs.
//
// Environment construction lives in the public gsfl/env package — Spec
// is an alias of env.Spec, worlds come from env.Build, and the
// extension points (allocators, grouping strategies, datasets,
// architectures) resolve through the env registries. What lives here is
// the harness itself: the Grid expansion with stable job content hashes
// and the single job executor (grid.go), and the catalogue of paper
// experiments with their folds (grids.go; table3.go and validation.go
// hold the two entries that train nothing). cmd/gsfl-sweep -exp is the
// catalogue's only runner.
package experiment

import "gsfl/env"

// Spec describes one experimental configuration; it is the public
// env.Spec (fully JSON-serializable, extension points by registered
// name). The zero value is not usable; start from env.PaperSpec or
// env.TestSpec and override.
type Spec = env.Spec
