// Package experiment is the paper-reproduction harness: it declares the
// figures, tables, and ablations as one catalogue of experiments over
// environment specs, each a row of data — the grids it trains and,
// column by column, the CSVs it derives from their results.
//
// Environment construction lives in the public gsfl/env package — Spec
// is an alias of env.Spec, worlds come from env.Build, and every name a
// spec carries (allocator, grouping strategy, dataset, architecture,
// availability trace) is resolved in one place,
// Spec.Canonical. What lives here is the harness itself: the Grid
// expansion (a table of axes) with stable job content hashes and the
// single job executor, RunJob (grid.go), and the catalogue,
// GridExperiments, with the one Save that renders any entry (grids.go;
// table3.go and validation.go hold the two entries that train nothing).
// Adding an experiment is adding a row to the catalogue. cmd/gsfl-sweep
// -exp is its only runner.
package experiment

import "gsfl/env"

// Spec describes one experimental configuration; it is the public
// env.Spec (fully JSON-serializable, extension points by registered
// name). The zero value is not usable; start from env.PaperSpec or
// env.TestSpec and override.
type Spec = env.Spec
