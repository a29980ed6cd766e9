package experiment

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"

	"gsfl/env"
	"gsfl/internal/device"
	"gsfl/internal/metrics"
	"gsfl/internal/schemes"
	"gsfl/internal/simnet"
	"gsfl/internal/tensor"
	"gsfl/internal/wireless"
	"gsfl/sim"
)

// Grid is a declarative experiment sweep: a base Spec plus one value
// list per swept dimension. Jobs expands it into the cross product of
// all non-empty axes, one Job per cell, in a canonical order (see Axes).
// A Grid is the unit the sweep engine (gsfl/sweep) schedules; every
// figure and ablation of the paper harness is expressed as one.
type Grid struct {
	// Name prefixes the expanded job names ("fig2a", "grouping", …).
	Name string `json:"name"`
	// Base is the configuration every cell starts from; axes override
	// individual fields. It is not part of the JSON grid-file format —
	// files select a base via scale (see cmd/gsfl-sweep).
	Base Spec `json:"-"`
	// Rounds and EvalEvery drive every cell's run.
	Rounds    int `json:"rounds"`
	EvalEvery int `json:"eval_every"`
	// Axes are the swept dimensions.
	Axes Axes `json:"axes"`
}

// Axes lists the values each swept dimension takes. An empty axis keeps
// the base Spec's value. Expansion nests the axes in declaration order —
// Seeds outermost, Schemes innermost — so single-axis grids enumerate in
// the order given and multi-axis grids match the paper harness's
// historical loop nesting (groups over strategies, alphas over schemes).
// Extension-point axes (Strategies, Allocators, Datasets, Archs) carry
// registered names, so grids serialize to JSON; aliases resolve through
// the env registries and are canonicalized before hashing.
type Axes struct {
	Seeds      []int64   `json:"seeds,omitempty"`
	Alphas     []float64 `json:"alphas,omitempty"`
	Cuts       []int     `json:"cuts,omitempty"`
	Groups     []int     `json:"groups,omitempty"`
	Strategies []string  `json:"strategies,omitempty"`
	Allocators []string  `json:"allocators,omitempty"`
	Dropouts   []float64 `json:"dropouts,omitempty"`
	Quantized  []bool    `json:"quantized,omitempty"`
	Pipelined  []bool    `json:"pipelined,omitempty"`
	Datasets   []string  `json:"datasets,omitempty"`
	Archs      []string  `json:"archs,omitempty"`
	// Population axes sweep the persistent-population dimensions from
	// PR 7: total member count, per-round sampling fraction, and the
	// availability trace members follow.
	Populations     []int     `json:"populations,omitempty"`
	SampleFractions []float64 `json:"sample_fractions,omitempty"`
	AvailTraces     []string  `json:"avail_traces,omitempty"`
	// Numerics sweeps the registered numeric modes the kernels run
	// under ("exact", "fast", …); the default-mode cell hashes exactly
	// like a spec that never mentions numerics.
	Numerics []string `json:"numerics,omitempty"`
	// Schemes defaults to ["gsfl"], the subject of every ablation.
	Schemes []string `json:"schemes,omitempty"`
}

// Job is one expanded grid cell: a complete, self-contained run
// request. ID is a stable content hash of everything that shapes the
// run's results — two jobs with equal IDs produce bit-identical curves,
// which is what lets a sweep store skip completed work and lets
// overlapping grids (fig2a and table1 share all four cells) deduplicate.
type Job struct {
	// ID is the 16-hex-digit content hash of the job identity.
	ID string `json:"id"`
	// Name is the human-readable cell label: the grid name plus the
	// swept axis values ("grouping/groups=6,strategy=random").
	Name string `json:"name"`
	// Scheme is the registry name of the scheme to train.
	Scheme string `json:"scheme"`
	// Spec is the cell's complete world configuration.
	Spec Spec `json:"-"`
	// Rounds and EvalEvery drive the cell's Runner.
	Rounds    int `json:"rounds"`
	EvalEvery int `json:"eval_every"`
}

// jobIdentity is the canonical encoding hashed into a Job ID: every
// field that shapes training numerics or latency pricing, spelled out
// explicitly so the hash does not silently change shape with Spec
// refactors. Interface-typed Spec fields are captured by name.
type jobIdentity struct {
	Scheme         string
	Rounds         int
	EvalEvery      int
	Clients        int
	Groups         int
	Strategy       string
	ImageSize      int
	TrainPerClient int
	TestPerClass   int
	Alpha          float64
	Cut            int
	Hyper          schemes.Hyper
	Alloc          string
	Device         device.Config
	Wireless       wireless.Config
	Seed           int64
	Pipelined      bool
	DropoutProb    float64
}

// hashJob derives the stable content ID of a cell from its scheme, run
// shape and spec. The spec must be canonical (Spec.Canonical), so that
// one saying "propfair" and one saying "proportional-fair" are the same
// cell; grid expansion canonicalizes once per cell, RehashJob does it
// for a job that arrived from elsewhere.
func hashJob(j Job) (string, error) {
	s := j.Spec
	h := fnv.New64a()
	var err error
	write := func(part any) {
		if err == nil {
			var buf []byte
			buf, err = json.Marshal(part) // struct field order is fixed => deterministic bytes
			_, _ = h.Write(buf)
		}
	}
	write(jobIdentity{
		Scheme:         j.Scheme,
		Rounds:         j.Rounds,
		EvalEvery:      j.EvalEvery,
		Clients:        s.Clients,
		Groups:         s.Groups,
		Strategy:       s.Strategy,
		ImageSize:      s.ImageSize,
		TrainPerClient: s.TrainPerClient,
		TestPerClass:   s.TestPerClass,
		Alpha:          s.Alpha,
		Cut:            s.Cut,
		Hyper:          s.Hyper,
		Alloc:          s.Alloc,
		Device:         s.Device,
		Wireless:       s.Wireless,
		Seed:           s.Seed,
		Pipelined:      s.Pipelined,
		DropoutProb:    s.DropoutProb,
	})
	// The dataset and architecture joined the identity after the format
	// above was pinned; they extend the hash only when non-default, so
	// every historical job keeps its historical ID.
	if s.Dataset != env.DefaultDataset || s.Arch != env.DefaultArch {
		write(struct{ Dataset, Arch string }{s.Dataset, s.Arch})
	}
	// The population fields joined later still (PR 7); same rule — only a
	// spec that actually configures a population extends the hash, so
	// population-free jobs keep their historical IDs.
	if s.Population != 0 {
		write(struct {
			Population     int
			SampleFraction float64
			AvailTrace     string
			ProfileMix     string
		}{s.Population, s.SampleFraction, s.AvailTrace, s.DeviceProfileMix})
	}
	// The numeric mode (PR 8) extends the hash only when it is not the
	// default (which canonicalizes to ""), so every exact-mode job — the
	// entire historical catalogue — keeps its historical ID.
	if s.Numeric != "" {
		write(struct{ Numeric string }{s.Numeric})
	}
	if err != nil {
		return "", fmt.Errorf("experiment: encoding job identity: %w", err)
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// RehashJob recomputes a job's content-hash ID from its fields — the
// integrity check a fleet worker runs on a job received over the wire:
// a decoded job whose recomputed hash differs from its claimed ID was
// corrupted (or built by a coordinator with drifted identity rules) and
// must not execute under the claimed identity.
func RehashJob(j Job) (string, error) {
	var err error
	if j.Spec, err = j.Spec.Canonical(); err != nil {
		return "", fmt.Errorf("experiment: job identity: %w", err)
	}
	return hashJob(j)
}

// axis is one expanded dimension: a label and a setter per value.
type axis []axisVal

type axisVal struct {
	label string
	apply func(j *Job)
}

// axisOf builds one axis row: key names it in job labels, verb formats
// a value there, set writes a value onto the cell. Names are assigned
// as written; Spec.Canonical resolves them once per cell.
func axisOf[T any](key string, vals []T, verb string, set func(*Job, T)) axis {
	var a axis
	for _, v := range vals {
		a = append(a, axisVal{
			label: fmt.Sprintf("%s="+verb, key, v),
			apply: func(j *Job) { set(j, v) },
		})
	}
	return a
}

// axes lists the sixteen swept dimensions in canonical nesting order;
// Jobs skips the empty ones.
func (g Grid) axes() []axis {
	ax, schemes := g.Axes, g.Axes.Schemes
	if len(schemes) == 0 {
		schemes = []string{"gsfl"}
	}
	return []axis{
		axisOf("seed", ax.Seeds, "%d", func(j *Job, v int64) { j.Spec.Seed = v }),
		axisOf("alpha", ax.Alphas, "%g", func(j *Job, v float64) { j.Spec.Alpha = v }),
		axisOf("cut", ax.Cuts, "%d", func(j *Job, v int) { j.Spec.Cut = v }),
		axisOf("groups", ax.Groups, "%d", func(j *Job, v int) { j.Spec.Groups = v }),
		axisOf("strategy", ax.Strategies, "%s", func(j *Job, v string) { j.Spec.Strategy = v }),
		axisOf("alloc", ax.Allocators, "%s", func(j *Job, v string) { j.Spec.Alloc = v }),
		axisOf("dropout", ax.Dropouts, "%g", func(j *Job, v float64) { j.Spec.DropoutProb = v }),
		axisOf("quant", ax.Quantized, "%t", func(j *Job, v bool) { j.Spec.Hyper.QuantizeTransfers = v }),
		axisOf("pipe", ax.Pipelined, "%t", func(j *Job, v bool) { j.Spec.Pipelined = v }),
		axisOf("dataset", ax.Datasets, "%s", func(j *Job, v string) { j.Spec.Dataset = v }),
		axisOf("arch", ax.Archs, "%s", func(j *Job, v string) { j.Spec.Arch = v }),
		axisOf("pop", ax.Populations, "%d", func(j *Job, v int) { j.Spec.Population = v }),
		axisOf("frac", ax.SampleFractions, "%g", func(j *Job, v float64) { j.Spec.SampleFraction = v }),
		axisOf("trace", ax.AvailTraces, "%s", func(j *Job, v string) { j.Spec.AvailTrace = v }),
		axisOf("numeric", ax.Numerics, "%s", func(j *Job, v string) { j.Spec.Numeric = v }),
		axisOf("scheme", schemes, "%s", func(j *Job, v string) { j.Scheme = v }),
	}
}

// Jobs expands the grid into its cells, outermost axis first. Axis value
// order is preserved, so a single-axis grid enumerates exactly as
// written. Every job gets a content-hash ID and a name listing the
// values of axes that sweep more than one value.
func (g Grid) Jobs() ([]Job, error) {
	if g.Rounds <= 0 {
		return nil, fmt.Errorf("experiment: grid %q needs positive rounds, got %d", g.Name, g.Rounds)
	}
	if g.EvalEvery <= 0 {
		return nil, fmt.Errorf("experiment: grid %q needs positive eval cadence, got %d", g.Name, g.EvalEvery)
	}
	var axes []axis
	for _, a := range g.axes() {
		if len(a) > 0 {
			axes = append(axes, a)
		}
	}
	var jobs []Job
	var expand func(j Job, labels []string, depth int) error
	expand = func(j Job, labels []string, depth int) error {
		if depth < len(axes) {
			for _, v := range axes[depth] {
				cell, l := j, labels
				v.apply(&cell)
				if len(axes[depth]) > 1 {
					l = append(l[:len(l):len(l)], v.label)
				}
				if err := expand(cell, l, depth+1); err != nil {
					return err
				}
			}
			return nil
		}
		if len(labels) > 0 {
			j.Name += "/" + strings.Join(labels, ",")
		}
		// The job carries the canonical spec (aliases from an axis or a
		// grid file's base patch resolved, defaults filled in), so the
		// catalogue's columns, stores, and logs all record one spelling
		// per extension.
		var err error
		if j.Spec, err = j.Spec.Canonical(); err == nil {
			j.ID, err = hashJob(j)
		}
		if err != nil {
			return fmt.Errorf("experiment: grid %q cell %s: %w", g.Name, j.Name, err)
		}
		jobs = append(jobs, j)
		return nil
	}
	if err := expand(Job{Name: g.Name, Spec: g.Base, Rounds: g.Rounds, EvalEvery: g.EvalEvery}, nil, 0); err != nil {
		return nil, err
	}
	return jobs, nil
}

// JobResult is one completed cell: the training curve plus the summed
// per-component latency ledger over every executed round (the breakdown
// the latency tables' columns read). TotalSeconds accumulates each
// round's critical-path total in round order — numerically it is
// Ledger.Total() in a different floating-point summation order, kept
// separate so the resalloc column reproduces the historical per-round
// accumulation bit for bit.
type JobResult struct {
	Job          Job
	Curve        *metrics.Curve
	Ledger       simnet.Ledger
	TotalSeconds float64
}

// Handoff is what an earlier, killed execution of a job left behind: a
// sim checkpoint plus the ledger and total accumulated over exactly the
// Round rounds that checkpoint had completed (the sweep store persists
// them alongside it).
type Handoff struct {
	CheckpointPath string
	Round          int
	Ledger         simnet.Ledger
	TotalSeconds   float64
}

// RunJob executes one cell: build the world, then drive a Runner over a
// freshly constructed scheme or — given a handoff — over the trainer
// its checkpoint restores. The handoff's sums seed the result's
// accumulators rather than being merged in afterwards, which keeps the
// floating-point addition order of an uninterrupted run, so a resumed
// result is bit identical. Extra options (observers, checkpointing) are
// appended to the job's own rounds/cadence configuration. This is the
// single job-execution path: gsfl/sweep's scheduler and the fleet
// workers both reach it through sweep's runJob.
func RunJob(ctx context.Context, j Job, from *Handoff, opts ...sim.RunOption) (res JobResult, err error) {
	defer func() {
		if err != nil {
			res, err = JobResult{}, fmt.Errorf("experiment: job %s: %w", j.Name, err)
		}
	}()
	// The numeric mode is a process-global kernel switch: hold it for
	// the job's duration so concurrent same-mode jobs proceed together
	// while a mixed exact/fast grid serializes only at mode boundaries.
	release, err := tensor.AcquireNumericMode(j.Spec.Numeric)
	if err != nil {
		return res, err
	}
	defer release()
	world, err := env.Build(j.Spec)
	if err != nil {
		return res, err
	}
	res.Job = j
	ropts := append([]sim.RunOption{
		sim.WithRounds(j.Rounds),
		sim.WithEvalEvery(j.EvalEvery),
		sim.WithObserver(sim.ObserverFunc(func(e sim.RoundEvent) {
			res.Ledger.Merge(e.Ledger)
			res.TotalSeconds += e.RoundSeconds
		})),
	}, opts...)
	schemeOpts, err := j.Spec.SchemeOptions()
	if err != nil {
		return res, err
	}
	var runner *sim.Runner
	if from == nil {
		tr, err := sim.New(j.Scheme, world, schemeOpts)
		if err != nil {
			return res, err
		}
		runner = sim.NewRunner(tr, ropts...)
	} else {
		res.Ledger, res.TotalSeconds = from.Ledger, from.TotalSeconds
		if runner, err = sim.Resume(from.CheckpointPath, world, ropts...); err != nil {
			return res, err
		}
		// Resume took the scheme and its options from the file. This is
		// the one hard check that the Runner it built is the one the
		// handoff described and the job names: the environment fingerprint
		// does not cover the options, so a sibling cell's checkpoint (same
		// world, other groups or strategy) restores without complaint.
		if runner.Scheme() != j.Scheme {
			return res, fmt.Errorf("checkpoint trains %q, job wants %q", runner.Scheme(), j.Scheme)
		}
		if runner.CompletedRounds() != from.Round {
			return res, fmt.Errorf("checkpoint is at round %d, handoff sums cover %d", runner.CompletedRounds(), from.Round)
		}
		if got := runner.Options(); got != schemeOpts {
			return res, fmt.Errorf("checkpoint trains under options %+v, job wants %+v", got, schemeOpts)
		}
	}
	res.Curve, err = runner.Run(ctx)
	return res, err
}
