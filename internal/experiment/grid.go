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

// hashJob derives the stable content ID of a (scheme, spec, rounds,
// evalEvery) cell. Extension names are canonicalized through the env
// registries before hashing, so a spec saying "propfair" and one saying
// "proportional-fair" are the same cell.
func hashJob(scheme string, s Spec, rounds, evalEvery int) (string, error) {
	if s.Alloc == "" {
		return "", fmt.Errorf("experiment: job spec has no allocator")
	}
	s = s.Normalized()
	alloc, err := env.CanonicalAllocator(s.Alloc)
	if err != nil {
		return "", fmt.Errorf("experiment: job identity: %w", err)
	}
	strategy, err := env.CanonicalStrategy(s.Strategy)
	if err != nil {
		return "", fmt.Errorf("experiment: job identity: %w", err)
	}
	id := jobIdentity{
		Scheme:         scheme,
		Rounds:         rounds,
		EvalEvery:      evalEvery,
		Clients:        s.Clients,
		Groups:         s.Groups,
		Strategy:       strategy,
		ImageSize:      s.ImageSize,
		TrainPerClient: s.TrainPerClient,
		TestPerClass:   s.TestPerClass,
		Alpha:          s.Alpha,
		Cut:            s.Cut,
		Hyper:          s.Hyper,
		Alloc:          alloc,
		Device:         s.Device,
		Wireless:       s.Wireless,
		Seed:           s.Seed,
		Pipelined:      s.Pipelined,
		DropoutProb:    s.DropoutProb,
	}
	buf, err := json.Marshal(id) // struct field order is fixed => deterministic bytes
	if err != nil {
		return "", fmt.Errorf("experiment: encoding job identity: %w", err)
	}
	h := fnv.New64a()
	_, _ = h.Write(buf)
	// The dataset and architecture joined the identity after the format
	// above was pinned; they extend the hash only when non-default, so
	// every historical job keeps its historical ID.
	if s.Dataset != env.DefaultDataset || s.Arch != env.DefaultArch {
		ext, err := json.Marshal(struct{ Dataset, Arch string }{s.Dataset, s.Arch})
		if err != nil {
			return "", fmt.Errorf("experiment: encoding job identity extension: %w", err)
		}
		_, _ = h.Write(ext)
	}
	// The population fields joined later still (PR 7); same rule — only a
	// spec that actually configures a population extends the hash, so
	// population-free jobs keep their historical IDs.
	if s.Population != 0 {
		trace, err := env.CanonicalAvailTrace(s.AvailTrace)
		if err != nil {
			return "", fmt.Errorf("experiment: job identity: %w", err)
		}
		ext, err := json.Marshal(struct {
			Population     int
			SampleFraction float64
			AvailTrace     string
			ProfileMix     string
		}{s.Population, s.SampleFraction, trace, s.DeviceProfileMix})
		if err != nil {
			return "", fmt.Errorf("experiment: encoding job identity extension: %w", err)
		}
		_, _ = h.Write(ext)
	}
	// The numeric mode (PR 8) extends the hash only when it is not the
	// default, so every exact-mode job — the entire historical catalogue —
	// keeps its historical ID.
	numeric, err := env.CanonicalNumericMode(s.Numeric)
	if err != nil {
		return "", fmt.Errorf("experiment: job identity: %w", err)
	}
	if numeric != env.DefaultNumericMode {
		ext, err := json.Marshal(struct{ Numeric string }{numeric})
		if err != nil {
			return "", fmt.Errorf("experiment: encoding job identity extension: %w", err)
		}
		_, _ = h.Write(ext)
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// RehashJob recomputes a job's content-hash ID from its fields — the
// integrity check a fleet worker runs on a job received over the wire:
// a decoded job whose recomputed hash differs from its claimed ID was
// corrupted (or built by a coordinator with drifted identity rules) and
// must not execute under the claimed identity.
func RehashJob(j Job) (string, error) {
	return hashJob(j.Scheme, j.Spec, j.Rounds, j.EvalEvery)
}

// canonicalizeSpec rewrites the spec's extension names to their
// canonical registry forms (empty strategy/dataset/arch to defaults,
// aliases like "propfair" to "proportional-fair"). An empty allocator
// is left for hashJob's dedicated error.
func canonicalizeSpec(s *Spec) error {
	*s = s.Normalized()
	if s.Alloc != "" {
		alloc, err := env.CanonicalAllocator(s.Alloc)
		if err != nil {
			return err
		}
		s.Alloc = alloc
	}
	strategy, err := env.CanonicalStrategy(s.Strategy)
	if err != nil {
		return err
	}
	s.Strategy = strategy
	if _, err := env.CanonicalDataset(s.Dataset); err != nil {
		return err
	}
	if _, err := env.CanonicalArch(s.Arch); err != nil {
		return err
	}
	if s.Population > 0 {
		if _, err := env.CanonicalAvailTrace(s.AvailTrace); err != nil {
			return err
		}
	}
	if _, err := env.CanonicalNumericMode(s.Numeric); err != nil {
		return err
	}
	return nil
}

// axis is one expanded dimension: a key for labels and one apply
// function per value.
type axis struct {
	key  string
	vals []axisVal
}

type axisVal struct {
	label string
	apply func(j *Job) error
}

// axes assembles the expansion plan in canonical nesting order.
func (g Grid) axes() []axis {
	var out []axis
	add := func(key string, n int, label func(i int) string, apply func(j *Job, i int) error) {
		if n == 0 {
			return
		}
		a := axis{key: key}
		for i := 0; i < n; i++ {
			i := i
			a.vals = append(a.vals, axisVal{
				label: fmt.Sprintf("%s=%s", key, label(i)),
				apply: func(j *Job) error { return apply(j, i) },
			})
		}
		out = append(out, a)
	}
	add("seed", len(g.Axes.Seeds),
		func(i int) string { return fmt.Sprintf("%d", g.Axes.Seeds[i]) },
		func(j *Job, i int) error { j.Spec.Seed = g.Axes.Seeds[i]; return nil })
	add("alpha", len(g.Axes.Alphas),
		func(i int) string { return fmt.Sprintf("%g", g.Axes.Alphas[i]) },
		func(j *Job, i int) error { j.Spec.Alpha = g.Axes.Alphas[i]; return nil })
	add("cut", len(g.Axes.Cuts),
		func(i int) string { return fmt.Sprintf("%d", g.Axes.Cuts[i]) },
		func(j *Job, i int) error { j.Spec.Cut = g.Axes.Cuts[i]; return nil })
	add("groups", len(g.Axes.Groups),
		func(i int) string { return fmt.Sprintf("%d", g.Axes.Groups[i]) },
		func(j *Job, i int) error { j.Spec.Groups = g.Axes.Groups[i]; return nil })
	add("strategy", len(g.Axes.Strategies),
		func(i int) string { return g.Axes.Strategies[i] },
		func(j *Job, i int) error {
			st, err := env.CanonicalStrategy(g.Axes.Strategies[i])
			if err != nil {
				return err
			}
			j.Spec.Strategy = st
			return nil
		})
	add("alloc", len(g.Axes.Allocators),
		func(i int) string { return g.Axes.Allocators[i] },
		func(j *Job, i int) error {
			al, err := env.CanonicalAllocator(g.Axes.Allocators[i])
			if err != nil {
				return err
			}
			j.Spec.Alloc = al
			return nil
		})
	add("dropout", len(g.Axes.Dropouts),
		func(i int) string { return fmt.Sprintf("%g", g.Axes.Dropouts[i]) },
		func(j *Job, i int) error { j.Spec.DropoutProb = g.Axes.Dropouts[i]; return nil })
	add("quant", len(g.Axes.Quantized),
		func(i int) string { return fmt.Sprintf("%t", g.Axes.Quantized[i]) },
		func(j *Job, i int) error { j.Spec.Hyper.QuantizeTransfers = g.Axes.Quantized[i]; return nil })
	add("pipe", len(g.Axes.Pipelined),
		func(i int) string { return fmt.Sprintf("%t", g.Axes.Pipelined[i]) },
		func(j *Job, i int) error { j.Spec.Pipelined = g.Axes.Pipelined[i]; return nil })
	add("dataset", len(g.Axes.Datasets),
		func(i int) string { return g.Axes.Datasets[i] },
		func(j *Job, i int) error {
			name, err := env.CanonicalDataset(g.Axes.Datasets[i])
			if err != nil {
				return err
			}
			j.Spec.Dataset = name
			return nil
		})
	add("arch", len(g.Axes.Archs),
		func(i int) string { return g.Axes.Archs[i] },
		func(j *Job, i int) error {
			name, err := env.CanonicalArch(g.Axes.Archs[i])
			if err != nil {
				return err
			}
			j.Spec.Arch = name
			return nil
		})
	add("pop", len(g.Axes.Populations),
		func(i int) string { return fmt.Sprintf("%d", g.Axes.Populations[i]) },
		func(j *Job, i int) error { j.Spec.Population = g.Axes.Populations[i]; return nil })
	add("frac", len(g.Axes.SampleFractions),
		func(i int) string { return fmt.Sprintf("%g", g.Axes.SampleFractions[i]) },
		func(j *Job, i int) error { j.Spec.SampleFraction = g.Axes.SampleFractions[i]; return nil })
	add("trace", len(g.Axes.AvailTraces),
		func(i int) string { return g.Axes.AvailTraces[i] },
		func(j *Job, i int) error {
			name, err := env.CanonicalAvailTrace(g.Axes.AvailTraces[i])
			if err != nil {
				return err
			}
			j.Spec.AvailTrace = name
			return nil
		})
	add("numeric", len(g.Axes.Numerics),
		func(i int) string { return g.Axes.Numerics[i] },
		func(j *Job, i int) error {
			name, err := env.CanonicalNumericMode(g.Axes.Numerics[i])
			if err != nil {
				return err
			}
			// canonicalizeSpec's Normalized folds the default back to "",
			// so the exact-mode cell dedups against numeric-free grids.
			j.Spec.Numeric = name
			return nil
		})
	schemesAxis := g.Axes.Schemes
	if len(schemesAxis) == 0 {
		schemesAxis = []string{"gsfl"}
	}
	add("scheme", len(schemesAxis),
		func(i int) string { return schemesAxis[i] },
		func(j *Job, i int) error { j.Scheme = schemesAxis[i]; return nil })
	return out
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
	axes := g.axes()
	var jobs []Job
	var expand func(prefix []string, applied []func(j *Job) error, depth int) error
	expand = func(prefix []string, applied []func(j *Job) error, depth int) error {
		if depth == len(axes) {
			j := Job{Name: g.Name, Spec: g.Base, Rounds: g.Rounds, EvalEvery: g.EvalEvery}
			for _, apply := range applied {
				if err := apply(&j); err != nil {
					return fmt.Errorf("experiment: grid %q: %w", g.Name, err)
				}
			}
			if len(prefix) > 0 {
				j.Name += "/" + strings.Join(prefix, ",")
			}
			// The job carries the canonical spec (alias names from a grid
			// file's base patch resolved, defaults filled in), so folds,
			// stores, and logs all record one spelling per extension.
			if err := canonicalizeSpec(&j.Spec); err != nil {
				return fmt.Errorf("experiment: grid %q cell %s: %w", g.Name, j.Name, err)
			}
			id, err := hashJob(j.Scheme, j.Spec, j.Rounds, j.EvalEvery)
			if err != nil {
				return fmt.Errorf("experiment: grid %q cell %s: %w", g.Name, j.Name, err)
			}
			j.ID = id
			jobs = append(jobs, j)
			return nil
		}
		a := axes[depth]
		for _, v := range a.vals {
			p := prefix
			if len(a.vals) > 1 {
				p = append(p[:len(p):len(p)], v.label)
			}
			if err := expand(p, append(applied[:len(applied):len(applied)], v.apply), depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := expand(nil, nil, 0); err != nil {
		return nil, err
	}
	return jobs, nil
}

// JobResult is one completed cell: the training curve plus the summed
// per-component latency ledger over every executed round (the breakdown
// the latency tables fold over). TotalSeconds accumulates each round's
// critical-path total in round order — numerically it is Ledger.Total()
// in a different floating-point summation order, kept separate so folds
// reproduce the historical per-round accumulation bit for bit.
type JobResult struct {
	Job          Job
	Curve        *metrics.Curve
	Ledger       simnet.Ledger
	TotalSeconds float64
}

// resultObserver accumulates every round's ledger and total into res.
func resultObserver(res *JobResult) sim.RunOption {
	return sim.WithObserver(sim.ObserverFunc(func(e sim.RoundEvent) {
		res.Ledger.Merge(e.Ledger)
		res.TotalSeconds += e.RoundSeconds
	}))
}

// RunJob executes one cell from scratch: build the world, construct the
// scheme, drive the Runner. Extra options (observers, checkpointing)
// are appended to the job's own rounds/cadence configuration. This is
// the single job-execution path: gsfl/sweep's scheduler and the fleet
// workers both reach it through sweep's runJob.
func RunJob(ctx context.Context, j Job, opts ...sim.RunOption) (JobResult, error) {
	// The numeric mode is a process-global kernel switch: hold it for
	// the job's duration so concurrent same-mode jobs proceed together
	// while a mixed exact/fast grid serializes only at mode boundaries.
	release, err := tensor.AcquireNumericMode(j.Spec.Numeric)
	if err != nil {
		return JobResult{}, fmt.Errorf("experiment: job %s: %w", j.Name, err)
	}
	defer release()
	world, err := env.Build(j.Spec)
	if err != nil {
		return JobResult{}, fmt.Errorf("experiment: job %s: %w", j.Name, err)
	}
	schemeOpts, err := j.Spec.SchemeOptions()
	if err != nil {
		return JobResult{}, fmt.Errorf("experiment: job %s: %w", j.Name, err)
	}
	tr, err := sim.New(j.Scheme, world, schemeOpts)
	if err != nil {
		return JobResult{}, fmt.Errorf("experiment: job %s: %w", j.Name, err)
	}
	res := JobResult{Job: j}
	ropts := append([]sim.RunOption{
		sim.WithRounds(j.Rounds),
		sim.WithEvalEvery(j.EvalEvery),
		resultObserver(&res),
	}, opts...)
	res.Curve, err = sim.NewRunner(tr, ropts...).Run(ctx)
	if err != nil {
		return JobResult{}, fmt.Errorf("experiment: job %s: %w", j.Name, err)
	}
	return res, nil
}

// ResumeJob continues a cell from a sim checkpoint written by an earlier
// (killed) execution of the same job. prior and priorTotal seed the
// ledger/total accumulators with the already-completed rounds' sums
// (persisted by the sweep store alongside the checkpoint): seeding —
// rather than merging afterwards — keeps the floating-point addition
// order identical to an uninterrupted run, so the resumed result is bit
// identical. startRound reports how many rounds the checkpoint had
// completed; callers must ensure prior covers exactly those rounds.
func ResumeJob(ctx context.Context, j Job, ckptPath string, prior simnet.Ledger, priorTotal float64, opts ...sim.RunOption) (res JobResult, startRound int, err error) {
	release, err := tensor.AcquireNumericMode(j.Spec.Numeric)
	if err != nil {
		return JobResult{}, 0, fmt.Errorf("experiment: job %s: %w", j.Name, err)
	}
	defer release()
	world, err := env.Build(j.Spec)
	if err != nil {
		return JobResult{}, 0, fmt.Errorf("experiment: job %s: %w", j.Name, err)
	}
	res = JobResult{Job: j, Ledger: prior, TotalSeconds: priorTotal}
	ropts := append([]sim.RunOption{
		sim.WithRounds(j.Rounds),
		sim.WithEvalEvery(j.EvalEvery),
		resultObserver(&res),
	}, opts...)
	r, err := sim.Resume(ckptPath, world, ropts...)
	if err != nil {
		return JobResult{}, 0, fmt.Errorf("experiment: job %s: %w", j.Name, err)
	}
	if r.Scheme() != j.Scheme {
		return JobResult{}, 0, fmt.Errorf("experiment: job %s: checkpoint trains %q, job wants %q", j.Name, r.Scheme(), j.Scheme)
	}
	startRound = r.CompletedRounds()
	res.Curve, err = r.Run(ctx)
	if err != nil {
		return JobResult{}, startRound, fmt.Errorf("experiment: job %s: %w", j.Name, err)
	}
	return res, startRound, nil
}
