// Package cliutil holds the flag vocabulary shared by the harness CLIs
// (gsfl-sim, gsfl-sweep): the environment knobs every command exposes
// (-alloc, -strategy, -arch, -numeric, -workers), the -scale presets
// mapping to experiment specs, and the -list registry dump.
// Centralizing them keeps the commands' help text, accepted tokens, and
// defaults identical.
//
// It is built entirely on the public gsfl/env and gsfl/sim packages —
// allocator, strategy, and architecture tokens resolve through the env
// registries, so out-of-tree extensions registered by an embedding
// program show up in help text, -list output, and flag parsing with no
// changes here.
package cliutil

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"gsfl/env"
	"gsfl/sim"
)

// EnvFlags are the CLI knobs shared by every harness command. Register
// them on a FlagSet, parse, then Apply onto a Spec.
type EnvFlags struct {
	// Alloc, Strategy, and Arch are registry-name tokens (resolved and
	// canonicalized by Apply).
	Alloc    string
	Strategy string
	Arch     string
	// Numeric is the tensor-kernel numeric mode ("exact" keeps the
	// bit-identical default; "fast" allows FMA reassociation).
	Numeric string
	// Workers is the worker-goroutine budget flag value.
	Workers int
}

// Register declares the shared flags on fs with the harness's canonical
// names, defaults, and help strings. The accepted tokens come from the
// env registries, so help text always matches what is registered.
func (e *EnvFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&e.Alloc, "alloc", "uniform",
		"bandwidth allocator: "+strings.Join(env.Allocators(), "|"))
	fs.StringVar(&e.Strategy, "strategy", "roundrobin",
		"grouping strategy: "+strings.Join(env.Strategies(), "|"))
	fs.StringVar(&e.Arch, "arch", env.DefaultArch,
		"model architecture: "+strings.Join(env.Archs(), "|"))
	fs.StringVar(&e.Numeric, "numeric", env.DefaultNumericMode,
		"tensor-kernel numeric mode: "+strings.Join(env.NumericModes(), "|"))
	fs.IntVar(&e.Workers, "workers", 0, "worker goroutines for parallel execution (0 = GOMAXPROCS, 1 = serial)")
}

// Apply resolves the allocator, strategy, architecture, and numeric-
// mode tokens through the env registries and writes their canonical
// names onto spec. The numeric mode is additionally installed process-
// wide (env.SetNumericMode), so single-run commands whose kernels never
// consult a Spec — gsfl-sim's Runner, checkpoint resume — honor the
// flag too.
func (e *EnvFlags) Apply(spec *env.Spec) error {
	alloc, err := env.CanonicalAllocator(e.Alloc)
	if err != nil {
		return err
	}
	spec.Alloc = alloc
	strategy, err := env.CanonicalStrategy(e.Strategy)
	if err != nil {
		return err
	}
	spec.Strategy = strategy
	arch, err := env.CanonicalArch(e.Arch)
	if err != nil {
		return err
	}
	spec.Arch = arch
	numeric, err := env.CanonicalNumericMode(e.Numeric)
	if err != nil {
		return err
	}
	spec.Numeric = numeric
	return env.SetNumericMode(numeric)
}

// PopFlags are the population-layer knobs (PR 7) a harness command
// exposes alongside EnvFlags. Zero values leave the spec untouched, so
// commands that never pass the flags keep the classic fixed-client
// world.
type PopFlags struct {
	// Population is the persistent member count (0 = no population).
	Population int
	// SampleFraction is the per-round cohort fraction of the population.
	SampleFraction float64
	// AvailTrace and ProfileMix are registry-name tokens (the mix is a
	// "name:weight,…" expression over registered device profiles).
	AvailTrace string
	ProfileMix string
}

// Register declares the population flags on fs. The accepted trace
// tokens come from the env registry, so help text always matches what
// is registered.
func (p *PopFlags) Register(fs *flag.FlagSet) {
	fs.IntVar(&p.Population, "population", 0,
		"persistent client population size (0 = classic fixed-client world)")
	fs.Float64Var(&p.SampleFraction, "sample-fraction", 0,
		"fraction of the population sampled per round (0 = full sampling)")
	fs.StringVar(&p.AvailTrace, "avail-trace", "",
		"availability trace: "+strings.Join(env.AvailTraces(), "|"))
	fs.StringVar(&p.ProfileMix, "profile-mix", "",
		"device-profile mix, name:weight pairs over "+strings.Join(env.DeviceProfiles(), "|"))
}

// Apply writes the population fields onto spec and validates them
// eagerly (field-specific errors, so a CLI typo names the flag at
// fault). The flags ride on Spec validation rather than duplicating
// it.
func (p *PopFlags) Apply(spec *env.Spec) error {
	spec.Population = p.Population
	spec.SampleFraction = p.SampleFraction
	spec.AvailTrace = p.AvailTrace
	spec.DeviceProfileMix = p.ProfileMix
	if err := spec.Validate(); err != nil {
		return err
	}
	return nil
}

// Scale is one -scale preset: the base spec plus the round budget,
// evaluation cadence, and table-1 target accuracy the harness uses at
// that size.
type Scale struct {
	Spec      env.Spec
	Rounds    int
	EvalEvery int
	Target    float64
}

// ParseScale maps a -scale token to its preset.
func ParseScale(name string) (Scale, error) {
	switch name {
	case "test":
		return Scale{Spec: env.TestSpec(), Rounds: 6, EvalEvery: 2, Target: 0.3}, nil
	case "medium":
		spec := env.PaperSpec()
		spec.Clients = 30
		spec.Groups = 6
		spec.ImageSize = 16
		spec.TrainPerClient = 80
		spec.TestPerClass = 5
		spec.Hyper.Batch = 16
		spec.Hyper.StepsPerClient = 2
		spec.Device.N = spec.Clients
		return Scale{Spec: spec, Rounds: 40, EvalEvery: 4, Target: 0.6}, nil
	case "paper":
		return Scale{Spec: env.PaperSpec(), Rounds: 200, EvalEvery: 10, Target: 0.85}, nil
	default:
		return Scale{}, fmt.Errorf("unknown scale %q (want test|medium|paper)", name)
	}
}

// PrintRegistries writes every extension registry's contents — schemes,
// allocators, grouping strategies, model architectures, dataset
// generators, straggler policies, availability traces, device
// profiles — one section per line, to w. It is the single source of
// the -list output shared by gsfl-sim, gsfl-sweep, and the deployment
// commands.
func PrintRegistries(w io.Writer) {
	fmt.Fprintf(w, "schemes:     %s\n", strings.Join(sim.Schemes(), " "))
	fmt.Fprintf(w, "allocators:  %s\n", strings.Join(env.Allocators(), " "))
	fmt.Fprintf(w, "strategies:  %s\n", strings.Join(env.Strategies(), " "))
	fmt.Fprintf(w, "archs:       %s\n", strings.Join(env.Archs(), " "))
	fmt.Fprintf(w, "datasets:    %s\n", strings.Join(env.Datasets(), " "))
	fmt.Fprintf(w, "stragglers:  %s\n", strings.Join(env.StragglerPolicies(), " "))
	fmt.Fprintf(w, "traces:      %s\n", strings.Join(env.AvailTraces(), " "))
	fmt.Fprintf(w, "profiles:    %s\n", strings.Join(env.DeviceProfiles(), " "))
	fmt.Fprintf(w, "numerics:    %s\n", strings.Join(env.NumericModes(), " "))
}
