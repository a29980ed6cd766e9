// Package env is the public environment API of the GSFL reproduction:
// the one way to describe and construct the simulated world a training
// scheme runs in, and the extension point for out-of-tree allocators,
// grouping strategies, datasets, and model architectures.
//
// It rests on two ideas:
//
//   - A serializable Spec. Population, data, split point,
//     hyperparameters, hardware, and radio environment are plain fields;
//     the bandwidth allocator, grouping strategy, dataset generator, and
//     model architecture are referenced by registered name — so a whole
//     experiment configuration round-trips through JSON, and a grid file
//     or a remote job queue can carry complete world descriptions.
//     Build materializes a Spec into a *sim.Env after eager,
//     field-specific validation. Building the same Spec twice yields
//     bit-identical worlds.
//
//   - Six registries, mirroring the scheme registry in gsfl/sim.
//     RegisterAllocator, RegisterStrategy, RegisterDataset,
//     RegisterArch, RegisterAvailTrace, and RegisterDeviceProfile add
//     implementations under a name; Allocators, Strategies, Datasets,
//     Archs, AvailTraces, and DeviceProfiles list them; a Spec (or a
//     CLI flag, or a grid-file axis) selects one by that name. The
//     built-ins self-register, so the names "uniform", "round-robin",
//     "gtsrb-synth", "gtsrb-cnn", "onoff", "low-end", … are always
//     available. Spec.Canonical is the one place a Spec's names meet
//     the registries: it rewrites aliases ("propfair") to canonical
//     names and reports an unknown name with the field at fault;
//     Validate, grid expansion and job hashing all go through it.
//
// Setting Spec.Population (with SampleFraction, AvailTrace, and
// DeviceProfileMix) attaches a persistent client population from
// gsfl/pop: Build constructs the member records, and the cohort-based
// schemes sample from it each round. A Spec
// with Population == Clients and full always-on sampling is the classic
// fixed-fleet world and attaches nothing.
//
// Minimal use:
//
//	spec := env.TestSpec()
//	spec.Alloc = "latency-min"
//	world, err := env.Build(spec)
//	opts, err := spec.SchemeOptions()
//	tr, err := sim.New("gsfl", world, opts)
//	curve, err := sim.NewRunner(tr, sim.WithRounds(50)).Run(ctx)
//
// Extending it (in your own package):
//
//	func init() {
//	    env.RegisterAllocator(MyAllocator{})            // by Name()
//	    env.RegisterStrategy("my-grouping", myGroupFn)
//	}
//	...
//	spec.Alloc, spec.Strategy = "my-allocator", "my-grouping"
//
// The package also re-exports the real-network deployment facade
// (NewAP, Dial) so the TCP protocol demos need no internal imports; see
// deploy.go.
package env
