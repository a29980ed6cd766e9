// Package gsfl is a from-scratch Go reproduction of "Split Federated
// Learning: Speed up Model Training in Resource-Limited Wireless
// Networks" (Zhang et al., ICDCS 2023; arXiv:2305.18889).
//
// The public surface is three layers. The environment API in gsfl/env
// describes and constructs the simulated world: a fully
// JSON-serializable Spec whose extension points — bandwidth allocator,
// grouping strategy, dataset generator, model architecture — are
// referenced by registered name through four registries
// (RegisterAllocator, RegisterStrategy, RegisterDataset, RegisterArch),
// plus Build with eager field-specific validation and a facade for the
// real-TCP deployment (NewAP, Dial). The run API in gsfl/sim drives one
// scheme: a scheme registry the five schemes self-register into, a
// context-aware Runner built with functional options that streams
// structured RoundEvents as rounds complete, and checkpoint/resume that
// continues killed runs bit-identically (curve, model bits, and latency
// ledgers all match an uninterrupted run). The sweep engine in
// gsfl/sweep drives whole experiment grids: declarative Grids over
// env.Specs expand into jobs with stable content-hash IDs, a Scheduler
// trains N jobs concurrently under a shared worker budget, a Store
// (JSON-lines manifest plus per-job curve CSVs) makes sweeps resumable
// and byte-identical at any concurrency, and the paper's figure/table
// catalogue (rows of grids and outputs) is re-exported for harness
// frontends. The population engine in gsfl/pop scales the fixed-fleet world to
// cross-device deployment size: a persistent population of up to
// millions of members held as compact records (never live models),
// churned by registered availability traces and device-profile mixes,
// from which each round deterministically samples a cohort onto the
// Spec's client slots — configured through env.Spec's Population
// fields and swept like any other axis. The fleet plane in gsfl/fleet
// distributes a sweep across processes and machines: a coordinator
// owns the Store and leases jobs to pull-based workers over the
// transport wire, with lease expiry, zombie fencing, and
// checkpoint handoff keeping the compacted store byte-identical
// for any worker count or kill schedule. The shared CLI flag vocabulary
// lives in gsfl/cliutil, built on the public API alone; env, sim,
// sweep, pop, and fleet are the only packages allowed to import
// gsfl/internal (enforced by env/boundary_test.go).
//
// The implementation lives under internal/: a tensor and neural-network
// training framework (internal/tensor, internal/nn, internal/loss,
// internal/optim) running on a shared bounded worker pool
// (internal/parallel) with bit-identical results at any worker count,
// the split-model container and architecture registry (internal/model),
// a synthetic GTSRB dataset generator (internal/gtsrb) behind the
// dataset registry (internal/data), a wireless network and device
// simulator (internal/wireless, internal/device, internal/simnet), the
// GSFL scheme itself (internal/gsfl) — whose M groups really train on
// concurrent goroutines, and which also registers the SL (M=1) and
// SplitFed (M=N) baselines it contains — the CL and FL baselines
// (internal/schemes/{cl,fl}), and the experiment harness that regenerates
// every figure and table from the paper (internal/experiment), itself a
// thin consumer of gsfl/env and gsfl/sim.
//
// Entry points: cmd/gsfl-sim runs one scheme through the run API
// (streaming table or JSON-lines output, checkpoint/resume, population
// sampling via -population/-sample-fraction with live gauges on
// -metrics, -list for the registries), cmd/gsfl-sweep runs named or
// custom experiment grids through the sweep engine (concurrent,
// resumable, kill-safe; grid files may patch any env.Spec field;
// -serve/-worker fan the grid across machines through gsfl/fleet) and
// is the one producer of the paper's figures and tables (-exp <name>
// folds the catalogue's CSVs, byte-identical at any -jobs),
// cmd/gsfl-datagen renders synthetic GTSRB samples, and cmd/gsfl-ap
// with cmd/gsfl-client run GSFL as real TCP processes — all of them,
// like the examples, built exclusively on the public packages.
// internal/bench is the performance benchmark (bash
// internal/bench/run.sh). README.md covers usage (including migration
// notes for the pre-registry entry points and the env.Spec migration);
// docs/ARCHITECTURE.md covers the layer structure, the environment API
// and its registries, the run API and its checkpoint contract, the
// latency model, and the parallel execution engine's determinism
// contract.
package gsfl
