package wireless

import (
	"fmt"

	"gsfl/internal/registry"
)

// Allocator splits a bandwidth budget among a set of concurrently
// transmitting clients. It returns one allocation per requested client,
// in the same order, summing to at most the budget.
//
// This is the resource-allocation knob the paper's future work targets
// (experiment A3): GSFL runs up to M uplink transfers at once (one per
// group), and how the shared spectrum is divided among them moves the
// round latency.
type Allocator interface {
	// Name identifies the policy in traces and benchmark output.
	Name() string
	// Allocate splits budgetHz among the clients. ch supplies channel
	// state (distances, SNR) for channel-aware policies.
	Allocate(ch *Channel, clients []int, budgetHz float64, uplink bool) []float64
}

// Uniform divides the budget equally — the baseline policy.
type Uniform struct{}

// Name implements Allocator.
func (Uniform) Name() string { return "uniform" }

// Allocate implements Allocator.
func (Uniform) Allocate(ch *Channel, clients []int, budgetHz float64, uplink bool) []float64 {
	checkAlloc(ch, clients, budgetHz)
	out := make([]float64, len(clients))
	per := budgetHz / float64(len(clients))
	for i := range out {
		out[i] = per
	}
	return out
}

// ProportionalFair grants bandwidth proportional to each client's
// spectral efficiency, maximizing sum throughput (good channels get
// more spectrum).
type ProportionalFair struct{}

// Name implements Allocator.
func (ProportionalFair) Name() string { return "proportional-fair" }

// Allocate implements Allocator.
func (ProportionalFair) Allocate(ch *Channel, clients []int, budgetHz float64, uplink bool) []float64 {
	checkAlloc(ch, clients, budgetHz)
	probe := budgetHz / float64(len(clients))
	eff := make([]float64, len(clients))
	total := 0.0
	for i, cl := range clients {
		eff[i] = ch.MeanRate(cl, probe, uplink) / probe // bits/s/Hz
		total += eff[i]
	}
	out := make([]float64, len(clients))
	for i := range out {
		out[i] = budgetHz * eff[i] / total
	}
	return out
}

// LatencyMin equalizes expected completion time for equal-sized
// transfers: bandwidth inversely proportional to spectral efficiency, so
// weak-channel clients finish together with strong ones. This minimizes
// the max completion time of a synchronized batch of transfers — the
// quantity GSFL's parallel groups actually wait on.
type LatencyMin struct{}

// Name implements Allocator.
func (LatencyMin) Name() string { return "latency-min" }

// Allocate implements Allocator.
func (LatencyMin) Allocate(ch *Channel, clients []int, budgetHz float64, uplink bool) []float64 {
	checkAlloc(ch, clients, budgetHz)
	probe := budgetHz / float64(len(clients))
	inv := make([]float64, len(clients))
	total := 0.0
	for i, cl := range clients {
		eff := ch.MeanRate(cl, probe, uplink) / probe
		inv[i] = 1 / eff
		total += inv[i]
	}
	out := make([]float64, len(clients))
	for i := range out {
		out[i] = budgetHz * inv[i] / total
	}
	return out
}

var allocators = registry.New[Allocator]("wireless", "allocator")

// RegisterAllocator adds a bandwidth-allocation policy to the registry
// under its Name() plus any extra aliases (CLI shorthands). Registered
// allocators are resolvable by ParseAllocator, listed by
// AllocatorNames, and usable by name in experiment specs and grid
// files. It panics on a nil allocator, an empty name, or a duplicate
// name — programmer errors at init time. The built-in policies register
// themselves; call this only for out-of-tree allocators.
func RegisterAllocator(a Allocator, aliases ...string) {
	if a == nil {
		panic("wireless: RegisterAllocator with nil allocator")
	}
	allocators.Register(a.Name(), a, aliases...)
}

// AllocatorNames returns the canonical names of every registered
// allocator in sorted order.
func AllocatorNames() []string { return allocators.Names() }

// ParseAllocator resolves an allocator policy from its canonical Name()
// or a registered alias. The built-ins answer to "uniform",
// "propfair"/"proportional-fair", and "latmin"/"latency-min". It is the
// single name-to-allocator resolution path shared by the CLIs, grid
// files, and the env registry.
func ParseAllocator(name string) (Allocator, error) { return allocators.Get(name) }

// The built-in policies register like out-of-tree ones, so name
// resolution, listing, and dispatch have exactly one path.
func init() {
	RegisterAllocator(Uniform{})
	RegisterAllocator(ProportionalFair{}, "propfair")
	RegisterAllocator(LatencyMin{}, "latmin")
}

func checkAlloc(ch *Channel, clients []int, budgetHz float64) {
	if len(clients) == 0 {
		panic("wireless: allocation for zero clients")
	}
	if budgetHz <= 0 {
		panic(fmt.Sprintf("wireless: budget %v must be positive", budgetHz))
	}
	for _, c := range clients {
		if c < 0 || c >= ch.N() {
			panic(fmt.Sprintf("wireless: client %d outside fleet of %d", c, ch.N()))
		}
	}
}
