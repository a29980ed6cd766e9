package partition

import (
	"fmt"
	"math/rand"
	"sort"

	"gsfl/internal/registry"
)

// GroupFunc implements a grouping policy: assign n clients (identified
// by index 0..n-1) to m groups. capacity carries per-client compute
// capability (lower = slower) for capacity-aware policies and may be
// nil otherwise; rng drives randomized policies and may be nil for
// deterministic ones. Implementations must return every client exactly
// once and at least one client per group, and must be deterministic
// given (n, m, capacity, rng state).
type GroupFunc func(n, m int, capacity []float64, rng *rand.Rand) [][]int

// strategies is the grouping-policy table. The paper defers grouping
// policy to future work; the built-ins implement the obvious candidates
// for the grouping ablation (experiment A2) and RegisterStrategy
// extends the set out of tree. A policy's identity is its canonical
// name — in specs, job hashes, scheme options and run checkpoints — so
// it means the same thing in every process that registered it.
var strategies = registry.New[GroupFunc]("partition", "grouping strategy")

// The built-in policies register like out-of-tree ones. The empty name
// is an alias of round-robin (the paper's default), so the zero
// schemes.FactoryOpts groups round-robin.
func init() {
	strategies.Register("round-robin", roundRobin, "roundrobin", "")
	// "random" shuffles clients, then splits into contiguous chunks.
	strategies.Register("random", randomChunks)
	// "compute-balanced" greedily balances the sum of client compute
	// capacities across groups, minimizing the slowest-group bottleneck
	// (groups run in parallel, so the round ends when the slowest group
	// finishes).
	strategies.Register("compute-balanced", func(n, m int, capacity []float64, _ *rand.Rand) [][]int {
		if len(capacity) != n {
			panic(fmt.Sprintf("partition: compute-balanced grouping needs %d capacities, got %d", n, len(capacity)))
		}
		return computeBalanced(n, m, capacity)
	}, "balanced")
}

// RegisterStrategy adds a grouping policy under its canonical name. It
// panics on an empty name, a nil function, or a duplicate name —
// programmer errors at init time.
func RegisterStrategy(name string, fn GroupFunc) { strategies.Register(name, fn) }

// StrategyNames returns the canonical names of every registered
// grouping strategy in sorted order.
func StrategyNames() []string { return strategies.Names() }

// CanonicalStrategy resolves a strategy's canonical name or an alias of
// it ("roundrobin", "balanced", "" for the default) to the canonical
// name. It is the single name-resolution path shared by the CLIs, grid
// files, the env registry and the schemes.
func CanonicalStrategy(name string) (string, error) { return strategies.Canonical(name) }

// Groups assigns n clients (identified by index) to m groups using the
// named strategy (anything CanonicalStrategy resolves). capacity is
// required by "compute-balanced" (client compute capability; lower =
// slower) and ignored by the other built-ins. Every group receives at
// least one client when n >= m. An unregistered strategy panics:
// callers that take the name from outside validate it with
// CanonicalStrategy first.
func Groups(n, m int, strategy string, capacity []float64, rng *rand.Rand) [][]int {
	if n <= 0 || m <= 0 {
		panic(fmt.Sprintf("partition: groups need positive n=%d m=%d", n, m))
	}
	if m > n {
		panic(fmt.Sprintf("partition: %d groups cannot be filled by %d clients", m, n))
	}
	fn, err := strategies.Get(strategy)
	if err != nil {
		panic(err.Error())
	}
	return fn(n, m, capacity, rng)
}

// roundRobin assigns client i to group i mod m.
func roundRobin(n, m int, _ []float64, _ *rand.Rand) [][]int {
	out := make([][]int, m)
	for i := 0; i < n; i++ {
		out[i%m] = append(out[i%m], i)
	}
	return out
}

// randomChunks shuffles clients, then splits into contiguous chunks.
func randomChunks(n, m int, _ []float64, rng *rand.Rand) [][]int {
	perm := rng.Perm(n)
	out := make([][]int, m)
	for gi := 0; gi < m; gi++ {
		lo := gi * n / m
		hi := (gi + 1) * n / m
		out[gi] = append([]int(nil), perm[lo:hi]...)
		sort.Ints(out[gi])
	}
	return out
}

// computeBalanced is the LPT (longest processing time) greedy: sort
// clients by per-step cost (1/capacity) descending and repeatedly give
// the costliest unassigned client to the group with the smallest load,
// subject to keeping group sizes within ±1 of n/m (a group's round time
// grows with its client count, so sizes must stay balanced too).
func computeBalanced(n, m int, capacity []float64) [][]int {
	type client struct {
		idx  int
		cost float64 // sequential time contribution ∝ 1/capacity
	}
	cs := make([]client, n)
	for i, c := range capacity {
		if c <= 0 {
			panic(fmt.Sprintf("partition: client %d capacity %v must be positive", i, c))
		}
		cs[i] = client{idx: i, cost: 1 / c}
	}
	sort.Slice(cs, func(a, b int) bool {
		if cs[a].cost != cs[b].cost {
			return cs[a].cost > cs[b].cost
		}
		return cs[a].idx < cs[b].idx // deterministic tie-break
	})
	maxSize := (n + m - 1) / m
	load := make([]float64, m)
	out := make([][]int, m)
	for _, c := range cs {
		best := -1
		for gi := 0; gi < m; gi++ {
			if len(out[gi]) >= maxSize {
				continue
			}
			if best == -1 || load[gi] < load[best] {
				best = gi
			}
		}
		out[best] = append(out[best], c.idx)
		load[best] += c.cost
	}
	for gi := range out {
		sort.Ints(out[gi])
	}
	return out
}
