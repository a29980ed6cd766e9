package partition

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
)

// GroupStrategy identifies a client-grouping policy. The paper defers
// grouping policy to future work; the built-in values implement the
// obvious candidates for the grouping ablation (experiment A2), and
// RegisterStrategy extends the set with out-of-tree policies resolved
// by name. The built-in constants' integer values are stable (they are
// written into run checkpoints); dynamically registered strategies
// receive values in registration order.
type GroupStrategy int

const (
	// GroupRoundRobin assigns client i to group i mod M (the default).
	GroupRoundRobin GroupStrategy = iota
	// GroupRandom shuffles clients, then splits into contiguous chunks.
	GroupRandom
	// GroupComputeBalanced greedily balances the sum of client compute
	// capacities across groups, minimizing the slowest-group bottleneck
	// (groups run in parallel, so the round ends when the slowest group
	// finishes).
	GroupComputeBalanced

	// firstDynamicStrategy is where RegisterStrategy starts handing out
	// values.
	firstDynamicStrategy
)

// GroupFunc implements a grouping policy: assign n clients (identified
// by index 0..n-1) to m groups. capacity carries per-client compute
// capability (lower = slower) for capacity-aware policies and may be
// nil otherwise; rng drives randomized policies and may be nil for
// deterministic ones. Implementations must return every client exactly
// once and at least one client per group, and must be deterministic
// given (n, m, capacity, rng state).
type GroupFunc func(n, m int, capacity []float64, rng *rand.Rand) [][]int

// strategyEntry is one registered policy.
type strategyEntry struct {
	name string
	fn   GroupFunc
}

var (
	strategyMu      sync.RWMutex
	strategyByName  = map[string]GroupStrategy{}
	strategyEntries = map[GroupStrategy]strategyEntry{}
	nextStrategy    = firstDynamicStrategy
)

// registerStrategyAs installs fn under a fixed strategy value, its
// canonical name, and any aliases. Shared by the built-in init
// registrations (fixed values) and RegisterStrategy (dynamic values).
func registerStrategyAs(s GroupStrategy, name string, fn GroupFunc, aliases ...string) {
	if name == "" {
		panic("partition: RegisterStrategy with empty name")
	}
	if fn == nil {
		panic(fmt.Sprintf("partition: RegisterStrategy(%q) with nil GroupFunc", name))
	}
	strategyMu.Lock()
	defer strategyMu.Unlock()
	if _, dup := strategyByName[name]; dup {
		panic(fmt.Sprintf("partition: grouping strategy %q registered twice", name))
	}
	strategyByName[name] = s
	strategyEntries[s] = strategyEntry{name: name, fn: fn}
	for _, a := range aliases {
		if _, dup := strategyByName[a]; dup {
			panic(fmt.Sprintf("partition: grouping strategy alias %q registered twice", a))
		}
		strategyByName[a] = s
	}
}

// RegisterStrategy adds a grouping policy under its canonical name and
// returns the GroupStrategy value that now identifies it (usable in
// schemes.FactoryOpts and experiment specs). It panics on an empty
// name, a nil function, or a duplicate name — programmer errors at init
// time. Note that dynamic values are assigned in registration order, so
// checkpoints of runs using registered strategies resume correctly only
// under the same registration order.
func RegisterStrategy(name string, fn GroupFunc) GroupStrategy {
	strategyMu.Lock()
	s := nextStrategy
	nextStrategy++
	strategyMu.Unlock()
	registerStrategyAs(s, name, fn)
	return s
}

// StrategyNames returns the canonical names of every registered
// grouping strategy in sorted order.
func StrategyNames() []string {
	strategyMu.RLock()
	defer strategyMu.RUnlock()
	out := make([]string, 0, len(strategyEntries))
	for _, e := range strategyEntries {
		out = append(out, e.name)
	}
	sort.Strings(out)
	return out
}

// ParseStrategy resolves a grouping strategy from its canonical name or
// a registered alias. The built-ins answer to "roundrobin"/"round-robin",
// "random", and "balanced"/"compute-balanced". It is the single
// name-to-strategy resolution path shared by the CLIs, grid files, and
// the env registry.
func ParseStrategy(name string) (GroupStrategy, error) {
	strategyMu.RLock()
	s, ok := strategyByName[name]
	strategyMu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("partition: unknown grouping strategy %q (registered: %v)", name, StrategyNames())
	}
	return s, nil
}

// String implements fmt.Stringer, returning the canonical name.
func (s GroupStrategy) String() string {
	strategyMu.RLock()
	e, ok := strategyEntries[s]
	strategyMu.RUnlock()
	if !ok {
		return fmt.Sprintf("GroupStrategy(%d)", int(s))
	}
	return e.name
}

// Groups assigns n clients (identified by index) to m groups using the
// given strategy. capacity is required by GroupComputeBalanced (client
// compute capability; lower = slower) and ignored otherwise. Every group
// receives at least one client when n >= m.
func Groups(n, m int, strategy GroupStrategy, capacity []float64, rng *rand.Rand) [][]int {
	if n <= 0 || m <= 0 {
		panic(fmt.Sprintf("partition: groups need positive n=%d m=%d", n, m))
	}
	if m > n {
		panic(fmt.Sprintf("partition: %d groups cannot be filled by %d clients", m, n))
	}
	strategyMu.RLock()
	e, ok := strategyEntries[strategy]
	strategyMu.RUnlock()
	if !ok {
		panic(fmt.Sprintf("partition: unknown grouping strategy %d", strategy))
	}
	return e.fn(n, m, capacity, rng)
}

// The built-in policies register like out-of-tree ones, so name
// resolution, listing, and dispatch have exactly one path.
func init() {
	registerStrategyAs(GroupRoundRobin, "round-robin", roundRobin, "roundrobin")
	registerStrategyAs(GroupRandom, "random", randomChunks)
	registerStrategyAs(GroupComputeBalanced, "compute-balanced", func(n, m int, capacity []float64, _ *rand.Rand) [][]int {
		if len(capacity) != n {
			panic(fmt.Sprintf("partition: compute-balanced grouping needs %d capacities, got %d", n, len(capacity)))
		}
		return computeBalanced(n, m, capacity)
	}, "balanced")
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
