package partition

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"gsfl/internal/data"
)

func makeDataset(n, classes int) *data.InMemory {
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		x[i] = []float64{float64(i)}
		y[i] = i % classes
	}
	return data.NewInMemory(x, y, classes)
}

// collectIndices flattens subsets back to base indices for coverage checks.
func collectIndices(subs []*data.Subset) []int {
	var all []int
	for _, s := range subs {
		all = append(all, s.Indices...)
	}
	return all
}

func assertExactCover(t *testing.T, subs []*data.Subset, total int) {
	t.Helper()
	all := collectIndices(subs)
	if len(all) != total {
		t.Fatalf("partition covers %d samples, want %d", len(all), total)
	}
	seen := make(map[int]bool, total)
	for _, ix := range all {
		if seen[ix] {
			t.Fatalf("sample %d assigned twice", ix)
		}
		seen[ix] = true
	}
}

func TestIIDExactCover(t *testing.T) {
	ds := makeDataset(103, 5)
	subs := IID(ds, 7, rand.New(rand.NewSource(1)))
	if len(subs) != 7 {
		t.Fatalf("got %d subsets", len(subs))
	}
	assertExactCover(t, subs, 103)
	for i, s := range subs {
		if s.Len() < 103/7 || s.Len() > 103/7+1 {
			t.Fatalf("client %d has %d samples; want near-equal split", i, s.Len())
		}
	}
}

func TestIIDBalancedClasses(t *testing.T) {
	// With many samples per client, each client's class mix ≈ global mix.
	ds := makeDataset(5000, 5)
	subs := IID(ds, 5, rand.New(rand.NewSource(2)))
	for ci, s := range subs {
		h := data.ClassHistogram(s)
		for cls, cnt := range h {
			frac := float64(cnt) / float64(s.Len())
			if math.Abs(frac-0.2) > 0.05 {
				t.Fatalf("client %d class %d fraction %v, want ≈0.2", ci, cls, frac)
			}
		}
	}
}

func TestDirichletExactCover(t *testing.T) {
	ds := makeDataset(500, 10)
	subs := Dirichlet(ds, 8, 0.5, rand.New(rand.NewSource(3)))
	assertExactCover(t, subs, 500)
	for i, s := range subs {
		if s.Len() == 0 {
			t.Fatalf("client %d empty after rebalance", i)
		}
	}
}

func TestDirichletSkewIncreasesAsAlphaShrinks(t *testing.T) {
	ds := makeDataset(4000, 8)
	skew := func(alpha float64) float64 {
		subs := Dirichlet(ds, 8, alpha, rand.New(rand.NewSource(4)))
		// Mean over clients of max class share — 1/C for perfectly IID,
		// → 1.0 for one-class clients.
		total := 0.0
		for _, s := range subs {
			h := data.ClassHistogram(s)
			maxShare := 0.0
			for _, c := range h {
				if share := float64(c) / float64(s.Len()); share > maxShare {
					maxShare = share
				}
			}
			total += maxShare
		}
		return total / float64(len(subs))
	}
	lo, hi := skew(100.0), skew(0.1)
	if hi <= lo {
		t.Fatalf("alpha 0.1 skew %v should exceed alpha 100 skew %v", hi, lo)
	}
}

func TestDirichletValidation(t *testing.T) {
	ds := makeDataset(10, 2)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("alpha", func() { Dirichlet(ds, 2, 0, rand.New(rand.NewSource(1))) })
	mustPanic("clients", func() { Dirichlet(ds, 0, 1, rand.New(rand.NewSource(1))) })
	mustPanic("too few samples", func() { Dirichlet(ds, 11, 1, rand.New(rand.NewSource(1))) })
	mustPanic("iid clients", func() { IID(ds, 0, rand.New(rand.NewSource(1))) })
	mustPanic("iid too few", func() { IID(ds, 11, rand.New(rand.NewSource(1))) })
}

// prop: both partitioners always produce an exact cover.
func TestPropPartitionExactCover(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(200)
		clients := 1 + rng.Intn(10)
		if clients > n {
			clients = n
		}
		ds := makeDataset(n, 1+rng.Intn(6))
		var subs []*data.Subset
		if seed%2 == 0 {
			subs = IID(ds, clients, rng)
		} else {
			subs = Dirichlet(ds, clients, 0.3+rng.Float64(), rng)
		}
		all := collectIndices(subs)
		if len(all) != n {
			return false
		}
		seen := map[int]bool{}
		for _, ix := range all {
			if seen[ix] {
				return false
			}
			seen[ix] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupsRoundRobin(t *testing.T) {
	g := Groups(7, 3, "round-robin", nil, nil)
	want := [][]int{{0, 3, 6}, {1, 4}, {2, 5}}
	for gi := range want {
		if len(g[gi]) != len(want[gi]) {
			t.Fatalf("group %d = %v, want %v", gi, g[gi], want[gi])
		}
		for i := range want[gi] {
			if g[gi][i] != want[gi][i] {
				t.Fatalf("group %d = %v, want %v", gi, g[gi], want[gi])
			}
		}
	}
}

func TestGroupsRandomCoverAndSize(t *testing.T) {
	g := Groups(30, 6, "random", nil, rand.New(rand.NewSource(5)))
	seen := map[int]bool{}
	for _, grp := range g {
		if len(grp) != 5 {
			t.Fatalf("group size %d, want 5", len(grp))
		}
		for _, c := range grp {
			if seen[c] {
				t.Fatalf("client %d in two groups", c)
			}
			seen[c] = true
		}
	}
	if len(seen) != 30 {
		t.Fatalf("covered %d clients, want 30", len(seen))
	}
}

func TestGroupsComputeBalanced(t *testing.T) {
	// Two fast and two slow clients into two groups: each group must get
	// one fast and one slow for balanced load.
	cap := []float64{10, 10, 1, 1}
	g := Groups(4, 2, "compute-balanced", cap, nil)
	for gi, grp := range g {
		if len(grp) != 2 {
			t.Fatalf("group %d size %d", gi, len(grp))
		}
		slow := 0
		for _, c := range grp {
			if cap[c] == 1 {
				slow++
			}
		}
		if slow != 1 {
			t.Fatalf("group %d has %d slow clients, want 1 (groups: %v)", gi, slow, g)
		}
	}
}

func TestGroupsComputeBalancedBeatsRoundRobinOnSkew(t *testing.T) {
	// Capacities arranged so round-robin stacks all slow clients into one
	// group. The balanced strategy must achieve a lower max group load.
	n, m := 12, 3
	cap := make([]float64, n)
	for i := range cap {
		if i%m == 0 { // round-robin would put all of these in group 0
			cap[i] = 0.5
		} else {
			cap[i] = 8
		}
	}
	load := func(groups [][]int) float64 {
		worst := 0.0
		for _, grp := range groups {
			l := 0.0
			for _, c := range grp {
				l += 1 / cap[c]
			}
			if l > worst {
				worst = l
			}
		}
		return worst
	}
	rr := load(Groups(n, m, "round-robin", nil, nil))
	cb := load(Groups(n, m, "compute-balanced", cap, nil))
	if cb >= rr {
		t.Fatalf("compute-balanced max load %v should beat round-robin %v", cb, rr)
	}
}

func TestGroupsValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("m>n", func() { Groups(2, 3, "round-robin", nil, nil) })
	mustPanic("zero", func() { Groups(0, 1, "round-robin", nil, nil) })
	mustPanic("caps", func() { Groups(4, 2, "compute-balanced", []float64{1}, nil) })
	mustPanic("neg cap", func() { Groups(2, 1, "compute-balanced", []float64{1, -1}, nil) })
	mustPanic("unknown", func() { Groups(2, 1, "no-such-strategy", nil, nil) })
}

// TestGroupStrategyString: a strategy's identity is its canonical name,
// and the listing is those names (never the aliases), sorted.
func TestGroupStrategyString(t *testing.T) {
	want := []string{"compute-balanced", "random", "round-robin"}
	if got := StrategyNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("StrategyNames() = %v, want %v", got, want)
	}
}

// prop: every grouping strategy yields an exact cover with all groups
// non-empty.
func TestPropGroupsExactCover(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		m := 1 + rng.Intn(n)
		caps := make([]float64, n)
		for i := range caps {
			caps[i] = 0.5 + rng.Float64()*10
		}
		for _, st := range []string{"round-robin", "random", "compute-balanced"} {
			g := Groups(n, m, st, caps, rng)
			if len(g) != m {
				return false
			}
			seen := map[int]bool{}
			for _, grp := range g {
				if len(grp) == 0 {
					return false
				}
				for _, c := range grp {
					if c < 0 || c >= n || seen[c] {
						return false
					}
					seen[c] = true
				}
			}
			if len(seen) != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestParseStrategy(t *testing.T) {
	for name, want := range map[string]string{
		"":                 "round-robin", // the zero FactoryOpts
		"roundrobin":       "round-robin",
		"round-robin":      "round-robin",
		"random":           "random",
		"balanced":         "compute-balanced",
		"compute-balanced": "compute-balanced",
	} {
		got, err := CanonicalStrategy(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want {
			t.Fatalf("CanonicalStrategy(%q) = %q, want %q", name, got, want)
		}
	}
	if _, err := CanonicalStrategy("bogus"); err == nil || !strings.Contains(err.Error(), `"bogus" (registered: [compute-balanced random round-robin])`) {
		t.Fatalf("unknown strategy: %v", err)
	}
}
