package simnet

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestLedgerAddAndTotal(t *testing.T) {
	var l Ledger
	l.Add(ClientCompute, 1.5)
	l.Add(Uplink, 0.5)
	l.Add(ClientCompute, 0.5)
	if got := l.Get(ClientCompute); got != 2 {
		t.Fatalf("ClientCompute = %v, want 2", got)
	}
	if got := l.Total(); got != 2.5 {
		t.Fatalf("Total = %v, want 2.5", got)
	}
	if got := l.Get(Downlink); got != 0 {
		t.Fatalf("untouched component = %v", got)
	}
}

func TestLedgerNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var l Ledger
	l.Add(Uplink, -1)
}

func TestLedgerUnknownComponentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var l Ledger
	l.Add(Component(99), 1)
}

func TestMergeIsSequentialComposition(t *testing.T) {
	var a, b Ledger
	a.Add(Uplink, 1)
	b.Add(Uplink, 2)
	b.Add(Relay, 3)
	a.Merge(&b)
	if a.Get(Uplink) != 3 || a.Get(Relay) != 3 {
		t.Fatalf("merge result: uplink=%v relay=%v", a.Get(Uplink), a.Get(Relay))
	}
	if a.Total() != 6 {
		t.Fatalf("merged total = %v", a.Total())
	}
}

func TestFoldPicksCriticalPath(t *testing.T) {
	got := Fold(
		[]Task{{Component: Uplink, Charged: 1}},
		[]Task{{Component: ServerCompute, Charged: 2}, {Component: ServerCompute, Charged: 3}},
		[]Task{{Component: Downlink, Charged: 3}},
	)
	if got.Total() != 5 || got.Get(ServerCompute) != 5 {
		t.Fatalf("Fold picked the wrong chain: total %v, server compute %v", got.Total(), got.Get(ServerCompute))
	}
}

// TestFoldTieKeepsFirst: of chains with equal totals the first is the
// critical path, whatever its components.
func TestFoldTieKeepsFirst(t *testing.T) {
	got := Fold(
		[]Task{{Component: Relay, Charged: 2}},
		[]Task{{Component: Uplink, Charged: 2}},
		[]Task{{Component: Relay, Charged: 1}},
	)
	if got.Get(Relay) != 2 || got.Get(Uplink) != 0 {
		t.Fatalf("tie went to a later chain: relay %v, uplink %v", got.Get(Relay), got.Get(Uplink))
	}
}

func TestFoldOfNoChainsIsZero(t *testing.T) {
	if got := Fold(); got != (Ledger{}) {
		t.Fatalf("Fold() = %+v, want the zero ledger", got)
	}
	if got := Fold(nil, []Task{}); got != (Ledger{}) {
		t.Fatalf("Fold of empty chains = %+v, want the zero ledger", got)
	}
}

func TestComponentsAndStrings(t *testing.T) {
	cs := Components()
	if len(cs) != int(numComponents) {
		t.Fatalf("Components() = %d entries", len(cs))
	}
	for _, c := range cs {
		if strings.HasPrefix(c.String(), "Component(") {
			t.Fatalf("component %d lacks a name", int(c))
		}
	}
}

// prop: Total is additive under Merge and Ledger ordering is irrelevant.
func TestPropLedgerAdditive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var a, b Ledger
		ta, tb := 0.0, 0.0
		for i := 0; i < 20; i++ {
			c := Component(rng.Intn(int(numComponents)))
			d := rng.Float64()
			if i%2 == 0 {
				a.Add(c, d)
				ta += d
			} else {
				b.Add(c, d)
				tb += d
			}
		}
		a.Merge(&b)
		return math.Abs(a.Total()-(ta+tb)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// prop: one chain folds bit for bit to sequential Adds of its Charged
// seconds, and a fold's total is ≥ every chain's own fold.
func TestPropFoldDominates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		chains := make([][]Task, 1+rng.Intn(6))
		for i := range chains {
			chains[i] = make([]Task, rng.Intn(8))
			for j := range chains[i] {
				chains[i][j] = Task{Component: Component(rng.Intn(int(numComponents))), Charged: rng.Float64()}
			}
		}
		var want Ledger
		for _, task := range chains[0] {
			want.Add(task.Component, task.Charged)
		}
		if Fold(chains[0]) != want {
			return false
		}
		m := Fold(chains...)
		for _, chain := range chains {
			if l := Fold(chain); m.Total() < l.Total() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
