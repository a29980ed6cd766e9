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

func TestMaxOfPicksCriticalPath(t *testing.T) {
	var a, b, c Ledger
	a.Add(Uplink, 1)
	b.Add(ServerCompute, 5)
	c.Add(Downlink, 3)
	got := MaxOf([]*Ledger{&a, &b, &c})
	if got.Total() != 5 || got.Get(ServerCompute) != 5 {
		t.Fatalf("MaxOf picked wrong ledger: total %v, server compute %v", got.Total(), got.Get(ServerCompute))
	}
	// The returned ledger is a copy: mutating it must not affect b.
	got.Add(Uplink, 100)
	if b.Get(Uplink) != 0 {
		t.Fatal("MaxOf must return a copy")
	}
}

func TestMaxOfEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MaxOf(nil)
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

// prop: MaxOf total ≥ every input total.
func TestPropMaxOfDominates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		ls := make([]*Ledger, n)
		for i := range ls {
			var l Ledger
			for j := 0; j < 5; j++ {
				l.Add(Component(rng.Intn(int(numComponents))), rng.Float64())
			}
			ls[i] = &l
		}
		m := MaxOf(ls)
		for _, l := range ls {
			if m.Total() < l.Total() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
