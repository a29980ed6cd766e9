package experiment

import (
	"context"
	"testing"

	"gsfl/internal/schemes"
	"gsfl/internal/schemes/schemestest"
)

// GSFL is a strict generalization of both benchmark split schemes, and
// all three (and FL) are registrations of one engine (internal/gsfl) that
// differ, beyond M, in two pricing-order flags. These tests pin the degenerate
// cases to be *numerically identical* on every evaluation, which proves
// the flags touch pricing only.

// byName builds a registered scheme over a fresh fixture env.
func byName(t *testing.T, scheme string, groups int, seed int64, clients, samples int) schemes.Trainer {
	t.Helper()
	tr, err := schemes.NewByName(scheme, schemestest.NewEnv(seed, clients, samples), schemes.FactoryOpts{Groups: groups})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestGSFLWithOneGroupEqualsSL: M=1 GSFL is vanilla SL plus a vacuous
// FedAvg over a single group (the identity). Same seeds, same loader
// streams, same optimizer structure => identical evaluations each round.
func TestGSFLWithOneGroupEqualsSL(t *testing.T) {
	g := byName(t, "gsfl", 1, 5, 5, 40)
	s := byName(t, "sl", 0, 5, 5, 40)
	ctx := context.Background()
	for r := 0; r < 4; r++ {
		if _, err := g.Round(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Round(ctx); err != nil {
			t.Fatal(err)
		}
		ge, err := g.Evaluate(ctx)
		if err != nil {
			t.Fatal(err)
		}
		se, err := s.Evaluate(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if ge != se {
			t.Fatalf("round %d: GSFL(M=1) diverged from SL: %+v vs %+v", r+1, ge, se)
		}
	}
}

// TestGSFLWithSingletonGroupsEqualsSFL: M=N GSFL is SplitFed — every
// client trains in parallel against its own server replica and both
// halves aggregate.
func TestGSFLWithSingletonGroupsEqualsSFL(t *testing.T) {
	const n = 5
	g := byName(t, "gsfl", n, 6, n, 40)
	s := byName(t, "sfl", 0, 6, n, 40)
	ctx := context.Background()
	for r := 0; r < 4; r++ {
		if _, err := g.Round(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Round(ctx); err != nil {
			t.Fatal(err)
		}
		ge, err := g.Evaluate(ctx)
		if err != nil {
			t.Fatal(err)
		}
		se, err := s.Evaluate(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if ge != se {
			t.Fatalf("round %d: GSFL(M=N) diverged from SplitFed: %+v vs %+v", r+1, ge, se)
		}
	}
}

// TestSchemesShareInitialModel: every engine scheme must start from the
// same global initialization (the paper distributes ONE model), so their
// round-0 evaluations coincide — FL's included: the same "init" stream
// builds the same weights, cut after the last layer instead.
func TestSchemesShareInitialModel(t *testing.T) {
	ctx := context.Background()
	var first schemes.Eval
	for i, scheme := range []string{"gsfl", "sl", "sfl", "fl"} {
		ev, err := byName(t, scheme, 2, 7, 4, 30).Evaluate(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = ev
		} else if ev != first {
			t.Fatalf("initial %s model differs from gsfl's: %+v vs %+v", scheme, ev, first)
		}
	}
}
