package data

import (
	"math/rand"
	"testing"

	"gsfl/internal/testutil"
)

// next draws the loader's next mini-batch into a fresh batch.
func next(l *Loader) Batch {
	var b Batch
	l.NextInto(&b)
	return b
}

// TestNextIntoMatchesNext pins the reusable-batch draw to one into a
// fresh batch: two loaders with identical seeds must produce the same
// sample sequence whichever destination is used, including across
// epoch boundaries and the short final batch.
func TestNextIntoMatchesNext(t *testing.T) {
	ds := tinyDataset(10, 3)
	a := NewLoader(ds, 4, []int{2}, rand.New(rand.NewSource(5)))
	b := NewLoader(ds, 4, []int{2}, rand.New(rand.NewSource(5)))
	var reused Batch
	for i := 0; i < 9; i++ { // 3 epochs of 3 batches
		want := next(a)
		b.NextInto(&reused)
		if len(want.Y) != len(reused.Y) {
			t.Fatalf("batch %d: sizes %d vs %d", i, len(want.Y), len(reused.Y))
		}
		for j := range want.Y {
			if want.Y[j] != reused.Y[j] || want.X.Data[j*2] != reused.X.Data[j*2] {
				t.Fatalf("batch %d diverged between a fresh and a reused batch", i)
			}
		}
	}
}

func TestNextIntoAllocFree(t *testing.T) {
	ds := tinyDataset(64, 4)
	l := NewLoader(ds, 16, []int{2}, rand.New(rand.NewSource(9)))
	var b Batch
	testutil.MaxAllocs(t, "Loader.NextInto", 0, func() { l.NextInto(&b) })
}
