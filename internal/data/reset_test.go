package data

import (
	"math/rand"
	"testing"
)

func synthDataset(n, width, classes int, seed int64) *InMemory {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		row := make([]float64, width)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		x[i] = row
		y[i] = rng.Intn(classes)
	}
	return NewInMemory(x, y, classes)
}

// drainEpoch returns the label sequence of one full epoch.
func drainEpoch(l *Loader) []int {
	var labels []int
	var b Batch
	for i := 0; i < (l.ds.Len()+l.batch-1)/l.batch; i++ {
		l.NextInto(&b)
		labels = append(labels, b.Y...)
	}
	return labels
}

// TestLoaderResetMatchesFreshLoader pins the Reset contract: a reset
// loader draws exactly the batches a newly constructed loader with the
// same dataset and seed would.
func TestLoaderResetMatchesFreshLoader(t *testing.T) {
	a := synthDataset(23, 4, 3, 1)
	b := synthDataset(17, 4, 3, 2)

	l := NewLoader(a, 5, []int{4}, rand.New(rand.NewSource(99)))
	drainEpoch(l) // advance arbitrary state before the reset

	for round, ds := range []*InMemory{b, a, b} {
		seed := int64(1000 + round)
		l.Reset(ds, seed)
		fresh := NewLoader(ds, 5, []int{4}, rand.New(rand.NewSource(seed)))
		got, want := drainEpoch(l), drainEpoch(fresh)
		if len(got) != len(want) {
			t.Fatalf("round %d: epoch lengths differ: %d vs %d", round, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d: draw %d: got label %d, want %d", round, i, got[i], want[i])
			}
		}
	}
}

// TestLoaderResetAllocFree pins the steady-state path: once the order
// buffer and RNG exist, resets do not allocate.
func TestLoaderResetAllocFree(t *testing.T) {
	big := synthDataset(40, 4, 3, 1)
	small := synthDataset(20, 4, 3, 2)
	l := NewLoader(big, 8, []int{4}, rand.New(rand.NewSource(5)))
	l.Reset(big, 7) // first reset allocates the reseedable source
	var batch Batch
	l.NextInto(&batch) // warm the batch buffers
	i := 0
	allocs := testing.AllocsPerRun(50, func() {
		ds := small
		if i%2 == 0 {
			ds = big
		}
		i++
		l.Reset(ds, int64(i))
		l.NextInto(&batch)
	})
	if allocs > 0 {
		t.Fatalf("steady-state Reset allocated %v times per call", allocs)
	}
}

// TestLoaderResetRejectsShapeMismatch pins the eager width check.
func TestLoaderResetRejectsShapeMismatch(t *testing.T) {
	l := NewLoader(synthDataset(10, 4, 3, 1), 2, []int{4}, rand.New(rand.NewSource(1)))
	defer func() {
		if recover() == nil {
			t.Fatal("Reset accepted a dataset with the wrong feature width")
		}
	}()
	l.Reset(synthDataset(10, 5, 3, 2), 3)
}
