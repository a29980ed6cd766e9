package data

import (
	"math/rand"
	"testing"

	"gsfl/internal/tensor"
)

func tinyDataset(n, classes int) *InMemory {
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		x[i] = []float64{float64(i), float64(i) * 2}
		y[i] = i % classes
	}
	return NewInMemory(x, y, classes)
}

func TestInMemoryBasics(t *testing.T) {
	ds := tinyDataset(10, 3)
	if ds.Len() != 10 || ds.Classes() != 3 {
		t.Fatalf("Len=%d Classes=%d", ds.Len(), ds.Classes())
	}
	f, y := ds.Sample(4)
	if f[0] != 4 || y != 1 {
		t.Fatalf("Sample(4) = %v, %d", f, y)
	}
}

func TestInMemoryValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("len mismatch", func() { NewInMemory([][]float64{{1}}, []int{0, 1}, 2) })
	mustPanic("bad label", func() { NewInMemory([][]float64{{1}}, []int{5}, 2) })
	mustPanic("zero classes", func() { NewInMemory(nil, nil, 0) })
}

func TestSubsetView(t *testing.T) {
	ds := tinyDataset(10, 2)
	sub := NewSubset(ds, []int{9, 0, 5})
	if sub.Len() != 3 {
		t.Fatalf("subset Len = %d", sub.Len())
	}
	f, _ := sub.Sample(0)
	if f[0] != 9 {
		t.Fatalf("subset Sample(0) = %v, want base sample 9", f)
	}
	if sub.Classes() != 2 {
		t.Fatalf("subset Classes = %d", sub.Classes())
	}
}

func TestSubsetOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSubset(tinyDataset(3, 2), []int{3})
}

func TestLoaderCoversEpochExactlyOnce(t *testing.T) {
	ds := tinyDataset(10, 2)
	l := NewLoader(ds, 3, []int{2}, rand.New(rand.NewSource(1)))
	seen := map[float64]int{}
	total := 0
	for i := 0; i < 4; i++ { // 3+3+3+1
		b := l.Next()
		total += len(b.Y)
		for r := 0; r < len(b.Y); r++ {
			seen[b.X.At(r, 0)]++
		}
	}
	if total != 10 {
		t.Fatalf("epoch yielded %d samples, want 10", total)
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("sample %v seen %d times in one epoch", k, c)
		}
	}
}

func TestLoaderReshufflesBetweenEpochs(t *testing.T) {
	ds := tinyDataset(64, 2)
	l := NewLoader(ds, 64, []int{2}, rand.New(rand.NewSource(2)))
	e1 := l.Next()
	e2 := l.Next()
	same := true
	for i := range e1.Y {
		if e1.X.At(i, 0) != e2.X.At(i, 0) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two epochs had identical order; loader is not reshuffling")
	}
}

func TestLoaderDeterministicAcrossSeeds(t *testing.T) {
	mk := func() Batch {
		return NewLoader(tinyDataset(20, 2), 5, []int{2}, rand.New(rand.NewSource(7))).Next()
	}
	a, b := mk(), mk()
	if !tensor.AllClose(a.X, b.X, 0) {
		t.Fatal("same seed must give identical batches")
	}
}

func TestLoaderBatchShape(t *testing.T) {
	ds := tinyDataset(8, 2)
	l := NewLoader(ds, 4, []int{2}, rand.New(rand.NewSource(3)))
	b := l.Next()
	if b.X.Dim(0) != 4 || b.X.Dim(1) != 2 {
		t.Fatalf("batch shape = %v", b.X.Shape())
	}
	if len(b.Y) != 4 {
		t.Fatalf("batch labels = %d", len(b.Y))
	}
}

func TestLoaderValidation(t *testing.T) {
	ds := tinyDataset(4, 2)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("batch 0", func() { NewLoader(ds, 0, []int{2}, rand.New(rand.NewSource(1))) })
	mustPanic("shape mismatch", func() { NewLoader(ds, 2, []int{3}, rand.New(rand.NewSource(1))) })
	mustPanic("empty dataset", func() {
		NewLoader(NewInMemory(nil, nil, 2), 2, []int{2}, rand.New(rand.NewSource(1)))
	})
}

func TestAllMaterializesInOrder(t *testing.T) {
	ds := tinyDataset(5, 2)
	b := All(ds, []int{2})
	if b.X.Dim(0) != 5 {
		t.Fatalf("All batch size = %d", b.X.Dim(0))
	}
	for i := 0; i < 5; i++ {
		if b.X.At(i, 0) != float64(i) {
			t.Fatal("All must preserve index order")
		}
	}
}

func TestClassHistogram(t *testing.T) {
	ds := tinyDataset(10, 3) // labels 0,1,2,0,1,2,...
	h := ClassHistogram(ds)
	if h[0] != 4 || h[1] != 3 || h[2] != 3 {
		t.Fatalf("histogram = %v", h)
	}
}

func TestLoaderStateRestoreContinuesBitIdentically(t *testing.T) {
	ds := tinyDataset(10, 3)
	mk := func() *Loader {
		return NewLoader(ds, 4, []int{2}, rand.New(rand.NewSource(9)))
	}
	// Drive the reference loader across an epoch boundary (10 samples /
	// batch 4 = 3 batches per epoch), then capture.
	ref := mk()
	for i := 0; i < 5; i++ {
		ref.Next()
	}
	st := ref.State()

	restored := mk()
	if err := restored.Restore(st); err != nil {
		t.Fatal(err)
	}
	// Both loaders must now produce identical batches, including across
	// the next reshuffle.
	for i := 0; i < 7; i++ {
		a, b := ref.Next(), restored.Next()
		if len(a.Y) != len(b.Y) {
			t.Fatalf("batch %d: sizes %d vs %d", i, len(a.Y), len(b.Y))
		}
		for j := range a.Y {
			if a.Y[j] != b.Y[j] || a.X.Data[j*2] != b.X.Data[j*2] {
				t.Fatalf("batch %d diverged after restore", i)
			}
		}
	}
}

func TestLoaderRestoreValidation(t *testing.T) {
	ds := tinyDataset(10, 3)
	l := NewLoader(ds, 4, []int{2}, rand.New(rand.NewSource(9)))
	for i := 0; i < 4; i++ {
		l.Next() // epoch 2
	}
	fresh := NewLoader(ds, 4, []int{2}, rand.New(rand.NewSource(9)))
	if err := fresh.Restore(LoaderState{Epoch: 0, Pos: 0}); err == nil {
		t.Fatal("rewinding below the fresh epoch must error")
	}
	if err := fresh.Restore(LoaderState{Epoch: 2, Pos: 99}); err == nil {
		t.Fatal("out-of-range position must error")
	}
}
