// Package data defines the dataset and mini-batch loading abstractions
// shared by every training scheme and dataset generator.
package data

import (
	"fmt"
	"math/rand"

	"gsfl/internal/tensor"
)

// Dataset is an indexable collection of labelled samples. Sample returns
// the flattened feature vector (the caller shapes it per the model's
// input shape) and the class label.
type Dataset interface {
	// Len returns the number of samples.
	Len() int
	// Sample returns the features and label of sample i. The returned
	// slice must not be mutated by the caller.
	Sample(i int) (features []float64, label int)
	// Classes returns the number of distinct labels.
	Classes() int
}

// InMemory is a Dataset backed by slices; the workhorse implementation
// that generators and Subset produce.
type InMemory struct {
	X      [][]float64
	Y      []int
	NumCls int
}

// NewInMemory validates and wraps the given samples.
func NewInMemory(x [][]float64, y []int, classes int) *InMemory {
	if len(x) != len(y) {
		panic(fmt.Sprintf("data: %d feature rows vs %d labels", len(x), len(y)))
	}
	if classes <= 0 {
		panic(fmt.Sprintf("data: classes must be positive, got %d", classes))
	}
	for i, label := range y {
		if label < 0 || label >= classes {
			panic(fmt.Sprintf("data: label %d at index %d outside [0,%d)", label, i, classes))
		}
	}
	return &InMemory{X: x, Y: y, NumCls: classes}
}

// Len implements Dataset.
func (d *InMemory) Len() int { return len(d.X) }

// Sample implements Dataset.
func (d *InMemory) Sample(i int) ([]float64, int) { return d.X[i], d.Y[i] }

// Classes implements Dataset.
func (d *InMemory) Classes() int { return d.NumCls }

// Subset is a view of a Dataset through an index list; partitioning
// produces one per client without copying features.
type Subset struct {
	Base    Dataset
	Indices []int
}

// NewSubset wraps base restricted to the given indices.
func NewSubset(base Dataset, indices []int) *Subset {
	for _, ix := range indices {
		if ix < 0 || ix >= base.Len() {
			panic(fmt.Sprintf("data: subset index %d outside [0,%d)", ix, base.Len()))
		}
	}
	return &Subset{Base: base, Indices: indices}
}

// Len implements Dataset.
func (s *Subset) Len() int { return len(s.Indices) }

// Sample implements Dataset.
func (s *Subset) Sample(i int) ([]float64, int) { return s.Base.Sample(s.Indices[i]) }

// Classes implements Dataset.
func (s *Subset) Classes() int { return s.Base.Classes() }

// Batch is one mini-batch: features stacked into a tensor of shape
// (n, inShape...) plus the label slice.
type Batch struct {
	X *tensor.Tensor
	Y []int
}

// Loader draws mini-batches from a Dataset, reshuffling each epoch.
// It is deterministic given its RNG and single-goroutine by design; each
// client owns its own Loader.
type Loader struct {
	ds      Dataset
	batch   int
	inShape []int
	rng     *rand.Rand
	order   []int
	pos     int
	// epoch counts reshuffles; together with pos it is the loader's
	// complete checkpointable state (see LoaderState).
	epoch int
	// shapeScratch is the reusable (batch, inShape...) shape buffer
	// NextInto sizes destination tensors with.
	shapeScratch []int
	// src is the reseedable source behind rng for loaders that go
	// through Reset; nil for loaders constructed around a caller-owned
	// RNG that never reset.
	src *loaderSource
}

// NewLoader constructs a Loader producing batches of the given size with
// per-sample shape inShape. A final short batch is emitted at epoch end
// if the dataset size is not divisible by the batch size.
func NewLoader(ds Dataset, batch int, inShape []int, rng *rand.Rand) *Loader {
	if batch <= 0 {
		panic(fmt.Sprintf("data: batch size must be positive, got %d", batch))
	}
	if ds.Len() == 0 {
		panic("data: empty dataset")
	}
	per := 1
	for _, d := range inShape {
		per *= d
	}
	if f, _ := ds.Sample(0); len(f) != per {
		panic(fmt.Sprintf("data: sample has %d features, shape %v needs %d", len(f), inShape, per))
	}
	l := &Loader{ds: ds, batch: batch, inShape: inShape, rng: rng}
	l.reshuffle()
	return l
}

// Reset re-points the loader at ds and restarts it on a fresh RNG
// stream seeded with seed, as if newly constructed with
// rand.New(rand.NewSource(seed)). The population layer calls it once
// per sampled slot per round to mount a member's data shard, so it
// costs O(draws), not O(register): the stream comes from a source whose
// Seed is O(1) and which computes each register word on first use
// (rngsource.go), and a shard of n samples draws n−1 values to shuffle.
// It reuses the loader's order buffer and (after the first call) its
// RNG allocation: steady-state resets are allocation-free as long as
// ds.Len() never exceeds a previously seen length. The per-sample
// feature width must match the loader's shape.
func (l *Loader) Reset(ds Dataset, seed int64) {
	if ds.Len() == 0 {
		panic("data: empty dataset")
	}
	per := 1
	for _, d := range l.inShape {
		per *= d
	}
	if f, _ := ds.Sample(0); len(f) != per {
		panic(fmt.Sprintf("data: sample has %d features, shape %v needs %d", len(f), l.inShape, per))
	}
	l.ds = ds
	if l.src == nil {
		l.src = newLoaderSource(seed)
		l.rng = rand.New(l.src)
	} else {
		l.src.Seed(seed)
	}
	n := ds.Len()
	if cap(l.order) < n {
		l.order = make([]int, n)
	} else {
		l.order = l.order[:n]
	}
	for i := range l.order {
		l.order[i] = i
	}
	l.epoch = 0
	l.reshuffle()
}

func (l *Loader) reshuffle() {
	if l.order == nil {
		l.order = make([]int, l.ds.Len())
		for i := range l.order {
			l.order[i] = i
		}
	}
	l.rng.Shuffle(len(l.order), func(i, j int) { l.order[i], l.order[j] = l.order[j], l.order[i] })
	l.pos = 0
	l.epoch++
}

// LoaderState is a Loader's complete mutable state: because the shuffle
// order of epoch k is a pure function of the loader's RNG seed and k,
// (epoch, position) fully determine both the current order and the RNG
// stream position.
type LoaderState struct {
	Epoch int
	Pos   int
}

// State captures the loader for checkpointing.
func (l *Loader) State() LoaderState {
	return LoaderState{Epoch: l.epoch, Pos: l.pos}
}

// Restore fast-forwards a freshly constructed loader (same dataset,
// batch size, and RNG seed) to a state captured by State, replaying the
// intermediate reshuffles so the permutation and the RNG stream land
// exactly where the original run left them.
func (l *Loader) Restore(st LoaderState) error {
	if st.Epoch < l.epoch {
		return fmt.Errorf("data: cannot rewind loader from epoch %d to %d", l.epoch, st.Epoch)
	}
	if st.Pos < 0 || st.Pos > len(l.order) {
		return fmt.Errorf("data: loader position %d outside [0,%d]", st.Pos, len(l.order))
	}
	for l.epoch < st.Epoch {
		l.reshuffle()
	}
	l.pos = st.Pos
	return nil
}

// Next returns the next mini-batch as freshly allocated buffers,
// starting a new shuffled epoch when the current one is exhausted.
// Training hot loops use NextInto instead.
func (l *Loader) Next() Batch {
	var b Batch
	l.NextInto(&b)
	return b
}

// NextInto fills b with the next mini-batch, reusing b's feature tensor
// and label slice (they are allocated on first use and grown as needed).
// The batch contents are valid until the next NextInto call with the
// same b; training loops that fully consume each batch before drawing
// the next — every scheme in this repository — therefore draw batches
// allocation-free after warmup. The sample draw order is identical to
// Next, so training numerics do not depend on which variant is used.
func (l *Loader) NextInto(b *Batch) {
	if l.pos >= len(l.order) {
		l.reshuffle()
	}
	end := l.pos + l.batch
	if end > len(l.order) {
		end = len(l.order)
	}
	idx := l.order[l.pos:end]
	l.pos = end

	n := len(idx)
	l.shapeScratch = append(append(l.shapeScratch[:0], n), l.inShape...)
	if b.X == nil {
		b.X = &tensor.Tensor{}
	}
	x := b.X.Ensure(l.shapeScratch...)
	if cap(b.Y) < n {
		b.Y = make([]int, n)
	} else {
		b.Y = b.Y[:n]
	}
	per := x.Size() / n
	for bi, si := range idx {
		f, label := l.ds.Sample(si)
		if len(f) != per {
			// Fail fast: the reused batch tensor is not zero-filled, so a
			// short row would otherwise silently expose the previous
			// batch's values. (NewLoader validates only Sample(0).)
			panic(fmt.Sprintf("data: sample %d has %d features, want %d", si, len(f), per))
		}
		copy(x.Data[bi*per:(bi+1)*per], f)
		b.Y[bi] = label
	}
}

// All materializes the entire dataset as one batch, in index order.
// Used for evaluation.
func All(ds Dataset, inShape []int) Batch {
	n := ds.Len()
	shape := append([]int{n}, inShape...)
	x := tensor.New(shape...)
	y := make([]int, n)
	per := x.Size() / n
	for i := 0; i < n; i++ {
		f, label := ds.Sample(i)
		copy(x.Data[i*per:(i+1)*per], f)
		y[i] = label
	}
	return Batch{X: x, Y: y}
}

// ClassHistogram counts samples per class.
func ClassHistogram(ds Dataset) []int {
	h := make([]int, ds.Classes())
	for i := 0; i < ds.Len(); i++ {
		_, y := ds.Sample(i)
		h[y]++
	}
	return h
}
