// Package tensor implements a dense, row-major float64 tensor library.
//
// It is the numerical substrate for the neural-network framework in
// internal/nn. The design goals, in order, are correctness, determinism,
// and enough performance to train small CNNs on a CPU: all operations are
// pure Go, allocation-conscious, and free of global state so concurrent
// training replicas (one per GSFL group) never contend.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense row-major float64 tensor. The zero value is an empty
// tensor; use New or the constructors below to create usable instances.
//
// Data is exposed deliberately: hot loops in internal/nn index it directly.
// Mutating Data through an alias is allowed, but mutating shape metadata is
// not — use ViewOf, which validates element counts.
type Tensor struct {
	// Data holds the elements in row-major order. len(Data) == Size().
	Data []float64
	// shape holds the extent of each dimension. It is private so the
	// invariant len(Data) == product(shape) cannot be broken externally.
	shape []int
}

// New returns a zero-filled tensor with the given shape.
// It panics if any dimension is negative; a zero-dimension tensor is a
// scalar holding one element.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{Data: make([]float64, n), shape: append([]int(nil), shape...)}
}

// FromSlice wraps data in a tensor with the given shape. The slice is used
// directly (not copied); the caller must not retain a conflicting alias.
// It panics if len(data) does not match the shape's element count.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: FromSlice got %d elements for shape %v (want %d)", len(data), shape, n))
	}
	return &Tensor{Data: data, shape: append([]int(nil), shape...)}
}

// Full returns a tensor with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// Ones returns a tensor of ones.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

// checkShape validates the shape and returns the element count.
//
// The panic paths live in noinline helpers that copy the shape before
// formatting it: referencing the variadic shape slice in a fmt call
// directly would make it escape, putting one heap allocation on every
// Ensure/ViewOf/New call site even though the panic never fires.
func checkShape(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panicNegativeDim(shape)
		}
		n *= d
	}
	return n
}

//go:noinline
func panicNegativeDim(shape []int) {
	panic(fmt.Sprintf("tensor: negative dimension in shape %v", append([]int(nil), shape...)))
}

//go:noinline
func panicViewSize(op string, shape []int, n, have int) {
	panic(fmt.Sprintf("tensor: %s shape %v needs %d elements, have %d", op, append([]int(nil), shape...), n, have))
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// AppendShape appends t's shape to dst and returns the result. It is the
// allocation-free alternative to Shape for callers that keep a reusable
// destination slice (append(cached[:0], …)).
func (t *Tensor) AppendShape(dst []int) []int { return append(dst, t.shape...) }

// Ensure reshapes t in place to the given shape, reusing its backing
// storage when capacity allows and growing it otherwise. The contents
// are unspecified afterwards — callers either overwrite every element or
// call Zero explicitly. Ensure is the workspace primitive behind the
// destination-passing hot path: a zero-value Tensor grows on first use
// and is then reused allocation-free while its shape is stable.
// It returns t.
func (t *Tensor) Ensure(shape ...int) *Tensor {
	n := checkShape(shape)
	if cap(t.Data) >= n {
		t.Data = t.Data[:n]
	} else {
		t.Data = make([]float64, n)
	}
	t.shape = append(t.shape[:0], shape...)
	return t
}

// EnsureShapeOf is Ensure with o's shape; shape-preserving layers use it
// to size their output and input-gradient workspaces without copying the
// source shape.
func (t *Tensor) EnsureShapeOf(o *Tensor) *Tensor {
	n := len(o.Data)
	if cap(t.Data) >= n {
		t.Data = t.Data[:n]
	} else {
		t.Data = make([]float64, n)
	}
	t.shape = append(t.shape[:0], o.shape...)
	return t
}

// ViewOf repoints t to share src's data under the given shape (the
// element counts must match). No data moves; t's own storage for the
// shape slice is reused, so repointing an existing header allocates
// nothing. It returns t.
//
// Views follow the buffer-ownership rule of the hot path: a view is
// valid for exactly as long as the buffer it aliases.
func (t *Tensor) ViewOf(src *Tensor, shape ...int) *Tensor {
	n := checkShape(shape)
	if n != len(src.Data) {
		panicViewSize("ViewOf", shape, n, len(src.Data))
	}
	t.Data = src.Data
	t.shape = append(t.shape[:0], shape...)
	return t
}

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Dim returns the extent of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.Data) }

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i, d := range t.shape {
		if o.shape[i] != d {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{Data: make([]float64, len(t.Data)), shape: append([]int(nil), t.shape...)}
	copy(c.Data, t.Data)
	return c
}

// CopyFrom copies o's data into t. Shapes must match element counts.
func (t *Tensor) CopyFrom(o *Tensor) {
	if len(t.Data) != len(o.Data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %d vs %d", len(t.Data), len(o.Data)))
	}
	copy(t.Data, o.Data)
}

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float64 { return t.Data[t.offset(idx)] }

// Set assigns v at the given multi-dimensional index.
func (t *Tensor) Set(v float64, idx ...int) { t.Data[t.offset(idx)] = v }

// offset converts a multi-dimensional index to a flat offset.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v has wrong rank for shape %v", idx, t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Row returns a view (shared data) of row i of a 2-D tensor.
func (t *Tensor) Row(i int) []float64 {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: Row on %d-D tensor", len(t.shape)))
	}
	c := t.shape[1]
	return t.Data[i*c : (i+1)*c]
}

// Zero sets every element of t to zero in place.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element of t to v in place.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Apply replaces every element x with f(x) in place and returns t.
func (t *Tensor) Apply(f func(float64) float64) *Tensor {
	for i, v := range t.Data {
		t.Data[i] = f(v)
	}
	return t
}

// AddInPlace adds o to t elementwise. Shapes must have equal element counts.
func (t *Tensor) AddInPlace(o *Tensor) *Tensor {
	checkSameSize("AddInPlace", t, o)
	for i, v := range o.Data {
		t.Data[i] += v
	}
	return t
}

// SubInPlace subtracts o from t elementwise.
func (t *Tensor) SubInPlace(o *Tensor) *Tensor {
	checkSameSize("SubInPlace", t, o)
	for i, v := range o.Data {
		t.Data[i] -= v
	}
	return t
}

// Scale multiplies every element by s in place and returns t.
func (t *Tensor) Scale(s float64) *Tensor {
	for i := range t.Data {
		t.Data[i] *= s
	}
	return t
}

// AddScaled performs t += s*o (axpy) in place and returns t.
func (t *Tensor) AddScaled(s float64, o *Tensor) *Tensor {
	checkSameSize("AddScaled", t, o)
	for i, v := range o.Data {
		t.Data[i] += float64(s * v)
	}
	return t
}

// Add returns t + o as a new tensor.
func Add(t, o *Tensor) *Tensor { return t.Clone().AddInPlace(o) }

// Sub returns t - o as a new tensor.
func Sub(t, o *Tensor) *Tensor { return t.Clone().SubInPlace(o) }

func checkSameSize(op string, a, b *Tensor) {
	if len(a.Data) != len(b.Data) {
		panic(fmt.Sprintf("tensor: %s size mismatch: %v vs %v", op, a.shape, b.shape))
	}
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Tensor) Mean() float64 {
	if len(t.Data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.Data))
}

// Max returns the maximum element. It panics on an empty tensor.
func (t *Tensor) Max() float64 {
	if len(t.Data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element. It panics on an empty tensor.
func (t *Tensor) Min() float64 {
	if len(t.Data) == 0 {
		panic("tensor: Min of empty tensor")
	}
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// L2Norm returns the Euclidean norm of the flattened tensor.
func (t *Tensor) L2Norm() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += float64(v * v)
	}
	return math.Sqrt(s)
}

// Dot returns the inner product of two tensors viewed as flat vectors.
func Dot(a, b *Tensor) float64 {
	checkSameSize("Dot", a, b)
	s := 0.0
	for i, v := range a.Data {
		s += float64(v * b.Data[i])
	}
	return s
}

// ArgMaxRows returns, for a 2-D tensor, the column index of the maximum in
// each row. Ties resolve to the lowest index, making results deterministic.
func (t *Tensor) ArgMaxRows() []int {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: ArgMaxRows on %d-D tensor", len(t.shape)))
	}
	rows, cols := t.shape[0], t.shape[1]
	out := make([]int, rows)
	for r := 0; r < rows; r++ {
		best, bi := math.Inf(-1), 0
		row := t.Data[r*cols : (r+1)*cols]
		for c, v := range row {
			if v > best {
				best, bi = v, c
			}
		}
		out[r] = bi
	}
	return out
}

// SumRowsInto computes the row sums of a 2-D tensor into dst, shaping
// dst to a 1-D tensor of the column count (reusing its storage) and
// returning dst. The accumulation visits rows in ascending order.
func (t *Tensor) SumRowsInto(dst *Tensor) *Tensor {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: SumRowsInto on %d-D tensor", len(t.shape)))
	}
	rows, cols := t.shape[0], t.shape[1]
	dst.Ensure(cols)
	dst.Zero()
	for r := 0; r < rows; r++ {
		row := t.Data[r*cols : (r+1)*cols]
		for c, v := range row {
			dst.Data[c] += v
		}
	}
	return dst
}

// AllClose reports whether every pair of corresponding elements differs by
// at most tol (absolute). Tensors of different sizes are never close.
func AllClose(a, b *Tensor, tol float64) bool {
	if len(a.Data) != len(b.Data) {
		return false
	}
	for i, v := range a.Data {
		if math.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders a compact human-readable description (shape + a data
// preview), suitable for debugging and test failure messages.
func (t *Tensor) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Tensor%v[", t.shape)
	n := len(t.Data)
	const preview = 8
	for i := 0; i < n && i < preview; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%.4g", t.Data[i])
	}
	if n > preview {
		fmt.Fprintf(&sb, ", … (%d total)", n)
	}
	sb.WriteString("]")
	return sb.String()
}
