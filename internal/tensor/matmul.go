package tensor

import "fmt"

// minChunkFLOPs is the serial-work floor per parallel chunk: a product
// whose total work fits one chunk runs on the calling goroutine, and no
// chunk of a forked one is smaller. At ≈10 GFLOP/s a chunk is ≈50 µs of
// kernel time against a fork-join that costs 7 allocations and, when the
// helper's thread has to be woken, tens of microseconds; every GEMM of a
// paper-shaped training step (the largest is the 16×256×64 dense layer,
// exactly one chunk) stays inline. BenchmarkMatMulWorkers sweeps shapes
// either side of it; docs/ARCHITECTURE.md "The pool" has the numbers.
const minChunkFLOPs = 512 << 10

// grainRows converts a per-row FLOP estimate into the minimum number of
// output rows one parallel chunk must cover.
func grainRows(flopsPerRow int) int {
	if flopsPerRow <= 0 {
		return minChunkFLOPs
	}
	g := minChunkFLOPs / flopsPerRow
	if g < 1 {
		g = 1
	}
	return g
}

// MatMulInto computes dst = a @ b for 2-D tensors, reusing dst's
// storage: a is (m×k), b is (k×n), dst must be (m×n) and must not alias
// a or b. It returns dst.
//
// Every shape runs on the blocked, panel-packed GEMM engine (gemm.go),
// which accumulates each output element in ascending-k order in a
// single accumulator and partitions output rows across the parallel
// worker pool, so results are bit-identical to a single-worker run.
// After warmup it performs no allocations in serial runs (see
// parallel.Inline; the GEMM packing panels are pooled).
func MatMulInto(dst, a, b *Tensor) *Tensor {
	return MatMulIntoOp("MatMulInto", dst, a, b)
}

// MatMulIntoOp is MatMulInto with a caller-supplied operation name used
// in panic messages, so a shape mismatch reports the layer and pass that
// issued the kernel instead of the bare kernel name.
func MatMulIntoOp(op string, dst, a, b *Tensor) *Tensor {
	m, k, n := checkMatMul(op, a, b)
	checkMatMulDst(op, dst, m, n)
	gemmInto(dst.Data, m, k, n, aSource{data: a.Data}, bSource{data: b.Data})
	return dst
}

func checkMatMul(op string, a, b *Tensor) (m, k, n int) {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic(fmt.Sprintf("tensor: %s: requires 2-D operands, got a shape %v and b shape %v", op, a.shape, b.shape))
	}
	if a.shape[1] != b.shape[0] {
		panic(fmt.Sprintf("tensor: %s: inner dimension mismatch: a is (%d×%d), b is (%d×%d); a@b needs a's %d columns to equal b's %d rows",
			op, a.shape[0], a.shape[1], b.shape[0], b.shape[1], a.shape[1], b.shape[0]))
	}
	return a.shape[0], a.shape[1], b.shape[1]
}

// checkMatMulDst validates the destination of any matmul variant whose
// logical product is (m×n).
func checkMatMulDst(op string, dst *Tensor, m, n int) {
	if len(dst.shape) != 2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: %s: dst shape %v, want (%d×%d)", op, dst.shape, m, n))
	}
}

// MatMulTransAInto computes dst = aᵀ @ b where a is (k×m) and b is
// (k×n), reusing dst's storage — the layer backward passes use it to
// write a weight gradient (xᵀ @ dy) straight into a reusable workspace
// buffer without materializing the transpose. dst must be (m×n), must
// not alias a or b, and is fully overwritten. Each output element
// accumulates in ascending-k order on one worker, so results are
// bit-identical to the serial schedule. It returns dst.
func MatMulTransAInto(dst, a, b *Tensor) *Tensor {
	return MatMulTransAIntoOp("MatMulTransAInto", dst, a, b)
}

// MatMulTransAIntoOp is MatMulTransAInto with a caller-supplied
// operation name for panic messages.
func MatMulTransAIntoOp(op string, dst, a, b *Tensor) *Tensor {
	k, m, n := checkMatMulTransA(op, a, b)
	checkMatMulDst(op, dst, m, n)
	gemmInto(dst.Data, m, k, n, aSource{data: a.Data, kind: aTransposed}, bSource{data: b.Data})
	return dst
}

func checkMatMulTransA(op string, a, b *Tensor) (k, m, n int) {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic(fmt.Sprintf("tensor: %s: requires 2-D operands, got a shape %v and b shape %v", op, a.shape, b.shape))
	}
	if a.shape[0] != b.shape[0] {
		panic(fmt.Sprintf("tensor: %s: outer dimension mismatch: a is (%d×%d), b is (%d×%d); aᵀ@b needs a's %d rows to equal b's %d rows",
			op, a.shape[0], a.shape[1], b.shape[0], b.shape[1], a.shape[0], b.shape[0]))
	}
	return a.shape[0], a.shape[1], b.shape[1]
}

// MatMulTransBInto computes dst = a @ bᵀ where a is (m×k) and b is
// (n×k), reusing dst's storage — input gradients (dy @ wᵀ) without
// materializing the transpose. dst must be (m×n) and must not alias a or
// b; every element is overwritten. Output rows are independent dot
// products, so results are bit-identical at any worker count. It
// returns dst.
func MatMulTransBInto(dst, a, b *Tensor) *Tensor {
	return MatMulTransBIntoOp("MatMulTransBInto", dst, a, b)
}

// MatMulTransBIntoOp is MatMulTransBInto with a caller-supplied
// operation name for panic messages.
func MatMulTransBIntoOp(op string, dst, a, b *Tensor) *Tensor {
	m, k, n := checkMatMulTransB(op, a, b)
	checkMatMulDst(op, dst, m, n)
	gemmInto(dst.Data, m, k, n, aSource{data: a.Data}, bSource{data: b.Data, kind: bTransposed})
	return dst
}

func checkMatMulTransB(op string, a, b *Tensor) (m, k, n int) {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic(fmt.Sprintf("tensor: %s: requires 2-D operands, got a shape %v and b shape %v", op, a.shape, b.shape))
	}
	if a.shape[1] != b.shape[1] {
		panic(fmt.Sprintf("tensor: %s: inner dimension mismatch: a is (%d×%d), b is (%d×%d); a@bᵀ needs a's %d columns to equal b's %d columns",
			op, a.shape[0], a.shape[1], b.shape[0], b.shape[1], a.shape[1], b.shape[1]))
	}
	return a.shape[0], a.shape[1], b.shape[0]
}

// AddRowVector adds a 1-D vector v (length n) to every row of a 2-D
// (m×n) tensor in place. Used for bias addition.
func (t *Tensor) AddRowVector(v *Tensor) *Tensor {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: AddRowVector on %d-D tensor", len(t.shape)))
	}
	n := t.shape[1]
	if v.Size() != n {
		panic(fmt.Sprintf("tensor: AddRowVector vector size %d, want %d", v.Size(), n))
	}
	for i := 0; i < t.shape[0]; i++ {
		row := t.Data[i*n : (i+1)*n]
		for j := range row {
			row[j] += v.Data[j]
		}
	}
	return t
}
