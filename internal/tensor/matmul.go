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
// It is DenseForwardInto's product: a is packed and b is read where it
// lies (rowPlan, gemm.go). Each output element accumulates in
// ascending-k order in a single accumulator, and MR-row blocks of b's
// columns are partitioned across the parallel worker pool, so results
// are bit-identical to a single-worker run. After warmup it performs no
// allocations in serial runs (see parallel.Inline; the plans are
// pooled GEMMs).
func MatMulInto(dst, a, b *Tensor) *Tensor {
	gm := gemms.Get().(*GEMM)
	gm.matMulInto("MatMulInto", dst, a, b)
	gemms.Put(gm)
	return dst
}

// matMulInto is MatMulInto and DenseForwardInto, with the caller's name
// for panic messages.
func (gm *GEMM) matMulInto(op string, dst, a, b *Tensor) *Tensor {
	m, k, n := checkMatMul(op, a, b)
	checkMatMulDst(op, dst, m, n)
	gm.denseInto(&gm.fwd, dst.Data, a.Data, false, m, b.Data, line(k, n), line(n, 1))
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
// not alias a or b, and is fully overwritten. Only a is packed, from its
// (k×m) storage; b is read where it lies. Each output element
// accumulates in ascending-k order on one worker, so results are
// bit-identical to the serial schedule. It returns dst.
func MatMulTransAInto(dst, a, b *Tensor) *Tensor {
	return MatMulTransAIntoOp("MatMulTransAInto", dst, a, b)
}

// MatMulTransAIntoOp is MatMulTransAInto with a caller-supplied
// operation name for panic messages.
func MatMulTransAIntoOp(op string, dst, a, b *Tensor) *Tensor {
	gm := gemms.Get().(*GEMM)
	gm.MatMulTransAIntoOp(op, dst, a, b)
	gemms.Put(gm)
	return dst
}

// MatMulTransAIntoOp is the package function on gm's plans: a dense
// layer's weight gradient dW = xᵀ@dy.
func (gm *GEMM) MatMulTransAIntoOp(op string, dst, a, b *Tensor) *Tensor {
	k, m, n := checkMatMulTransA(op, a, b)
	checkMatMulDst(op, dst, m, n)
	gm.denseInto(&gm.wGrad, dst.Data, a.Data, true, m, b.Data, line(k, n), line(n, 1))
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

// DenseForwardInto computes a dense layer's forward product dst = x @ w,
// where x is (batch×in), w is (in×out) and dst must be (batch×out), not
// aliasing x or w; every element is overwritten. Only x, the
// batch-sized operand, is packed: the micro-kernel reads w where it
// lies (rowPlan), so a call costs the multiply, not a repack of the
// weights. Each element accumulates in ascending-k order on one worker,
// so results are bit-identical at any worker count. It returns dst.
func DenseForwardInto(dst, x, w *Tensor) *Tensor {
	gm := gemms.Get().(*GEMM)
	gm.DenseForwardInto(dst, x, w)
	gemms.Put(gm)
	return dst
}

// DenseForwardInto is the package function on gm's plans.
func (gm *GEMM) DenseForwardInto(dst, x, w *Tensor) *Tensor {
	return gm.matMulInto("DenseForwardInto", dst, x, w)
}

// DenseInputGradInto computes a dense layer's input gradient
// dst = dy @ wᵀ, where dy is (batch×out), w is (in×out) and dst must be
// (batch×in), not aliasing dy or w; every element is overwritten. As in
// DenseForwardInto only dy is packed and w is read in place, so the
// transpose is never materialized. It returns dst.
func DenseInputGradInto(dst, dy, w *Tensor) *Tensor {
	gm := gemms.Get().(*GEMM)
	gm.DenseInputGradInto(dst, dy, w)
	gemms.Put(gm)
	return dst
}

// DenseInputGradInto is the package function on gm's plans.
func (gm *GEMM) DenseInputGradInto(dst, dy, w *Tensor) *Tensor {
	batch, out, in := checkMatMulTransB("DenseInputGradInto", dy, w)
	checkMatMulDst("DenseInputGradInto", dst, batch, in)
	gm.denseInto(&gm.inGrad, dst.Data, dy.Data, false, batch, w.Data, line(out, 1), line(in, out))
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
