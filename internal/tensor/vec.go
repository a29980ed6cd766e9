package tensor

import "math"

// Vector bodies of a training step: the loops that run between the
// GEMMs and do one independent operation per element — the ReLU mask,
// the 2×2 max-pool (optionally of relu(x), for a ReLU fused into the
// pool it feeds), the pool's masked gradient scatter and the
// momentum-SGD update — and one reduction, the sum of squares gradient
// clipping settles on.
//
// Each exists as a portable Go body (the *Portable functions below),
// which defines the result bit for bit and is the only code off amd64
// and in a purego build, and, all but the scatter, as an AVX2 body
// (vec_amd64.s) that performs the same operations in the same order —
// multiply and add rounded separately, no FMA. In the elementwise
// bodies no element depends on another, so there is no accumulation
// order to preserve and the two agree by construction. The reduction
// has an order, and its portable body fixes it: eight lanes, folded in
// a stated pattern, which the AVX2 body's two 4-lane accumulators
// follow step for step. TestVecBodiesMatchPortable and FuzzVecBodies
// hold every body to its portable one. The vector body is chosen by
// the CPUID probe that chooses the GEMM kernels and by nothing else at
// run time.
//
// The exported wrappers own memory safety: every operand is re-sliced
// to the destination's length before a pointer is taken, so a short
// operand panics here, before anything is written, and the assembly
// never sees a length it could overrun. The *Vec functions handle a
// multiple-of-four prefix (of the slice; of every output row, for the
// pool; a multiple of eight for the reduction) and report its length
// (zero without the hardware); the portable body finishes the tail.

// MaskPositive writes src[i] where gate[i] > 0 and +0 elsewhere — for
// gate <= 0, for -0 and for NaN, exactly like the comparison. src and
// gate must be at least as long as dst.
func MaskPositive(dst, src, gate []float64) {
	src, gate = src[:len(dst)], gate[:len(dst)]
	n := maskPositiveVec(dst, src, gate)
	maskPositivePortable(dst[n:], src[n:], gate[n:])
}

func maskPositivePortable(dst, src, gate []float64) {
	src, gate = src[:len(dst)], gate[:len(dst)]
	for i := range dst {
		dst[i] = math.Float64frombits(math.Float64bits(src[i]) & positiveMask(gate[i]))
	}
}

// positiveMask returns all ones when v > 0 and zero otherwise, without
// a branch: the sign pattern of a pre-activation batch is close to
// random, so a compare-and-branch mispredicts about every other time.
func positiveMask(v float64) uint64 {
	// As integers the positive floats up to +Inf are 1..infBits, so
	// bits-1 lies in [0, infBits) for them and for nothing else: +0
	// wraps to -1, a set sign bit keeps bits-1 negative (-0, the most
	// negative integer, wraps above every float), and the positive NaNs
	// sit above infBits.
	const infBits = 0x7FF0000000000000
	t := int64(math.Float64bits(v)) - 1
	return uint64((^t & (t - infBits)) >> 63)
}

// PositivePart returns v when v > 0 and +0 otherwise — for -0 and NaN
// too: max(0, v) as MaskPositive(dst, x, x) computes it, one element.
func PositivePart(v float64) float64 {
	return math.Float64frombits(math.Float64bits(v) & positiveMask(v))
}

// MaxPool2Plane max-pools one h×w plane (row-major in in) over 2×2
// windows with stride 2 into its (h/2)×(w/2) output; an odd last row or
// column is dropped. Output (i, j)'s window holds in[2i·w+2j],
// in[2i·w+2j+1], in[(2i+1)·w+2j], in[(2i+1)·w+2j+1], scanned in that
// order from the first element, a later one winning only when strictly
// greater — so ties go to the first occurrence and an all-NaN window
// outputs what it holds. When arg is not nil it receives each winner's
// flat index, in[0] being element base of the caller's buffer. in must
// hold h·w elements, out and arg (h/2)·(w/2).
//
// With relu set it pools relu(in) without writing it: the scan's seed,
// the window's first element, is replaced by PositivePart of itself,
// and the rest of the scan is unchanged. The outputs and argmaxes are
// those of pooling MaskPositive(in, in) bit for bit. The running
// maximum starts at ≥ +0 and only grows, so a candidate that is
// non-positive or NaN never wins v > best — nor would its relu, +0 —
// and a positive candidate is its own relu; a NaN or −0 seed becomes
// +0, exactly as the mask makes it.
func MaxPool2Plane(out []float64, arg []int, in []float64, base, h, w int, relu bool) {
	outH, outW := h/2, w/2
	out, in = out[:outH*outW], in[:h*w]
	if arg != nil {
		arg = arg[:outH*outW]
	}
	// The vector body pools the first nv outputs of every row.
	nv := maxPool2PlaneVec(out, arg, in, base, outH, outW, w, relu)
	maxPool2PlanePortable(out, arg, in, base, outH, outW, w, nv, relu)
}

// maxPool2PlanePortable pools outputs [from, outW) of every output row;
// from 0 it is the whole plane, and the definition.
func maxPool2PlanePortable(out []float64, arg []int, in []float64, base, outH, outW, w, from int, relu bool) {
	if from == outW {
		return
	}
	for oh := 0; oh < outH; oh++ {
		o, r := oh*outW+from, 2*oh*w+2*from
		var a []int
		if arg != nil {
			a = arg[o:][:outW-from]
		}
		maxPool2RowPortable(out[o:][:outW-from], a, in[r:], in[r+w:], base+r, w, relu)
	}
}

// maxPool2RowPortable pools one output row: window i holds r0[2i],
// r0[2i+1], r1[2i], r1[2i+1], and r0[0] and r1[0] are elements base and
// base+w of the caller's buffer. With relu set each seed is masked to
// +0 unless it is positive.
func maxPool2RowPortable(out []float64, arg []int, r0, r1 []float64, base, w int, relu bool) {
	r0, r1 = r0[:2*len(out)], r1[:2*len(out)]
	keep := ^uint64(0) // every seed kept whole, or ...
	if relu {
		keep = 0 // ... only where positiveMask says so
	}
	for i := range out {
		seed := r0[2*i]
		best, bi := math.Float64bits(seed)&(positiveMask(seed)|keep), 0
		best, bi = takeGreater(best, bi, r0[2*i+1], 1)
		best, bi = takeGreater(best, bi, r1[2*i], w)
		best, bi = takeGreater(best, bi, r1[2*i+1], w+1)
		out[i] = math.Float64frombits(best)
		if arg != nil {
			arg[i] = base + 2*i + bi
		}
	}
}

// ScatterAddPositive adds src[i] onto dst[idx[i]] where gate[i] > 0,
// and +0 there elsewhere (for gate <= 0, -0 and NaN) — the backward
// pass of a max-pool fused with the ReLU before it, where idx is the
// pool's argmax, gate its output and src the output gradient. The mask
// is positiveMask, not a branch: whether a pooled value is positive is
// close to random. src and gate must be at least as long as idx; every
// index must lie in dst.
//
// It has no vector body. AVX2 cannot scatter, and an index an assembly
// loop wrote through unchecked would have to be bounds-checked in a
// pass of its own, where the Go loop checks each one as it goes.
func ScatterAddPositive(dst []float64, idx []int, src, gate []float64) {
	src, gate = src[:len(idx)], gate[:len(idx)]
	for i, j := range idx {
		dst[j] += math.Float64frombits(math.Float64bits(src[i]) & positiveMask(gate[i]))
	}
}

// takeGreater returns (v's bits, off) when v > best and (best, bi)
// otherwise. Which element of a window wins is data-dependent and close
// to random, so the comparison selects through a mask instead of
// branching.
func takeGreater(best uint64, bi int, v float64, off int) (uint64, int) {
	var gt uint64
	if v > math.Float64frombits(best) {
		gt = 1
	}
	return best ^ (best^math.Float64bits(v))&-gt, bi ^ (bi^off)&-int(gt)
}

// SGDMomentum applies one momentum-SGD update to a parameter buffer:
//
//	v = momentum·v + (grad·clip + decay·p)
//	p = p − lr·v
//
// every product and sum rounded on its own. v and grad must be at least
// as long as p.
func SGDMomentum(p, v, grad []float64, lr, momentum, clip, decay float64) {
	v, grad = v[:len(p)], grad[:len(p)]
	n := sgdMomentumVec(p, v, grad, lr, momentum, clip, decay)
	sgdMomentumPortable(p[n:], v[n:], grad[n:], lr, momentum, clip, decay)
}

func sgdMomentumPortable(p, v, grad []float64, lr, momentum, clip, decay float64) {
	v, grad = v[:len(p)], grad[:len(p)]
	for j := range p {
		// The conversions forbid fusing a product into the sum that
		// consumes it, which arm64 would otherwise do.
		gj := float64(grad[j]*clip) + float64(decay*p[j])
		v[j] = float64(momentum*v[j]) + gj
		p[j] -= float64(lr * v[j])
	}
}

// SumSquares returns Σ x[i]², every square rounded on its own and
// summed in a fixed order that is not the serial one: over the longest
// multiple-of-eight prefix, lane l accumulates x[8j+l]² in ascending j;
// the lanes are folded as ((l0+l4) + (l2+l6)) + ((l1+l5) + (l3+l7));
// and the remaining squares are added to that one at a time. Callers
// that need the serial sum's bits must not use it (see optim's
// clipFactor, which only bounds the serial sum with it).
func SumSquares(x []float64) float64 {
	s, n := sumSquaresVec(x)
	if n == 0 {
		return sumSquaresPortable(x)
	}
	return addSquares(s, x[n:])
}

func sumSquaresPortable(x []float64) float64 {
	n := len(x) &^ 7
	var l0, l1, l2, l3, l4, l5, l6, l7 float64
	for i := 0; i < n; i += 8 {
		q := x[i : i+8 : i+8]
		// The conversions keep arm64 from fusing a square into its lane.
		l0 += float64(q[0] * q[0])
		l1 += float64(q[1] * q[1])
		l2 += float64(q[2] * q[2])
		l3 += float64(q[3] * q[3])
		l4 += float64(q[4] * q[4])
		l5 += float64(q[5] * q[5])
		l6 += float64(q[6] * q[6])
		l7 += float64(q[7] * q[7])
	}
	return addSquares(((l0+l4)+(l2+l6))+((l1+l5)+(l3+l7)), x[n:])
}

// addSquares returns s plus the squares of x, added in order.
func addSquares(s float64, x []float64) float64 {
	for _, v := range x {
		s += float64(v * v)
	}
	return s
}
