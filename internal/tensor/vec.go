package tensor

import "math"

// Elementwise bodies of a training step: the four loops that run
// between the GEMMs and do one independent operation per element — the
// ReLU mask, the 2×2 max-pool, the momentum-SGD update and the gradient
// accumulate.
//
// Each exists as a portable Go body (the *Portable functions below),
// which defines the result bit for bit and is the only code off amd64
// and in a purego build, and as a 4-lane AVX2 body (vec_amd64.s) that
// performs the same operations per element in the same order — multiply
// and add rounded separately, no FMA. No element depends on another, so
// there is no accumulation order to preserve and the two agree by
// construction; TestVecBodiesMatchPortable and FuzzVecBodies hold them
// to it. The vector body is chosen by the CPUID probe that chooses the
// GEMM kernels and by nothing else at run time.
//
// The exported wrappers own memory safety: every operand is re-sliced
// to the destination's length before a pointer is taken, so a short
// operand panics here, before anything is written, and the assembly
// never sees a length it could overrun. The *Vec functions handle a
// multiple-of-four prefix (of the slice; of every output row, for the
// pool) and report its length (zero without the hardware); the portable
// body finishes the tail.

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

// MaxPool2Plane max-pools one h×w plane (row-major in in) over 2×2
// windows with stride 2 into its (h/2)×(w/2) output; an odd last row or
// column is dropped. Output (i, j)'s window holds in[2i·w+2j],
// in[2i·w+2j+1], in[(2i+1)·w+2j], in[(2i+1)·w+2j+1], scanned in that
// order from the first element, a later one winning only when strictly
// greater — so ties go to the first occurrence and an all-NaN window
// outputs what it holds. When arg is not nil it receives each winner's
// flat index, in[0] being element base of the caller's buffer. in must
// hold h·w elements, out and arg (h/2)·(w/2).
func MaxPool2Plane(out []float64, arg []int, in []float64, base, h, w int) {
	outH, outW := h/2, w/2
	out, in = out[:outH*outW], in[:h*w]
	if arg != nil {
		arg = arg[:outH*outW]
	}
	// The vector body pools the first nv outputs of every row.
	nv := maxPool2PlaneVec(out, arg, in, base, outH, outW, w)
	maxPool2PlanePortable(out, arg, in, base, outH, outW, w, nv)
}

// maxPool2PlanePortable pools outputs [from, outW) of every output row;
// from 0 it is the whole plane, and the definition.
func maxPool2PlanePortable(out []float64, arg []int, in []float64, base, outH, outW, w, from int) {
	if from == outW {
		return
	}
	for oh := 0; oh < outH; oh++ {
		o, r := oh*outW+from, 2*oh*w+2*from
		var a []int
		if arg != nil {
			a = arg[o:][:outW-from]
		}
		maxPool2RowPortable(out[o:][:outW-from], a, in[r:], in[r+w:], base+r, w)
	}
}

// maxPool2RowPortable pools one output row: window i holds r0[2i],
// r0[2i+1], r1[2i], r1[2i+1], and r0[0] and r1[0] are elements base and
// base+w of the caller's buffer.
func maxPool2RowPortable(out []float64, arg []int, r0, r1 []float64, base, w int) {
	r0, r1 = r0[:2*len(out)], r1[:2*len(out)]
	for i := range out {
		best, bi := math.Float64bits(r0[2*i]), 0
		best, bi = takeGreater(best, bi, r0[2*i+1], 1)
		best, bi = takeGreater(best, bi, r1[2*i], w)
		best, bi = takeGreater(best, bi, r1[2*i+1], w+1)
		out[i] = math.Float64frombits(best)
		if arg != nil {
			arg[i] = base + 2*i + bi
		}
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

// addTo adds src to dst elementwise. src must be at least as long as
// dst.
func addTo(dst, src []float64) {
	src = src[:len(dst)]
	n := addToVec(dst, src)
	addToPortable(dst[n:], src[n:])
}

func addToPortable(dst, src []float64) {
	src = src[:len(dst)]
	for i, v := range src {
		dst[i] += v
	}
}
