package tensor

import (
	"fmt"

	"gsfl/internal/parallel"
)

// Blocked, panel-packed GEMM engine.
//
// All three matmul orientations (plain, aᵀ@b, a@bᵀ) and the
// implicit-GEMM convolution kernels funnel into gemmInto: the right-hand
// operand is packed once into NR-column panels, output rows are
// partitioned across the worker pool in MR-row blocks, and each chunk
// packs its own A panels before running the micro-kernel over its tiles.
// Packing buffers come from an internal Pool, so steady-state calls
// allocate nothing in serial runs.
//
// Determinism: every output element is produced by exactly one
// micro-kernel call that accumulates its k terms in ascending order in a
// single accumulator. Chunk boundaries fall between MR-row blocks and
// never change any element's accumulation sequence, so results are
// bit-identical at any worker count — the same contract the previous
// scalar kernels had. In the default "exact" numeric mode the kernel
// rounds every multiply and add separately (scalar and AVX2 paths agree
// bit-for-bit); a Reassociate mode swaps in an FMA kernel whose results
// are still worker-count-independent but only tolerance-comparable to
// exact mode.

const (
	// gemmMR × gemmNR is the micro-kernel register tile: 4 rows × 8
	// columns = eight 4-wide vector accumulators, which fits the 16
	// architectural vector registers on amd64 with room for operands.
	gemmMR = 4
	gemmNR = 8
)

// packPool services the packing panels for every GEMM call in the
// process. Buffers are size-bucketed, so the steady state of a training
// loop reuses the same handful of panels round after round.
var packPool Pool

// ukernFunc computes one MR×NR output tile over the full k extent of a
// packed A panel (k×MR interleaved) and packed B panel (k×NR
// interleaved). The tile is overwritten, not accumulated; row r starts
// at c[r*ldc].
type ukernFunc func(k int, ap, bp, c []float64, ldc int)

// kernExact / kernFast are the active micro-kernels, overridden at init
// by the amd64 vector kernels when the CPU supports them. kernExact is
// always bit-identical to ukernExactGeneric; kernFast may contract
// multiply-adds (FMA) and falls back to the exact kernel on hardware
// without FMA.
var (
	kernExact ukernFunc = ukernExactGeneric
	kernFast  ukernFunc = ukernExactGeneric
)

type aKind uint8

const (
	aPlain      aKind = iota // a is (m×k) row-major
	aTransposed              // a is (k×m) row-major, logical A = aᵀ
)

type bKind uint8

const (
	bPlain      bKind = iota // b is (k×n) row-major
	bTransposed              // b is (n×k) row-major, logical B = bᵀ
	bIm2col                  // b is a CHW image; logical B = im2col(b)
	bIm2colT                 // b is a CHW image; logical B = im2col(b)ᵀ
)

// aSource / bSource describe the logical (m×k) and (k×n) operands in
// terms of their physical storage. They are small values passed on the
// stack; constructing them never allocates.
type aSource struct {
	data []float64
	kind aKind
}

type bSource struct {
	data []float64
	kind bKind
	geom ConvGeom // for the im2col kinds
}

// gemmInto computes dst = A @ B for the logical operands described by
// asrc and bsrc. dst is fully overwritten.
func gemmInto(dst []float64, m, k, n int, asrc aSource, bsrc bSource) {
	if k == 0 {
		for i := range dst[:m*n] {
			dst[i] = 0
		}
		return
	}
	kern := kernExact
	if numericReassoc.Load() {
		kern = kernFast
	}
	nb := (n + gemmNR - 1) / gemmNR
	bp := packPool.GetSlice(nb * k * gemmNR)
	switch bsrc.kind {
	case bPlain:
		packB(bp, bsrc.data, k, n)
	case bTransposed:
		packBTrans(bp, bsrc.data, k, n)
	case bIm2col, bIm2colT:
		packBIm2col(bp, bsrc.data, bsrc.geom, bsrc.kind == bIm2colT)
	}
	mblocks := (m + gemmMR - 1) / gemmMR
	grain := grainRows(2 * k * n * gemmMR)
	if parallel.Inline(mblocks, grain) {
		ap := packPool.GetSlice(mblocks*k*gemmMR + gemmMR*gemmNR)
		gemmChunk(kern, dst, ap, bp, asrc, m, k, n, 0, mblocks)
		packPool.PutSlice(ap)
	} else {
		gemmParallel(kern, dst, bp, asrc, m, k, n, mblocks, grain)
	}
	packPool.PutSlice(bp)
}

// gemmParallel is the fork-join path, split out so its closure (and the
// escape of everything it captures) is only paid when the matrix is big
// enough to fan out.
func gemmParallel(kern ukernFunc, dst, bp []float64, asrc aSource, m, k, n, mblocks, grain int) {
	parallel.For(mblocks, grain, func(blo, bhi int) {
		ap := packPool.GetSlice((bhi-blo)*k*gemmMR + gemmMR*gemmNR)
		gemmChunk(kern, dst, ap, bp, asrc, m, k, n, blo, bhi)
		packPool.PutSlice(ap)
	})
}

// gemmChunk packs A row-blocks [blo, bhi) into ap and runs the
// micro-kernel over every tile of the chunk. ap carries gemmMR*gemmNR
// extra elements at its tail used as the spill tile for ragged edges
// (keeping the scratch heap-backed so passing it to the kernel does not
// force a per-call allocation).
func gemmChunk(kern ukernFunc, dst, ap, bp []float64, asrc aSource, m, k, n, blo, bhi int) {
	switch asrc.kind {
	case aPlain:
		packA(ap, asrc.data, m, k, blo, bhi)
	case aTransposed:
		packATrans(ap, asrc.data, m, k, blo, bhi)
	}
	nb := (n + gemmNR - 1) / gemmNR
	scratch := ap[(bhi-blo)*k*gemmMR:]
	for bi := blo; bi < bhi; bi++ {
		i0 := bi * gemmMR
		ib := m - i0
		if ib > gemmMR {
			ib = gemmMR
		}
		apan := ap[(bi-blo)*k*gemmMR:]
		for p := 0; p < nb; p++ {
			j0 := p * gemmNR
			jb := n - j0
			if jb > gemmNR {
				jb = gemmNR
			}
			bpan := bp[p*k*gemmNR:]
			if ib == gemmMR && jb == gemmNR {
				kern(k, apan, bpan, dst[i0*n+j0:], n)
			} else {
				kern(k, apan, bpan, scratch, gemmNR)
				for r := 0; r < ib; r++ {
					copy(dst[(i0+r)*n+j0:(i0+r)*n+j0+jb], scratch[r*gemmNR:r*gemmNR+jb])
				}
			}
		}
	}
}

// ConvMatMulInto computes dst = w @ im2col(img) without materializing
// the column matrix — the implicit-GEMM convolution forward pass. w is
// (outC × InC*KH*KW), img is one flat CHW image of g's geometry, dst is
// (outC × OutH*OutW). The packing routine reads the image through the
// im2col index map, so results are bit-identical (in exact mode) to
// materializing the columns and calling MatMulInto. It returns dst.
func ConvMatMulInto(dst, w *Tensor, img []float64, g ConvGeom) *Tensor {
	k := g.InC * g.KH * g.KW
	n := g.OutH() * g.OutW()
	m := checkConvMatMul("ConvMatMulInto", dst, w, img, g, k, n)
	gemmInto(dst.Data, m, k, n, aSource{data: w.Data}, bSource{data: img, kind: bIm2col, geom: g})
	return dst
}

// ConvMatMulTransBInto computes dst = dy @ im2col(img)ᵀ without
// materializing the column matrix — the implicit-GEMM weight-gradient
// kernel of the conv backward pass. dy is (outC × OutH*OutW), dst is
// (outC × InC*KH*KW). It returns dst.
func ConvMatMulTransBInto(dst, dy *Tensor, img []float64, g ConvGeom) *Tensor {
	k := g.OutH() * g.OutW()
	n := g.InC * g.KH * g.KW
	m := checkConvMatMul("ConvMatMulTransBInto", dst, dy, img, g, k, n)
	gemmInto(dst.Data, m, k, n, aSource{data: dy.Data}, bSource{data: img, kind: bIm2colT, geom: g})
	return dst
}

// checkConvMatMul validates one implicit-GEMM call: a must be (m×ak),
// dst must be (m×an), img must be one image of g's geometry. It returns
// m. (For the forward kernel ak=colRows and an=spatial; the transposed
// kernel swaps them.)
func checkConvMatMul(op string, dst, a *Tensor, img []float64, g ConvGeom, ak, an int) int {
	if len(a.shape) != 2 || a.shape[1] != ak {
		panic(fmt.Sprintf("tensor: %s: left operand is %v, want (m×%d) for conv geometry %+v", op, a.shape, ak, g))
	}
	m := a.shape[0]
	if len(dst.shape) != 2 || dst.shape[0] != m || dst.shape[1] != an {
		panic(fmt.Sprintf("tensor: %s: dst is %v, want (%d×%d) for conv geometry %+v", op, dst.shape, m, an, g))
	}
	if len(img) != g.ImageSize() {
		panic(fmt.Sprintf("tensor: %s: image has %d elements, want %d (CHW %d×%d×%d)",
			op, len(img), g.ImageSize(), g.InC, g.InH, g.InW))
	}
	return m
}
