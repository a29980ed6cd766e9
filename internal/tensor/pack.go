package tensor

// Panel packing for the GEMM engine (gemm.go).
//
// The micro-kernel reads one operand of every product where it lies and
// the other from packed panels: one panel per NR-column stripe of the
// product's small operand, whose panel p holds columns [p*NR, p*NR+NR)
// interleaved k-major, bp[kk*NR+jr] = B[kk][p*NR+jr]. Columns past n
// are zero-filled: a padded column only feeds scratch columns of the
// spill tile that are discarded, so packing never perturbs the
// bit-exact accumulation of live elements.
//
// The small operand B (k×n) comes in two layouts. packBTrans takes it
// stored (n×k) — a convolution's weights in the forward pass, dy for
// its weight gradient, a dense layer's x or dy; packB takes it stored
// (k×n) — x for a dense layer's weight gradient, a convolution's
// weights for its column gradients. What the kernel reads in place — a
// convolution's zero-padded image, a dense layer's W, an output
// gradient dy — is addressed through two offset tables, at the end of
// this file.

// packB packs every NR-column panel of a plain (k×n) matrix: x for a
// dense layer's weight gradient, or a convolution's weights once per
// column-gradient call however many images the call covers.
func packB(bp, b []float64, k, n int) {
	np := (n + gemmNR - 1) / gemmNR
	for p := 0; p < np; p++ {
		j0 := p * gemmNR
		jb := n - j0
		if jb > gemmNR {
			jb = gemmNR
		}
		off := p * k * gemmNR
		for kk := 0; kk < k; kk++ {
			src := b[kk*n+j0 : kk*n+j0+jb]
			dst := bp[off+kk*gemmNR : off+kk*gemmNR+gemmNR]
			for jr := 0; jr < jb; jr++ {
				dst[jr] = src[jr]
			}
			for jr := jb; jr < gemmNR; jr++ {
				dst[jr] = 0
			}
		}
	}
}

// packBTrans packs every NR-column panel where the logical B (k×n) is
// stored transposed as (n×k): B[kk][j] = b[j*k+kk]. A full panel reads
// its eight rows of b side by side, so every panel row is one contiguous
// store. It packs a convolution's weights or dy, once per call however
// many images the call covers, and a dense layer's x or dy.
func packBTrans(bp, b []float64, k, n int) {
	for j0 := 0; j0 < n; j0 += gemmNR {
		jb := min(n-j0, gemmNR)
		pan := bp[j0*k:][:k*gemmNR]
		if jb == gemmNR {
			r0, r1, r2, r3 := b[(j0+0)*k:][:k], b[(j0+1)*k:][:k], b[(j0+2)*k:][:k], b[(j0+3)*k:][:k]
			r4, r5, r6, r7 := b[(j0+4)*k:][:k], b[(j0+5)*k:][:k], b[(j0+6)*k:][:k], b[(j0+7)*k:][:k]
			for kk := range r0 {
				d := pan[kk*gemmNR:][:gemmNR]
				d[0], d[1], d[2], d[3] = r0[kk], r1[kk], r2[kk], r3[kk]
				d[4], d[5], d[6], d[7] = r4[kk], r5[kk], r6[kk], r7[kk]
			}
			continue
		}
		for jr := 0; jr < jb; jr++ {
			for kk, bv := range b[(j0+jr)*k:][:k] {
				pan[kk*gemmNR+jr] = bv
			}
		}
		for jr := jb; jr < gemmNR; jr++ {
			for kk := 0; kk < k; kk++ {
				pan[kk*gemmNR+jr] = 0
			}
		}
	}
}

// The image side of the convolution products (newConvPlan). The im2col
// column matrix of one CHW image — row (c,kh,kw), column (oh,ow), entry
// pixel (c, oh*StrideH-PadH+kh, ow*StrideW-PadW+kw), zero where that
// falls outside the image — is never materialized. padImage copies the
// image into scratch with the zero border written out; that is the only
// place the padding is decided, because in padded coordinates every
// (tap, position) pair addresses a real element, at tap offset plus
// position offset. Taps and positions are each a small grid of offsets
// (offsetGrid) that the driver tabulates and the micro-kernel adds. A
// row-major matrix read in place — a dense layer's W, an output
// gradient dy — needs no copy: its two tables are lines.

// offsetGrid is the offsets i0*s0 + i1*s1 + i2*s2 of a d0×d1×d2 grid of
// points, enumerated in row-major order.
type offsetGrid struct{ d0, d1, d2, s0, s1, s2 int }

// line is the grid 0, s, …, (d-1)·s: the rows or the columns of a
// row-major matrix read in place.
func line(d, s int) offsetGrid { return offsetGrid{1, 1, d, 0, 0, s} }

func (og offsetGrid) size() int { return og.d0 * og.d1 * og.d2 }

// last returns the grid's largest offset, that of its last point (no
// stride is negative). The grid must not be empty.
func (og offsetGrid) last() int { return (og.d0-1)*og.s0 + (og.d1-1)*og.s1 + (og.d2-1)*og.s2 }

// fill writes the grid's offsets, in order, to the front of dst.
func (og offsetGrid) fill(dst []int) {
	i := 0
	for i0, o0 := 0, 0; i0 < og.d0; i0, o0 = i0+1, o0+og.s0 {
		for i1, o1 := 0, o0; i1 < og.d1; i1, o1 = i1+1, o1+og.s1 {
			for i2, o2 := 0, o1; i2 < og.d2; i2, o2 = i2+1, o2+og.s2 {
				dst[i] = o2
				i++
			}
		}
	}
}

// paddedGrids returns g's two offset grids over the zero-padded image —
// taps (c,kh,kw) and output positions (oh,ow); the pixel under tap t at
// position p is at the sum of their two offsets — and the padded image's
// element count.
func paddedGrids(g ConvGeom) (taps, pos offsetGrid, size int) {
	ph, pw := g.InH+2*g.PadH, g.InW+2*g.PadW
	taps = offsetGrid{g.InC, g.KH, g.KW, ph * pw, pw, 1}
	pos = offsetGrid{1, g.OutH(), g.OutW(), 0, g.StrideH * pw, g.StrideW}
	return taps, pos, g.InC * ph * pw
}

// padImage writes img with its zero border into dst, which holds the
// padded image followed by as many zeros again: an all-zero region any
// offset can be added to, which is what the rows past a ragged last
// block read (see rowPlan).
func padImage(dst, img []float64, g ConvGeom) {
	clear(dst)
	ph, pw := g.InH+2*g.PadH, g.InW+2*g.PadW
	for c := 0; c < g.InC; c++ {
		for h := 0; h < g.InH; h++ {
			copy(dst[(c*ph+g.PadH+h)*pw+g.PadW:], img[(c*g.InH+h)*g.InW:][:g.InW])
		}
	}
}
