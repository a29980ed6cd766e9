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
// The small operand B (k×n) comes in three layouts. packBTrans takes it
// stored (n×k) — a convolution's weights in the forward pass, dy for
// its weight gradient, a dense layer's x or dy; packB takes it stored
// (k×n) — x for a dense layer's weight gradient; packTaps rearranges a
// convolution's weights into its input gradient's B. What the kernel
// reads in place — a convolution's zero-padded image or its output
// gradient on a canvas, a dense layer's W, an output gradient dy — is
// addressed through two offset tables, at the end of this file.

// packB packs every NR-column panel of a plain (k×n) matrix: x for a
// dense layer's weight gradient.
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

// packTaps packs the input gradient's dense operand (newInputGradPlan)
// straight from a convolution's weights w, (m × n·taps): B is
// (taps·m × n) with B[t·m+oc][c] = w[oc][c·taps+t], so that k runs over
// taps with the output channels inside. It runs once per call however
// many images the call covers.
func packTaps(bp, w []float64, m, n, taps int) {
	k := taps * m
	for j0 := 0; j0 < n; j0 += gemmNR {
		jb := min(n-j0, gemmNR)
		pan := bp[j0*k:][:k*gemmNR]
		for t := 0; t < taps; t++ {
			for oc := 0; oc < m; oc++ {
				d := pan[(t*m+oc)*gemmNR:][:gemmNR]
				src := w[(oc*n+j0)*taps+t:]
				for jr := 0; jr < jb; jr++ {
					d[jr] = src[jr*taps]
				}
				clear(d[jb:])
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
// falls outside the image — is never materialized. The plan places the
// image on a canvas, its copy with the zero border written out; that is
// the only place the padding is decided, because in padded coordinates
// every (tap, position) pair addresses a real element, at tap offset
// plus position offset. Taps and positions are each a small grid of
// offsets (offsetGrid) that the driver tabulates and the micro-kernel
// adds. The input gradient's plan (newInputGradPlan) places dy on a
// canvas the same way. A row-major matrix read in place — a dense
// layer's W, an output gradient dy — needs no copy: its two tables are
// lines.

// offsetGrid is the offsets o + i0*s0 + i1*s1 + i2*s2 of a d0×d1×d2
// grid of points, enumerated in row-major order. A stride may be
// negative; no offset may be.
type offsetGrid struct{ o, d0, d1, d2, s0, s1, s2 int }

// line is the grid 0, s, …, (d-1)·s: the rows or the columns of a
// row-major matrix read in place.
func line(d, s int) offsetGrid { return offsetGrid{d0: 1, d1: 1, d2: d, s2: s} }

func (og offsetGrid) size() int { return og.d0 * og.d1 * og.d2 }

// hi returns the grid's largest offset. The grid must not be empty.
func (og offsetGrid) hi() int {
	reach := func(d, s int) int { return max(0, (d-1)*s) }
	return og.o + reach(og.d0, og.s0) + reach(og.d1, og.s1) + reach(og.d2, og.s2)
}

// fill writes the grid's offsets, in order, to the front of dst.
func (og offsetGrid) fill(dst []int) {
	i := 0
	for i0, o0 := 0, og.o; i0 < og.d0; i0, o0 = i0+1, o0+og.s0 {
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
// position p is at the sum of their two offsets — and the canvas that
// pads an image.
func paddedGrids(g ConvGeom) (taps, pos offsetGrid, cv canvas) {
	ph, pw := g.InH+2*g.PadH, g.InW+2*g.PadW
	taps = offsetGrid{d0: g.InC, d1: g.KH, d2: g.KW, s0: ph * pw, s1: pw, s2: 1}
	pos = offsetGrid{d0: 1, d1: g.OutH(), d2: g.OutW(), s1: g.StrideH * pw, s2: g.StrideW}
	cv = canvas{c: g.InC, h: g.InH, w: g.InW, ch: ph, cw: pw, oh: g.PadH, ow: g.PadW, sh: 1, sw: 1}
	return taps, pos, cv
}

// canvas is how a plan lays each item it reads before the kernel reads
// it: c planes of h×w elements, each written onto a zeroed ch×cw plane
// with element (i, j) at (oh + i·sh, ow + j·sw), and whatever falls
// outside the plane cropped.
type canvas struct{ c, h, w, ch, cw, oh, ow, sh, sw int }

// size is the canvas's element count; srcSize is an item's.
func (cv canvas) size() int    { return cv.c * cv.ch * cv.cw }
func (cv canvas) srcSize() int { return cv.c * cv.h * cv.w }

// place lays src on the canvas at the front of dst. It writes only the
// positions src lands on, the same for every item, so a dst cleared once
// holds zeros everywhere else — after the canvas, too, where the rows
// past a ragged last block read (see rowPlan).
func (cv canvas) place(dst, src []float64) {
	ilo, ihi := onPlane(cv.oh, cv.sh, cv.h, cv.ch)
	jlo, jhi := onPlane(cv.ow, cv.sw, cv.w, cv.cw)
	if jlo == jhi {
		return
	}
	for c := 0; c < cv.c; c++ {
		for i := ilo; i < ihi; i++ {
			row := src[(c*cv.h+i)*cv.w:][jlo:jhi]
			at := (c*cv.ch+cv.oh+i*cv.sh)*cv.cw + cv.ow + jlo*cv.sw
			if cv.sw == 1 {
				copy(dst[at:], row)
				continue
			}
			for j, v := range row {
				dst[at+j*cv.sw] = v
			}
		}
	}
}

// onPlane returns the indices [lo, hi) of n whose position off + i·s
// lies in [0, size); the range is empty when none does.
func onPlane(off, s, n, size int) (lo, hi int) {
	if off < 0 {
		lo = (s - 1 - off) / s
	}
	if room := size - off; room > 0 {
		hi = min(n, (room+s-1)/s)
	}
	return min(lo, hi), hi
}
