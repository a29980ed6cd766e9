package tensor

// Panel packing for the blocked GEMM engine (gemm.go).
//
// The micro-kernel consumes two packed panel formats:
//
//   - A panels: one panel per MR-row block of the output. Panel bi holds
//     A rows [bi*MR, bi*MR+MR) interleaved k-major:
//     ap[kk*MR+ir] = A[bi*MR+ir][kk]. Rows past m are zero-filled, so
//     edge tiles run the same bounds-check-free kernel and the padded
//     rows land in scratch.
//
//   - B panels: one panel per NR-column stripe. Panel p holds B columns
//     [p*NR, p*NR+NR) interleaved k-major: bp[kk*NR+jr] = B[kk][p*NR+jr].
//     Columns past n are zero-filled.
//
// Padding is mathematically inert for the real outputs: a padded A row
// only feeds scratch rows that are discarded, and a padded B column only
// feeds scratch columns that are discarded, so packing never perturbs
// the bit-exact accumulation of live elements.
//
// Four logical operand layouts are packed: a plain (m×k) or transposed
// (k×m) A matrix, a plain (k×n) B matrix for gemmInto, and the small
// operand of the row-indirect products (packBTrans). What those read in
// place — a convolution's zero-padded image, a dense layer's W — is
// addressed through two offset tables, at the end of this file.

// packA packs A row-blocks [blo, bhi) from a plain (m×k) matrix.
func packA(ap, a []float64, m, k, blo, bhi int) {
	off := 0
	for bi := blo; bi < bhi; bi++ {
		i0 := bi * gemmMR
		for ir := 0; ir < gemmMR; ir++ {
			i := i0 + ir
			if i >= m {
				for kk := 0; kk < k; kk++ {
					ap[off+kk*gemmMR+ir] = 0
				}
				continue
			}
			arow := a[i*k : (i+1)*k]
			for kk, av := range arow {
				ap[off+kk*gemmMR+ir] = av
			}
		}
		off += k * gemmMR
	}
}

// packATrans packs A row-blocks [blo, bhi) where the logical A (m×k) is
// stored transposed as (k×m): A[i][kk] = a[kk*m+i]. The read of one
// panel row is contiguous in a, which is why backprop's xᵀ@dy never
// needs a materialized transpose.
func packATrans(ap, a []float64, m, k, blo, bhi int) {
	off := 0
	for bi := blo; bi < bhi; bi++ {
		i0 := bi * gemmMR
		ib := m - i0
		if ib > gemmMR {
			ib = gemmMR
		}
		for kk := 0; kk < k; kk++ {
			src := a[kk*m+i0 : kk*m+i0+ib]
			dst := ap[off+kk*gemmMR : off+kk*gemmMR+gemmMR]
			for ir := 0; ir < ib; ir++ {
				dst[ir] = src[ir]
			}
			for ir := ib; ir < gemmMR; ir++ {
				dst[ir] = 0
			}
		}
		off += k * gemmMR
	}
}

// packB packs every NR-column panel of a plain (k×n) matrix.
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
// store. It is the pack of every row-indirect product's small operand
// (rowPlan): a convolution's weights or dy, once per call however many
// images the call covers, and a dense layer's x or dy.
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

// The image side of the convolution products (convGemmInto). The im2col
// column matrix of one CHW image — row (c,kh,kw), column (oh,ow), entry
// pixel (c, oh*StrideH-PadH+kh, ow*StrideW-PadW+kw), zero where that
// falls outside the image — is never materialized. padImage copies the
// image into scratch with the zero border written out; that is the only
// place the padding is decided, because in padded coordinates every
// (tap, position) pair addresses a real element, at tap offset plus
// position offset. Taps and positions are each a small grid of offsets
// (offsetGrid) that the driver tabulates and the micro-kernel adds. A
// dense layer's W needs no copy: its two tables are strided lines
// (denseInto).

// offsetGrid is the offsets i0*s0 + i1*s1 + i2*s2 of a d0×d1×d2 grid of
// points, enumerated in row-major order; {1, 1, d, 0, 0, s} is the line
// 0, s, …, (d-1)·s.
type offsetGrid struct{ d0, d1, d2, s0, s1, s2 int }

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
// block read (see convGemmInto).
func padImage(dst, img []float64, g ConvGeom) {
	clear(dst)
	ph, pw := g.InH+2*g.PadH, g.InW+2*g.PadW
	for c := 0; c < g.InC; c++ {
		for h := 0; h < g.InH; h++ {
			copy(dst[(c*ph+g.PadH+h)*pw+g.PadW:], img[(c*g.InH+h)*g.InW:][:g.InW])
		}
	}
}
