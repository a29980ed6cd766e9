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
// Four logical operand layouts are packed from three physical sources:
// a plain (m×k) or transposed (k×m) A matrix, a plain (k×n) or
// transposed (n×k) B matrix, and — for the implicit-GEMM convolution
// path — a B matrix that is the im2col column matrix of a CHW image,
// read directly through the im2col index map without ever materializing
// the columns (see "Implicit-GEMM packing" below).

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
// stored transposed as (n×k): B[kk][j] = b[j*k+kk].
func packBTrans(bp, b []float64, k, n int) {
	np := (n + gemmNR - 1) / gemmNR
	for p := 0; p < np; p++ {
		j0 := p * gemmNR
		jb := n - j0
		if jb > gemmNR {
			jb = gemmNR
		}
		off := p * k * gemmNR
		for jr := 0; jr < jb; jr++ {
			brow := b[(j0+jr)*k : (j0+jr+1)*k]
			for kk, bv := range brow {
				bp[off+kk*gemmNR+jr] = bv
			}
		}
		for jr := jb; jr < gemmNR; jr++ {
			for kk := 0; kk < k; kk++ {
				bp[off+kk*gemmNR+jr] = 0
			}
		}
	}
}

// Implicit-GEMM packing: the conv kernels' B operand is the im2col
// column matrix of one CHW image — row (c,kh,kw), column (oh,ow), entry
// pixel (c, oh*StrideH-PadH+kh, ow*StrideW-PadW+kw), zero where that
// falls outside the image — in either orientation, and it is never
// materialized. Packing it is two pure data movements:
//
//  1. padImage copies the image, one run per image row, into a scratch
//     copy with the zero border written out. That is the only place the
//     padding is decided: in padded coordinates every (tap, position)
//     pair addresses a real element, at tapOffset + positionOffset, so
//     no bounds test is left for any later loop.
//  2. packGather fills the panels. Taps and positions are each a small
//     grid of offsets into the padded copy (offsetGrid); one of them
//     supplies the NR lanes of a panel, the other its rows. A panel row
//     is NR loads through NR precomputed lane offsets and one contiguous
//     NR-wide store, whichever orientation is being packed.
//
// Every value lands exactly where the per-element index map put it, so
// the micro-kernel sees the same panels and no product can change a bit.

// offsetGrid is the offsets i0*s0 + i1*s1 + i2*s2 of a d0×d1×d2 grid of
// points, enumerated in row-major order.
type offsetGrid struct{ d0, d1, d2, s0, s1, s2 int }

func (og offsetGrid) size() int { return og.d0 * og.d1 * og.d2 }

// gridWalker hands out an offsetGrid's offsets one at a time, in order,
// carrying the indices along instead of dividing them out per point.
type gridWalker struct {
	og                  offsetGrid
	i1, i2, o0, o1, off int
}

// next returns the current point's offset and steps to the next point.
func (w *gridWalker) next() int {
	off := w.off
	w.off += w.og.s2
	if w.i2++; w.i2 == w.og.d2 {
		w.i2 = 0
		w.o1 += w.og.s1
		if w.i1++; w.i1 == w.og.d1 {
			w.i1 = 0
			w.o0 += w.og.s0
			w.o1 = w.o0
		}
		w.off = w.o1
	}
	return off
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
// row offset can be added to, which is what the lanes past a ragged
// last panel read (see packGather).
func padImage(dst, img []float64, g ConvGeom) {
	clear(dst)
	ph, pw := g.InH+2*g.PadH, g.InW+2*g.PadW
	for c := 0; c < g.InC; c++ {
		for h := 0; h < g.InH; h++ {
			copy(dst[(c*ph+g.PadH+h)*pw+g.PadW:], img[(c*g.InH+h)*g.InW:][:g.InW])
		}
	}
}

// packBIm2col packs every NR-column panel of the implicit column matrix
// of one CHW image, logical B (k×n): k taps by n positions, or — with
// transposed set, the dW = dy @ im2col(x)ᵀ orientation of the conv
// backward pass — k positions by n taps.
func packBIm2col(bp, img []float64, g ConvGeom, transposed bool) {
	rows, lanes, size := paddedGrids(g)
	if transposed {
		rows, lanes = lanes, rows
	}
	padded := packPool.GetSlice(2 * size)
	padImage(padded, img, g)
	packGather(bp, padded, rows, lanes, size)
	packPool.PutSlice(padded)
}

// packGather packs every NR-column panel of the (rows × lanes) matrix
// B[r][l] = src[offset of row r + offset of lane l]. Lanes past the
// last column read from zeroOff, which the caller guarantees is
// followed by zeros for as far as any row offset reaches.
func packGather(bp, src []float64, rows, lanes offsetGrid, zeroOff int) {
	k, n := rows.size(), lanes.size()
	lane := gridWalker{og: lanes}
	for j0 := 0; j0 < n; j0 += gemmNR {
		var l [gemmNR]int
		for jr := range l {
			l[jr] = zeroOff
			if j0+jr < n {
				l[jr] = lane.next()
			}
		}
		l0, l1, l2, l3, l4, l5, l6, l7 := l[0], l[1], l[2], l[3], l[4], l[5], l[6], l[7]
		dst := bp[j0*k:][:k*gemmNR]
		row := gridWalker{og: rows}
		for r := 0; r < k; r++ {
			s := src[row.next():]
			d := dst[r*gemmNR:][:gemmNR]
			d[0] = s[l0]
			d[1] = s[l1]
			d[2] = s[l2]
			d[3] = s[l3]
			d[4] = s[l4]
			d[5] = s[l5]
			d[6] = s[l6]
			d[7] = s[l7]
		}
	}
}
