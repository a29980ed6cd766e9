package tensor

// ukernExactGeneric is the portable micro-kernel: one MR×NR tile,
// ascending-k, one accumulator per element, multiply rounded separately
// from add. It defines the bit-exact reference semantics of the default
// numeric mode — the amd64 AVX2 exact kernel performs the identical
// operation sequence per element and therefore produces identical bits.
// On platforms without a vector kernel it also serves as the "fast"
// kernel (there is nothing faster to reassociate for).
func ukernExactGeneric(k int, ap, bp, c []float64, ldc int) {
	var acc [gemmMR * gemmNR]float64
	for kk := 0; kk < k; kk++ {
		brow := bp[kk*gemmNR : kk*gemmNR+gemmNR]
		arow := ap[kk*gemmMR : kk*gemmMR+gemmMR]
		for r := 0; r < gemmMR; r++ {
			av := arow[r]
			crow := acc[r*gemmNR : r*gemmNR+gemmNR]
			for j, bv := range brow {
				// The conversion is the spec's way to forbid fusing the
				// multiply into the add, which arm64 would otherwise do.
				crow[j] += float64(av * bv)
			}
		}
	}
	for r := 0; r < gemmMR; r++ {
		copy(c[r*ldc:r*ldc+gemmNR], acc[r*gemmNR:r*gemmNR+gemmNR])
	}
}

// rowKernExactGeneric is the portable row-indirect micro-kernel (see
// rowKernFunc): the same tile, accumulators and rounding as
// ukernExactGeneric, with row r's k-th value read in place at
// x[rows[r]+koff[kk]] and the tile stored transposed.
func rowKernExactGeneric(x []float64, rows, koff []int, bp, c []float64, ldc int) {
	var acc [gemmMR * gemmNR]float64
	rows = rows[:gemmMR]
	for kk, off := range koff {
		brow := bp[kk*gemmNR : kk*gemmNR+gemmNR]
		for r, row := range rows {
			xv := x[row+off]
			crow := acc[r*gemmNR : r*gemmNR+gemmNR]
			for j, bv := range brow {
				crow[j] += float64(bv * xv)
			}
		}
	}
	for j := 0; j < gemmNR; j++ {
		col := c[j*ldc : j*ldc+gemmMR]
		for r := range col {
			col[r] = acc[r*gemmNR+j]
		}
	}
}
