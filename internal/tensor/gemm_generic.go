package tensor

// rowKernExactGeneric is the portable micro-kernel (see rowKernFunc):
// one MR×NR tile, ascending-k, one accumulator per element, multiply
// rounded separately from add, row r's k-th value read in place at
// x[rows[r]+koff[kk]] and the tile stored transposed — or, with add,
// added onto what c holds. It defines the bit-exact reference semantics
// of the default numeric mode — the amd64 exact kernels perform the
// identical operation sequence per element and therefore produce
// identical bits. Where there is no vector kernel (off amd64, or in a
// purego build) it also serves as the "fast" kernel: there is nothing
// faster to reassociate for.
func rowKernExactGeneric(x []float64, rows, koff []int, bp, c []float64, ldc int, add bool) {
	var acc [gemmMR * gemmNR]float64
	rows = rows[:gemmMR]
	for kk, off := range koff {
		brow := bp[kk*gemmNR : kk*gemmNR+gemmNR]
		for r, row := range rows {
			xv := x[row+off]
			crow := acc[r*gemmNR : r*gemmNR+gemmNR]
			for j, bv := range brow {
				// The conversion is the spec's way to forbid fusing the
				// multiply into the add, which arm64 would otherwise do.
				crow[j] += float64(bv * xv)
			}
		}
	}
	for j := 0; j < gemmNR; j++ {
		col := c[j*ldc : j*ldc+gemmMR]
		if add {
			for r := range col {
				col[r] += acc[r*gemmNR+j]
			}
			continue
		}
		for r := range col {
			col[r] = acc[r*gemmNR+j]
		}
	}
}
