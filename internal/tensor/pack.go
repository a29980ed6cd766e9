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
// the columns.

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

// packBIm2col packs every NR-column panel of the implicit column matrix
// of one CHW image: logical B is (k×n) with k = InC*KH*KW column-matrix
// rows and n = OutH*OutW spatial positions, B[kk][j] being pixel
// (c,ih,iw) under the im2col index map (ih = oh*StrideH-PadH+kh, iw
// likewise; zero outside the padded input). The column matrix itself is never stored.
func packBIm2col(bp, img []float64, g ConvGeom) {
	outH, outW := g.OutH(), g.OutW()
	n := outH * outW
	k := g.InC * g.KH * g.KW
	np := (n + gemmNR - 1) / gemmNR
	for p := 0; p < np; p++ {
		j0 := p * gemmNR
		jb := n - j0
		if jb > gemmNR {
			jb = gemmNR
		}
		off := p * k * gemmNR
		kk := 0
		for c := 0; c < g.InC; c++ {
			chanBase := c * g.InH * g.InW
			for kh := 0; kh < g.KH; kh++ {
				for kw := 0; kw < g.KW; kw++ {
					dst := bp[off+kk*gemmNR : off+kk*gemmNR+gemmNR]
					oh, ow := (j0)/outW, (j0)%outW
					for jr := 0; jr < jb; jr++ {
						ih := oh*g.StrideH - g.PadH + kh
						iw := ow*g.StrideW - g.PadW + kw
						if ih < 0 || ih >= g.InH || iw < 0 || iw >= g.InW {
							dst[jr] = 0
						} else {
							dst[jr] = img[chanBase+ih*g.InW+iw]
						}
						ow++
						if ow == outW {
							ow = 0
							oh++
						}
					}
					for jr := jb; jr < gemmNR; jr++ {
						dst[jr] = 0
					}
					kk++
				}
			}
		}
	}
}

// packBIm2colT packs every NR-column panel of the TRANSPOSED implicit
// column matrix: logical B is (k×n) with k = OutH*OutW spatial positions
// and n = InC*KH*KW column-matrix rows, B[kk][j] = colmat[j][kk]. This
// is the dW = dy @ im2col(x)ᵀ orientation of the conv backward pass.
func packBIm2colT(bp, img []float64, g ConvGeom) {
	outH, outW := g.OutH(), g.OutW()
	k := outH * outW
	n := g.InC * g.KH * g.KW
	np := (n + gemmNR - 1) / gemmNR
	for p := 0; p < np; p++ {
		j0 := p * gemmNR
		jb := n - j0
		if jb > gemmNR {
			jb = gemmNR
		}
		off := p * k * gemmNR
		for jr := 0; jr < jb; jr++ {
			// Column-matrix row j0+jr decomposes into (channel, kh, kw).
			r := j0 + jr
			c := r / (g.KH * g.KW)
			kh := (r / g.KW) % g.KH
			kw := r % g.KW
			chanBase := c * g.InH * g.InW
			kk := 0
			for oh := 0; oh < outH; oh++ {
				ih := oh*g.StrideH - g.PadH + kh
				if ih < 0 || ih >= g.InH {
					for ow := 0; ow < outW; ow++ {
						bp[off+kk*gemmNR+jr] = 0
						kk++
					}
					continue
				}
				rowBase := chanBase + ih*g.InW
				for ow := 0; ow < outW; ow++ {
					iw := ow*g.StrideW - g.PadW + kw
					if iw < 0 || iw >= g.InW {
						bp[off+kk*gemmNR+jr] = 0
					} else {
						bp[off+kk*gemmNR+jr] = img[rowBase+iw]
					}
					kk++
				}
			}
		}
		for jr := jb; jr < gemmNR; jr++ {
			for kk := 0; kk < k; kk++ {
				bp[off+kk*gemmNR+jr] = 0
			}
		}
	}
}
