package tensor

import (
	"fmt"

	"gsfl/internal/parallel"
)

// ConvGeom describes the geometry of a 2-D convolution or pooling window.
// Inputs are NCHW: (batch, channels, height, width).
type ConvGeom struct {
	InC, InH, InW    int // input channels / height / width
	KH, KW           int // kernel height / width
	StrideH, StrideW int // strides
	PadH, PadW       int // symmetric zero padding
}

// OutH returns the output height for this geometry.
func (g ConvGeom) OutH() int { return (g.InH+2*g.PadH-g.KH)/g.StrideH + 1 }

// OutW returns the output width for this geometry.
func (g ConvGeom) OutW() int { return (g.InW+2*g.PadW-g.KW)/g.StrideW + 1 }

// ColSize returns the element count of one image's column matrix,
// (InC*KH*KW) * (OutH*OutW).
func (g ConvGeom) ColSize() int { return g.InC * g.KH * g.KW * g.OutH() * g.OutW() }

// ImageSize returns the element count of one CHW image.
func (g ConvGeom) ImageSize() int { return g.InC * g.InH * g.InW }

// Validate returns an error when the geometry cannot produce an output.
func (g ConvGeom) Validate() error {
	if g.InC <= 0 || g.InH <= 0 || g.InW <= 0 {
		return fmt.Errorf("tensor: conv geometry has non-positive input dims %+v", g)
	}
	if g.KH <= 0 || g.KW <= 0 {
		return fmt.Errorf("tensor: conv geometry has non-positive kernel %+v", g)
	}
	if g.StrideH <= 0 || g.StrideW <= 0 {
		return fmt.Errorf("tensor: conv geometry has non-positive stride %+v", g)
	}
	if g.PadH < 0 || g.PadW < 0 {
		return fmt.Errorf("tensor: conv geometry has negative padding %+v", g)
	}
	// Tested on its own, not through OutH/OutW: integer division rounds
	// a small negative numerator up to zero, so a kernel that overhangs
	// the padded input by less than the stride would still report one
	// output position.
	if g.KH > g.InH+2*g.PadH || g.KW > g.InW+2*g.PadW {
		return fmt.Errorf("tensor: conv kernel larger than the padded input %+v", g)
	}
	return nil
}

// grainChannels returns how many channels one parallel chunk must cover
// for col2im, keeping chunks above the serial-work floor.
func grainChannels(g ConvGeom) int {
	perChannel := g.KH * g.KW * g.OutH() * g.OutW()
	if perChannel <= 0 {
		return 1
	}
	grain := minChunkFLOPs / perChannel
	if grain < 1 {
		grain = 1
	}
	return grain
}

// Col2ImBatch scatter-adds n column matrices — each (C*KH*KW) x
// (OutH*OutW), the layout the implicit-GEMM conv kernels index — back
// into n CHW images (flat in dst). dst is NOT zeroed first: overlapping
// windows accumulate, which is exactly the gradient semantics the conv
// backward pass needs.
//
// (sample, channel) units are partitioned across the worker pool:
// channel c of image i only ever scatter-adds into its own dst plane,
// and within a channel the accumulation order matches the serial loop,
// so results are bit-identical to a single-worker run.
func Col2ImBatch(dst, src []float64, n int, g ConvGeom) {
	colSize, imgSize := g.ColSize(), g.ImageSize()
	if want := n * colSize; len(src) != want {
		panic(fmt.Sprintf("tensor: Col2ImBatch src size %d, want %d", len(src), want))
	}
	if want := n * imgSize; len(dst) != want {
		panic(fmt.Sprintf("tensor: Col2ImBatch dst size %d, want %d", len(dst), want))
	}
	if grain := grainChannels(g); parallel.Inline(n*g.InC, grain) {
		col2imUnits(dst, src, g, 0, n*g.InC)
	} else {
		parallel.For(n*g.InC, grain, func(lo, hi int) { col2imUnits(dst, src, g, lo, hi) })
	}
}

// tapRange returns the half-open interval [lo, hi) of output
// coordinates o in [0, out) whose input coordinate o*stride-pad+tap
// lies in [0, in). The interval is empty (lo == hi) when the tap only
// ever sees padding.
func tapRange(tap, pad, stride, in, out int) (lo, hi int) {
	if first := pad - tap; first > 0 {
		lo = (first + stride - 1) / stride
	}
	hi = out
	if last := in - 1 + pad - tap; last < 0 {
		hi = 0
	} else if h := last/stride + 1; h < hi {
		hi = h
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// col2imUnits scatter-adds (sample, channel) units [lo, hi) — unit u is
// channel u%InC of image u/InC — each into the image plane it owns. The
// bounds tests of the im2col index map run once per kernel tap, not per
// element: on each axis the output coordinates a tap maps inside the
// image form one interval (tapRange), so per (tap, output row) one run
// of column entries is added onto one run of pixels at a fixed step.
// Taps, rows and positions are visited in ascending order, so every
// pixel accumulates its terms in the order the per-element scatter did.
func col2imUnits(dst, src []float64, g ConvGeom, lo, hi int) {
	outH, outW := g.OutH(), g.OutW()
	cols := outH * outW
	plane := g.InH * g.InW
	chanCols := g.KH * g.KW * cols
	sw := g.StrideW
	for u := lo; u < hi; u++ {
		// Images are InC planes and column matrices InC channel blocks,
		// so unit u's plane and block sit at u times their size.
		dplane := dst[u*plane : (u+1)*plane]
		scol := src[u*chanCols : (u+1)*chanCols]
		for kh := 0; kh < g.KH; kh++ {
			ohLo, ohHi := tapRange(kh, g.PadH, g.StrideH, g.InH, outH)
			for kw := 0; kw < g.KW; kw++ {
				owLo, owHi := tapRange(kw, g.PadW, sw, g.InW, outW)
				if owLo == owHi {
					continue // the tap only sees padding: no pixel to address
				}
				srow := scol[(kh*g.KW+kw)*cols:][:cols]
				for oh := ohLo; oh < ohHi; oh++ {
					run := srow[oh*outW+owLo : oh*outW+owHi]
					pix := dplane[(oh*g.StrideH-g.PadH+kh)*g.InW+owLo*sw-g.PadW+kw:]
					for t, v := range run {
						pix[t*sw] += v
					}
				}
			}
		}
	}
}
