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
	if g.OutH() <= 0 || g.OutW() <= 0 {
		return fmt.Errorf("tensor: conv geometry produces empty output %+v", g)
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
		for u := 0; u < n*g.InC; u++ {
			i, c := u/g.InC, u%g.InC
			col2imChannel(dst[i*imgSize:(i+1)*imgSize], src[i*colSize:(i+1)*colSize], g, c)
		}
	} else {
		parallel.For(n*g.InC, grain, func(lo, hi int) {
			for u := lo; u < hi; u++ {
				i, c := u/g.InC, u%g.InC
				col2imChannel(dst[i*imgSize:(i+1)*imgSize], src[i*colSize:(i+1)*colSize], g, c)
			}
		})
	}
}

// col2imChannel scatter-adds channel c's rows of one column matrix into
// the image plane it owns.
func col2imChannel(dst, src []float64, g ConvGeom, c int) {
	outH, outW := g.OutH(), g.OutW()
	cols := outH * outW
	chanBase := c * g.InH * g.InW
	row := c * g.KH * g.KW
	for kh := 0; kh < g.KH; kh++ {
		for kw := 0; kw < g.KW; kw++ {
			srow := src[row*cols : (row+1)*cols]
			row++
			si := 0
			for oh := 0; oh < outH; oh++ {
				ih := oh*g.StrideH - g.PadH + kh
				if ih < 0 || ih >= g.InH {
					si += outW
					continue
				}
				rowBase := chanBase + ih*g.InW
				for ow := 0; ow < outW; ow++ {
					iw := ow*g.StrideW - g.PadW + kw
					if iw >= 0 && iw < g.InW {
						dst[rowBase+iw] += srow[si]
					}
					si++
				}
			}
		}
	}
}
