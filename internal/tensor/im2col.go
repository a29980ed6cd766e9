package tensor

import "fmt"

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
