package tensor

import (
	"fmt"
	"math/rand"
	"testing"

	"gsfl/internal/parallel"
	"gsfl/internal/testutil"
)

// Tests for the three routines that walk the im2col index map — the two
// row-indirect convolution products and the col2im scatter — against
// per-element references that test every pixel's bounds one at a time.

// col2imRef is the per-element scatter Col2ImBatch must reproduce bit
// for bit: one image, every column entry bounds-tested on its own, rows
// (c,kh,kw) and positions (oh,ow) visited in ascending order.
func col2imRef(dst, cols []float64, g ConvGeom) {
	outH, outW := g.OutH(), g.OutW()
	for c := 0; c < g.InC; c++ {
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				row := (c*g.KH+kh)*g.KW + kw
				for oh := 0; oh < outH; oh++ {
					for ow := 0; ow < outW; ow++ {
						ih, iw := oh*g.StrideH-g.PadH+kh, ow*g.StrideW-g.PadW+kw
						if ih >= 0 && ih < g.InH && iw >= 0 && iw < g.InW {
							dst[(c*g.InH+ih)*g.InW+iw] += cols[(row*outH+oh)*outW+ow]
						}
					}
				}
			}
		}
	}
}

// convPackCase holds one geometry's operands and reference results.
type convPackCase struct {
	g                ConvGeom
	outC, batch      int
	w, dy            *Tensor   // (outC×colRows), (outC×spatial)
	wantOut, wantDW  []float64 // products over the first of imgs
	cols, imgs, want []float64 // col2im: batch column matrices onto batch images
}

func newConvPackCase(rng *rand.Rand, g ConvGeom, outC, batch int) *convPackCase {
	colRows, spatial := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
	c := &convPackCase{g: g, outC: outC, batch: batch, w: New(outC, colRows), dy: New(outC, spatial)}
	c.imgs = make([]float64, batch*g.ImageSize())
	c.cols = make([]float64, batch*g.ColSize())
	fillMixed(rng, c.imgs)
	fillMixed(rng, c.cols)
	fillMixed(rng, c.w.Data)
	fillMixed(rng, c.dy.Data)

	ref := make([]float64, g.ColSize())
	im2colRef(ref, c.imgs[:g.ImageSize()], g)
	c.wantOut = make([]float64, outC*spatial)
	naiveMatMul(c.wantOut, c.w.Data, ref, outC, colRows, spatial)
	c.wantDW = make([]float64, outC*colRows)
	naiveTransB(c.wantDW, c.dy.Data, ref, outC, spatial, colRows)

	// The scatter accumulates onto whatever dst holds, so start from the
	// (non-zero) images rather than from zeros.
	c.want = append([]float64(nil), c.imgs...)
	for i := 0; i < batch; i++ {
		col2imRef(c.want[i*g.ImageSize():(i+1)*g.ImageSize()], c.cols[i*g.ColSize():(i+1)*g.ColSize()], g)
	}
	return c
}

// check runs the three production routines at the ambient worker count.
func (c *convPackCase) check(t *testing.T) {
	t.Helper()
	g := c.g
	defer func() { // requireBitEqual stops the test; say where it stopped
		if t.Failed() {
			t.Logf("failing case: %+v outC=%d batch=%d workers=%d", g, c.outC, c.batch, parallel.Workers())
		}
	}()
	colRows, spatial := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
	img := c.imgs[:g.ImageSize()]
	got := ConvMatMulInto(New(c.outC, spatial), c.w, img, g)
	requireBitEqual(t, "ConvMatMulInto", got.Data, c.wantOut, c.outC, colRows, spatial)
	gotDW := ConvMatMulTransBInto(New(c.outC, colRows), c.dy, img, g)
	requireBitEqual(t, "ConvMatMulTransBInto", gotDW.Data, c.wantDW, c.outC, spatial, colRows)
	dst := append([]float64(nil), c.imgs...)
	Col2ImBatch(dst, c.cols, c.batch, g)
	requireBitEqual(t, "Col2ImBatch", dst, c.want, c.batch, colRows, spatial)
}

// checkBatch runs the two batch calls over every image of the case, so
// one pack of w is read by all of them, against per-image naive
// references: the forward product plus a bias, and the column gradients
// wᵀ @ dy_i. rng draws the bias and the per-image gradients.
func (c *convPackCase) checkBatch(t *testing.T, rng *rand.Rand) {
	t.Helper()
	g := c.g
	colRows, spatial := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
	bias := New(c.outC)
	dys := New(c.batch, c.outC, spatial)
	fillMixed(rng, bias.Data)
	fillMixed(rng, dys.Data)
	wantOut := make([]float64, c.batch*c.outC*spatial)
	wantCols := make([]float64, c.batch*colRows*spatial)
	cols := make([]float64, g.ColSize())
	for i := 0; i < c.batch; i++ {
		im2colRef(cols, c.imgs[i*g.ImageSize():(i+1)*g.ImageSize()], g)
		out := wantOut[i*c.outC*spatial : (i+1)*c.outC*spatial]
		naiveMatMul(out, c.w.Data, cols, c.outC, colRows, spatial)
		for j := range out {
			out[j] += bias.Data[j/spatial]
		}
		naiveTransA(wantCols[i*colRows*spatial:], c.w.Data, dys.Data[i*c.outC*spatial:], colRows, c.outC, spatial)
	}
	x := FromSlice(c.imgs, c.batch, g.InC, g.InH, g.InW)
	for _, w := range convPackWorkers {
		parallel.SetWorkers(w)
		got := ConvForwardBatchInto(New(c.batch, c.outC, spatial), c.w, bias, x, g)
		requireBitEqual(t, fmt.Sprintf("workers=%d ConvForwardBatchInto", w), got.Data, wantOut, c.outC, colRows, spatial)
		gotCols := ConvColGradBatchInto(New(c.batch, colRows, spatial), c.w, dys, g)
		requireBitEqual(t, fmt.Sprintf("workers=%d ConvColGradBatchInto", w), gotCols.Data, wantCols, colRows, c.outC, spatial)
	}
}

var convPackWorkers = []int{1, 2, 8}

// TestConvPackGeometrySweep checks every geometry with inputs up to
// 10×10, non-square kernels up to 4×4, strides up to 3 on either axis
// and paddings up to the kernel size (so whole taps see only padding):
// InC*KH*KW and OutH*OutW both range from 1 to well past MR, and outC
// is 5, so row blocks come out exactly full and ragged in both
// orientations and the one panel always ragged. These shapes are too
// small to fork, so under the race detector (ten times slower, nothing
// concurrent to watch) and -short one geometry in eight is checked;
// TestConvPackForkJoin is the concurrent case.
func TestConvPackGeometrySweep(t *testing.T) {
	t.Cleanup(func() { parallel.SetWorkers(0) })
	rng := rand.New(rand.NewSource(21))
	thin := testutil.RaceEnabled || testing.Short()
	count := 0
	for inH := 1; inH <= 10; inH++ {
		for inW := 1; inW <= 10; inW++ {
			for kh := 1; kh <= 4; kh++ {
				for kw := 1; kw <= 4; kw++ {
					for sh := 1; sh <= 3; sh++ {
						for sw := 1; sw <= 3; sw++ {
							for ph := 0; ph <= kh; ph++ {
								for pw := 0; pw <= kw; pw++ {
									g := ConvGeom{InC: 1 + count%3, InH: inH, InW: inW, KH: kh, KW: kw,
										StrideH: sh, StrideW: sw, PadH: ph, PadW: pw}
									if g.Validate() != nil {
										continue
									}
									count++
									if thin && count%8 != 0 {
										continue
									}
									c := newConvPackCase(rng, g, 5, 2)
									for _, w := range convPackWorkers {
										parallel.SetWorkers(w)
										c.check(t)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d geometries", count)
}

// forkingConvOutC returns an outC, ragged against NR, at which both conv
// products over g are at least four chunks of minChunkFLOPs, and fails
// the test unless both fork once there are two workers. The products
// partition MR-row blocks of positions (forward) or taps (dW), so g needs
// at least four blocks of each.
func forkingConvOutC(t *testing.T, g ConvGeom) int {
	t.Helper()
	taps, pos := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
	outC := 4*minChunkFLOPs/(2*taps*pos) + 3
	parallel.SetWorkers(2)
	defer parallel.SetWorkers(0)
	blocks := func(rows int) int { return (rows + gemmMR - 1) / gemmMR }
	if parallel.Inline(blocks(pos), grainRows(2*taps*outC*gemmMR)) ||
		parallel.Inline(blocks(taps), grainRows(2*pos*outC*gemmMR)) {
		t.Fatalf("%+v outC=%d does not fork at a %d-FLOP floor", g, outC, minChunkFLOPs)
	}
	return outC
}

// TestConvPackForkJoin repeats the check where the worker pool actually
// forks: on the geometries with enough row blocks for forkingConvOutC,
// and with a batch that is four chunks of the scatter's (sample,
// channel) units.
func TestConvPackForkJoin(t *testing.T) {
	t.Cleanup(func() { parallel.SetWorkers(0) })
	rng := rand.New(rand.NewSource(22))
	ran := 0
	for _, g := range append([]ConvGeom{convTestGeom()}, convGeoms...) {
		if min(g.InC*g.KH*g.KW, g.OutH()*g.OutW()) < 4*gemmMR {
			continue
		}
		ran++
		outC := forkingConvOutC(t, g)
		batch := 4*grainChannels(g)/g.InC + 1
		parallel.SetWorkers(2)
		if parallel.Inline(batch*g.InC, grainChannels(g)) {
			t.Fatalf("%+v batch=%d: col2im does not fork at a %d-FLOP floor", g, batch, minChunkFLOPs)
		}
		c := newConvPackCase(rng, g, outC, batch)
		for _, w := range convPackWorkers {
			parallel.SetWorkers(w)
			c.check(t)
		}
	}
	if ran < 3 {
		t.Fatalf("only %d geometries have four row blocks in both orientations", ran)
	}
}

// FuzzConvPack drives the same check with fuzzed geometries, seeded
// with the sweep's corners: 1×1 everything, padding at and past the
// kernel size, strides that skip most of the input, unequal axes, and
// tap/position counts on both sides of NR. It also runs the batch calls
// over the case's three images, each reading the one pack of w.
func FuzzConvPack(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(1), uint8(1), uint8(1), uint8(1), uint8(1), uint8(1), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(1), uint8(1), uint8(4), uint8(4), uint8(3), uint8(3), uint8(4), uint8(4))
	f.Add(int64(3), uint8(3), uint8(16), uint8(16), uint8(3), uint8(3), uint8(1), uint8(1), uint8(1), uint8(1))
	f.Add(int64(4), uint8(8), uint8(8), uint8(8), uint8(3), uint8(3), uint8(1), uint8(1), uint8(1), uint8(1))
	f.Add(int64(5), uint8(2), uint8(10), uint8(3), uint8(1), uint8(4), uint8(3), uint8(1), uint8(0), uint8(5))
	f.Add(int64(6), uint8(1), uint8(2), uint8(9), uint8(4), uint8(2), uint8(1), uint8(3), uint8(6), uint8(0))
	f.Add(int64(7), uint8(5), uint8(17), uint8(13), uint8(3), uint8(3), uint8(2), uint8(1), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, inC, inH, inW, kh, kw, sh, sw, ph, pw uint8) {
		g := ConvGeom{
			InC: int(inC)%8 + 1, InH: int(inH)%20 + 1, InW: int(inW)%20 + 1,
			KH: int(kh)%5 + 1, KW: int(kw)%5 + 1,
			StrideH: int(sh)%4 + 1, StrideW: int(sw)%4 + 1,
			PadH: int(ph) % 7, PadW: int(pw) % 7,
		}
		if g.Validate() != nil {
			return
		}
		t.Cleanup(func() { parallel.SetWorkers(0) })
		rng := rand.New(rand.NewSource(seed))
		c := newConvPackCase(rng, g, int(seed&7)+1, 3)
		for _, w := range convPackWorkers {
			parallel.SetWorkers(w)
			c.check(t)
		}
		c.checkBatch(t, rng)
	})
}
