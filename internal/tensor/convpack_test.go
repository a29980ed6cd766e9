package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gsfl/internal/parallel"
	"gsfl/internal/testutil"
)

// Tests for the routines that walk the im2col index map — the three
// row-indirect convolution products — against per-element references
// that test every pixel's bounds one at a time.

// col2imRef is the per-element scatter that defines the input gradient's
// summation order: one image, every column entry bounds-tested on its
// own, rows (c,kh,kw) and positions (oh,ow) visited in ascending order,
// each added onto what dst holds. ConvInputGradBatchInto must reproduce
// it, onto a zeroed image, bit for bit.
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
	g               ConvGeom
	outC, batch     int
	w, dy, dys      *Tensor   // (outC×colRows), (outC×spatial), batch of dy
	imgs            []float64 // batch images
	wantOut, wantDW []float64 // products over the first of imgs
	wantDX          []float64 // input gradients of dys
}

func newConvPackCase(rng *rand.Rand, g ConvGeom, outC, batch int) *convPackCase {
	colRows, spatial := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
	c := &convPackCase{g: g, outC: outC, batch: batch,
		w: New(outC, colRows), dy: New(outC, spatial), dys: New(batch, outC, spatial)}
	c.imgs = make([]float64, batch*g.ImageSize())
	fillMixed(rng, c.imgs)
	fillMixed(rng, c.w.Data)
	fillMixed(rng, c.dy.Data)
	fillMixed(rng, c.dys.Data)

	ref := make([]float64, g.InC*g.KH*g.KW*g.OutH()*g.OutW())
	im2colRef(ref, c.imgs[:g.ImageSize()], g)
	c.wantOut = make([]float64, outC*spatial)
	naiveMatMul(c.wantOut, c.w.Data, ref, outC, colRows, spatial)
	c.wantDW = make([]float64, outC*colRows)
	naiveTransB(c.wantDW, c.dy.Data, ref, outC, spatial, colRows)
	c.wantDX = inputGradRef(c.w, c.dys, g)
	return c
}

// inputGradRef is the input gradient's definition over a batch of
// output gradients dys: per image, the column gradients wᵀ@dy_i by
// naiveTransA, scattered onto a zeroed image by col2imRef.
func inputGradRef(w, dys *Tensor, g ConvGeom) []float64 {
	outC, colRows, spatial := w.shape[0], g.InC*g.KH*g.KW, g.OutH()*g.OutW()
	n := dys.Size() / (outC * spatial)
	dx, cols := make([]float64, n*g.ImageSize()), make([]float64, g.InC*g.KH*g.KW*g.OutH()*g.OutW())
	for i := 0; i < n; i++ {
		naiveTransA(cols, w.Data, dys.Data[i*outC*spatial:], colRows, outC, spatial)
		col2imRef(dx[i*g.ImageSize():], cols, g)
	}
	return dx
}

// weightGradRef is the weight gradient's definition over a batch from
// the naive references: per image, naiveTransB of dy_i against the
// columns by im2colRef, added onto a zeroed dw, and dy_i's row sums, each
// a serial ascending sum from +0, added onto a zeroed db, images in
// ascending order.
func weightGradRef(dys *Tensor, imgs []float64, g ConvGeom, outC int) (dw, db []float64) {
	taps, spatial := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
	dw, db, one := make([]float64, outC*taps), make([]float64, outC), make([]float64, outC*taps)
	cols := make([]float64, g.InC*g.KH*g.KW*g.OutH()*g.OutW())
	for i := 0; i < dys.Size()/(outC*spatial); i++ {
		dy := dys.Data[i*outC*spatial:][:outC*spatial]
		im2colRef(cols, imgs[i*g.ImageSize():][:g.ImageSize()], g)
		naiveTransB(one, dy, cols, outC, spatial, taps)
		for j, v := range one {
			dw[j] += v
		}
		for oc := range db {
			s := 0.0
			for _, v := range dy[oc*spatial:][:spatial] {
				s += v
			}
			db[oc] += s
		}
	}
	return dw, db
}

// inputGradInto runs ConvInputGradBatchInto on a fresh dx full of NaN,
// so that an element it fails to write cannot pass for a zero.
func inputGradInto(w, dys *Tensor, g ConvGeom) []float64 {
	n := dys.Size() / (w.shape[0] * g.OutH() * g.OutW())
	return ConvInputGradBatchInto(Full(math.NaN(), n, g.InC, g.InH, g.InW), w, dys, g).Data
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
	requireBitEqual(t, "ConvInputGradBatchInto", inputGradInto(c.w, c.dys, g), c.wantDX, c.batch, c.outC, spatial)
}

// checkBatch runs the three batch calls over every image of the case —
// the forward pass and the input gradient reading one pack of w, the
// weight gradient one product over the batch — against per-image naive
// references: the forward product plus a bias, and the input and
// parameter gradients of output gradients holding signed zeros,
// subnormals, infinities and NaNs (fillHostile). rng draws the bias and
// the gradients.
func (c *convPackCase) checkBatch(t *testing.T, rng *rand.Rand) {
	t.Helper()
	g := c.g
	colRows, spatial := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
	bias := New(c.outC)
	dys := New(c.batch, c.outC, spatial)
	fillMixed(rng, bias.Data)
	fillHostile(rng, dys.Data)
	wantOut := make([]float64, c.batch*c.outC*spatial)
	wantDX := inputGradRef(c.w, dys, g)
	wantDW, wantDB := weightGradRef(dys, c.imgs, g, c.outC)
	cols := make([]float64, g.InC*g.KH*g.KW*g.OutH()*g.OutW())
	for i := 0; i < c.batch; i++ {
		im2colRef(cols, c.imgs[i*g.ImageSize():(i+1)*g.ImageSize()], g)
		out := wantOut[i*c.outC*spatial : (i+1)*c.outC*spatial]
		naiveMatMul(out, c.w.Data, cols, c.outC, colRows, spatial)
		for j := range out {
			out[j] += bias.Data[j/spatial]
		}
	}
	x := FromSlice(c.imgs, c.batch, g.InC, g.InH, g.InW)
	for _, w := range convPackWorkers {
		parallel.SetWorkers(w)
		got := ConvForwardBatchInto(New(c.batch, c.outC, spatial), c.w, bias, x, g)
		requireBitEqual(t, fmt.Sprintf("workers=%d ConvForwardBatchInto", w), got.Data, wantOut, c.outC, colRows, spatial)
		requireSameFloats(t, fmt.Sprintf("workers=%d ConvInputGradBatchInto, non-finite dy, %+v outC=%d", w, g, c.outC),
			inputGradInto(c.w, dys, g), wantDX)
		gotDW, gotDB := weightGradInto(dys, c.imgs, g, c.outC)
		what := fmt.Sprintf("workers=%d ConvWeightGradBatchInto, non-finite dy, %+v outC=%d", w, g, c.outC)
		requireSameFloats(t, what+" dw", gotDW, wantDW)
		requireSameFloats(t, what+" db", gotDB, wantDB)
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

// forkingConvOutC returns an outC, ragged against NR, at which the three
// conv products over g are at least four chunks of minChunkFLOPs, and
// fails the test unless all three fork once there are two workers. The
// products partition MR-row blocks of positions (forward), taps (dW) or
// input pixels (input gradient), so g needs at least four blocks of
// each.
func forkingConvOutC(t *testing.T, g ConvGeom) int {
	t.Helper()
	taps, pos := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
	outC := 4*minChunkFLOPs/(2*taps*pos) + 3
	parallel.SetWorkers(2)
	defer parallel.SetWorkers(0)
	blocks := func(rows int) int { return (rows + gemmMR - 1) / gemmMR }
	if parallel.Inline(blocks(pos), grainRows(2*taps*outC*gemmMR)) ||
		parallel.Inline(blocks(taps), grainRows(2*pos*outC*gemmMR)) ||
		parallel.Inline(blocks(g.InH*g.InW), grainRows(2*g.KH*g.KW*outC*g.InC*gemmMR)) {
		t.Fatalf("%+v outC=%d does not fork at a %d-FLOP floor", g, outC, minChunkFLOPs)
	}
	return outC
}

// TestConvPackForkJoin repeats the check where the worker pool actually
// forks: on the geometries with enough row blocks for forkingConvOutC,
// with a batch of three images for the input gradient's images to fork
// across as well.
func TestConvPackForkJoin(t *testing.T) {
	t.Cleanup(func() { parallel.SetWorkers(0) })
	rng := rand.New(rand.NewSource(22))
	ran := 0
	for _, g := range append([]ConvGeom{convTestGeom()}, convGeoms...) {
		if min(g.InC*g.KH*g.KW, g.OutH()*g.OutW()) < 4*gemmMR {
			continue
		}
		ran++
		c := newConvPackCase(rng, g, forkingConvOutC(t, g), 3)
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
// tap/position counts on both sides of NR. It also runs the three batch
// calls over the case's three images, the gradients' on output
// gradients with non-finite entries.
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

// TestConvInputGradMatchesCol2Im holds ConvInputGradBatchInto to its
// definition — per image, the column gradients wᵀ@dy_i by
// MatMulTransAInto, scattered onto a zeroed image by col2imRef — over
// InC 1, 3, 8, 12 and 17 (a ragged, a full, and a full-and-ragged
// panel), 3×3, 5×7 and 8×8 images, kernels 1, 3 and 5, strides 1–3 and
// paddings 0, 1, K−1 and K (where the canvas crops output-gradient
// entries that reach no pixel), batches 1 and 5, and workers 1, 2 and 8.
// A finite dy must give the same bits; one holding signed zeros,
// subnormals, infinities and NaNs (fillHostile) too, NaN payloads aside.
func TestConvInputGradMatchesCol2Im(t *testing.T) {
	t.Cleanup(func() { parallel.SetWorkers(0) })
	rng := rand.New(rand.NewSource(23))
	count := 0
	for _, inC := range []int{1, 3, 8, 12, 17} {
		for _, hw := range [][2]int{{3, 3}, {5, 7}, {8, 8}} {
			for _, k := range []int{1, 3, 5} {
				pads := []int{0, 1, k - 1, k}
				for _, stride := range []int{1, 2, 3} {
					for i, pad := range pads {
						g := ConvGeom{InC: inC, InH: hw[0], InW: hw[1], KH: k, KW: k,
							StrideH: stride, StrideW: stride, PadH: pad, PadW: pad}
						if slices.Index(pads, pad) < i || g.Validate() != nil {
							continue
						}
						count++
						outC := []int{1, 5, 16}[count%3]
						for _, batch := range []int{1, 5} {
							checkInputGradMatchesCol2Im(t, rng, g, outC, batch)
						}
					}
				}
			}
		}
	}
	t.Logf("%d geometries", count)
}

func checkInputGradMatchesCol2Im(t *testing.T, rng *rand.Rand, g ConvGeom, outC, batch int) {
	t.Helper()
	colRows, spatial := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
	w, dys := New(outC, colRows), New(batch, outC, spatial)
	fillMixed(rng, w.Data)
	dyI, dcol := New(outC, spatial), New(colRows, spatial)
	for _, hostile := range []bool{false, true} {
		if hostile {
			fillHostile(rng, dys.Data)
		} else {
			fillMixed(rng, dys.Data)
		}
		want := make([]float64, batch*g.ImageSize())
		for i := 0; i < batch; i++ {
			copy(dyI.Data, dys.Data[i*outC*spatial:])
			col2imRef(want[i*g.ImageSize():], MatMulTransAInto(dcol, w, dyI).Data, g)
		}
		for _, workers := range convPackWorkers {
			parallel.SetWorkers(workers)
			what := fmt.Sprintf("%+v outC=%d batch=%d workers=%d non-finite dy=%v", g, outC, batch, workers, hostile)
			got := inputGradInto(w, dys, g)
			if hostile {
				requireSameFloats(t, what, got, want)
			} else {
				requireBitEqual(t, what, got, want, batch, outC, spatial)
			}
		}
	}
}

// weightGradPerImage is the weight gradient's definition over a batch:
// per image, ConvMatMulTransBInto added onto a zeroed dw by AddInPlace,
// and the row sums of dy_i, each a serial ascending sum from +0, added
// onto a zeroed db in image order.
func weightGradPerImage(dys *Tensor, imgs []float64, g ConvGeom, outC int) (dw, db []float64) {
	taps, spatial := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
	sum, one, dyI := New(outC, taps), New(outC, taps), New(outC, spatial)
	db = make([]float64, outC)
	for i := 0; i < dys.Size()/(outC*spatial); i++ {
		copy(dyI.Data, dys.Data[i*outC*spatial:])
		sum.AddInPlace(ConvMatMulTransBInto(one, dyI, imgs[i*g.ImageSize():][:g.ImageSize()], g))
		for oc := range db {
			s := 0.0
			for _, v := range dyI.Row(oc) {
				s += v
			}
			db[oc] += s
		}
	}
	return sum.Data, db
}

// weightGradInto runs ConvWeightGradBatchInto on a fresh dw and db full
// of NaN, so that an element it fails to write cannot pass for a sum.
func weightGradInto(dys *Tensor, imgs []float64, g ConvGeom, outC int) (dw, db []float64) {
	n := dys.Size() / (outC * g.OutH() * g.OutW())
	gotDB := Full(math.NaN(), outC)
	gotDW := ConvWeightGradBatchInto(Full(math.NaN(), outC, g.InC*g.KH*g.KW), gotDB, dys,
		FromSlice(imgs[:n*g.ImageSize()], n, g.InC, g.InH, g.InW), g)
	return gotDW.Data, gotDB.Data
}

// TestConvWeightGradBatchMatchesPerImage holds ConvWeightGradBatchInto —
// one product over the whole batch — to its per-image definition
// (weightGradPerImage), bit for bit, over InC 1, 3, 8 and 17, outC 1, 5,
// 8, 12 and 16 (ragged and full panels), 3×3, 5×7 and 8×8 images,
// kernels 1, 3 and 5, strides 1–3 and paddings 0, 1, K−1 and K, batches
// 1, 5 and 16, and workers 1, 2 and 8: with finite output gradients, and
// with ones holding signed zeros, subnormals, infinities and NaNs
// (fillHostile), NaN payloads aside. Under the race detector and -short
// one geometry in four is checked.
func TestConvWeightGradBatchMatchesPerImage(t *testing.T) {
	t.Cleanup(func() { parallel.SetWorkers(0) })
	rng := rand.New(rand.NewSource(24))
	thin := testutil.RaceEnabled || testing.Short()
	count := 0
	for _, inC := range []int{1, 3, 8, 17} {
		for _, hw := range [][2]int{{3, 3}, {5, 7}, {8, 8}} {
			for _, k := range []int{1, 3, 5} {
				pads := []int{0, 1, k - 1, k}
				for _, stride := range []int{1, 2, 3} {
					for i, pad := range pads {
						g := ConvGeom{InC: inC, InH: hw[0], InW: hw[1], KH: k, KW: k,
							StrideH: stride, StrideW: stride, PadH: pad, PadW: pad}
						if slices.Index(pads, pad) < i || g.Validate() != nil {
							continue
						}
						count++
						if thin && count%4 != 0 {
							continue
						}
						outC := []int{1, 5, 8, 12, 16}[count%5]
						for _, batch := range []int{1, 5, 16} {
							checkWeightGradMatchesPerImage(t, rng, g, outC, batch)
						}
					}
				}
			}
		}
	}
	t.Logf("%d geometries", count)
}

func checkWeightGradMatchesPerImage(t *testing.T, rng *rand.Rand, g ConvGeom, outC, batch int) {
	t.Helper()
	spatial := g.OutH() * g.OutW()
	imgs, dys := make([]float64, batch*g.ImageSize()), New(batch, outC, spatial)
	fillMixed(rng, imgs)
	for _, hostile := range []bool{false, true} {
		if hostile {
			fillHostile(rng, dys.Data)
		} else {
			fillMixed(rng, dys.Data)
		}
		parallel.SetWorkers(1)
		wantDW, wantDB := weightGradPerImage(dys, imgs, g, outC)
		for _, workers := range convPackWorkers {
			parallel.SetWorkers(workers)
			what := fmt.Sprintf("%+v outC=%d batch=%d workers=%d non-finite dy=%v", g, outC, batch, workers, hostile)
			gotDW, gotDB := weightGradInto(dys, imgs, g, outC)
			if hostile {
				requireSameFloats(t, what+" dw", gotDW, wantDW)
				requireSameFloats(t, what+" db", gotDB, wantDB)
				continue
			}
			requireBitEqual(t, what+" dw", gotDW, wantDW, outC, batch*spatial, g.InC*g.KH*g.KW)
			requireBitEqual(t, what+" db", gotDB, wantDB, outC, batch*spatial, 1)
		}
	}
}
