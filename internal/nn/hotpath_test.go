package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gsfl/internal/parallel"
	"gsfl/internal/tensor"
	"gsfl/internal/testutil"
)

// Tests for the split step's hot path: the first layer's skipped input
// gradient, the conv layer's once-per-call weight pack, the branch-free
// ReLU and the 2×2 max-pool path, each against the plain implementation
// it must equal bit for bit.

// TestBackwardParamsMatchesBackward builds each stack twice from one
// seed, runs Backward on one twin and BackwardParams on the other, and
// requires every parameter gradient to agree bit for bit: skipping the
// network-input gradient must not touch anything else.
func TestBackwardParamsMatchesBackward(t *testing.T) {
	cases := []struct {
		name  string
		build func(rng *rand.Rand) *Sequential
		in    []int
	}{
		{"conv first", func(rng *rand.Rand) *Sequential {
			return NewSequential(NewConv2D(rng, 3, 8, 3, 1, 1), NewReLU(), NewMaxPool2D(2),
				NewConv2D(rng, 8, 4, 3, 2, 0), NewFlatten(), NewDense(rng, 4*2*2, 5))
		}, []int{6, 3, 12, 12}},
		{"dense first", func(rng *rand.Rand) *Sequential {
			return NewSequential(NewDense(rng, 20, 16), NewReLU(), NewDense(rng, 16, 5))
		}, []int{6, 20}},
		{"batchnorm second", func(rng *rand.Rand) *Sequential {
			return NewSequential(NewConv2D(rng, 2, 4, 3, 1, 1), NewBatchNorm(4), NewReLU(),
				NewFlatten(), NewDense(rng, 4*6*6, 3))
		}, []int{5, 2, 6, 6}},
		{"parameter-free first", func(rng *rand.Rand) *Sequential {
			return NewSequential(NewFlatten(), NewDense(rng, 2*3*3, 4))
		}, []int{4, 2, 3, 3}},
		{"single layer", func(rng *rand.Rand) *Sequential {
			return NewSequential(NewConv2D(rng, 2, 3, 3, 1, 1))
		}, []int{3, 2, 5, 5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			full := tc.build(rand.New(rand.NewSource(31)))
			skip := tc.build(rand.New(rand.NewSource(31)))
			rng := rand.New(rand.NewSource(32))
			// Two steps, so the second writes its gradients over the
			// first's, into a workspace the first step already sized.
			for step := 0; step < 2; step++ {
				x := tensor.New(tc.in...).RandNormal(rng, 0, 1)
				dy := full.Forward(x, true).Clone().RandNormal(rng, 0, 1)
				skip.Forward(x, true)
				full.Backward(dy)
				skip.BackwardParams(dy)
				gf, gs := full.Grads(), skip.Grads()
				for i := range gf {
					testutil.RequireSameBits(t, "gradient", gs[i].Data, gf[i].Data)
				}
			}
		})
	}
	NewSequential().BackwardParams(tensor.New(1)) // nothing to do, nothing to panic on
}

// TestFirstConvOwnsNoInputGradientBuffers pins the memory half of the
// claim: a Conv2D only ever driven through BackwardParams never sizes
// the input-gradient buffer.
func TestFirstConvOwnsNoInputGradientBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	conv := NewConv2D(rng, 3, 8, 3, 1, 1)
	net := NewSequential(conv, NewReLU())
	x := tensor.New(4, 3, 8, 8).RandNormal(rng, 0, 1)
	net.BackwardParams(net.Forward(x, true).Clone())
	if n := conv.ws.dx.Size(); n != 0 {
		t.Fatalf("first conv sized %d elements of input-gradient workspace", n)
	}
}

// TestReLUMatchesBranchyReference drives both passes over every class
// of float the masks must get right and compares with the comparison
// they replace.
func TestReLUMatchesBranchyReference(t *testing.T) {
	negNaN := math.Float64frombits(math.Float64bits(math.NaN()) | 1<<63)
	sub := math.SmallestNonzeroFloat64
	xs := []float64{math.Copysign(0, -1), 0, math.NaN(), negNaN, math.Inf(1), math.Inf(-1),
		sub, -sub, 1, -1, math.MaxFloat64, -math.MaxFloat64, 0x1p-1022, -0x1p-1022}
	// Every gradient value meets every input value.
	dys := []float64{2.5, -3, math.Copysign(0, -1), 0, math.NaN(), math.Inf(-1), sub}
	x := tensor.New(len(xs) * len(dys))
	dy := tensor.New(len(xs) * len(dys))
	for i, xv := range xs {
		for j, dv := range dys {
			x.Data[i*len(dys)+j] = xv
			dy.Data[i*len(dys)+j] = dv
		}
	}
	wantY := make([]float64, x.Size())
	wantDX := make([]float64, x.Size())
	for i, v := range x.Data {
		if v > 0 {
			wantY[i] = v
			wantDX[i] = dy.Data[i]
		}
	}
	// All 98 elements run 24 vector steps and a 2-element tail; the
	// short prefixes are all tail (3), all vector (4) and one of each (5).
	for _, n := range []int{x.Size(), 3, 4, 5} {
		xn, dyn := tensor.FromSlice(x.Data[:n], n), tensor.FromSlice(dy.Data[:n], n)
		r := NewReLU()
		testutil.RequireSameBits(t, "eval forward", r.Forward(xn, false).Data, wantY[:n])
		testutil.RequireSameBits(t, "train forward", r.Forward(xn, true).Data, wantY[:n])
		testutil.RequireSameBits(t, "backward", r.Backward(dyn).Data, wantDX[:n])
	}
}

// maxPoolRef is the generic window scan — row-major, strict >, seeded
// with the window's first element — for any k.
func maxPoolRef(x *tensor.Tensor, k int) (out []float64, arg []int) {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	outH, outW := h/k, w/k
	for plane := 0; plane < n*c; plane++ {
		for oh := 0; oh < outH; oh++ {
			for ow := 0; ow < outW; ow++ {
				bi := plane*h*w + oh*k*w + ow*k
				best := x.Data[bi]
				for kh := 0; kh < k; kh++ {
					for kw := 0; kw < k; kw++ {
						i := plane*h*w + (oh*k+kh)*w + ow*k + kw
						if x.Data[i] > best {
							best, bi = x.Data[i], i
						}
					}
				}
				out = append(out, best)
				arg = append(arg, bi)
			}
		}
	}
	return out, arg
}

// TestMaxPool2MatchesGenericScan checks the straight-line 2×2 path
// against the generic scan where the two could part ways: ties (every
// value drawn from three, so most windows repeat their maximum),
// all-negative windows, signed zeros, NaN and infinities in any
// position, and odd input sizes with a dropped row and column. The
// widths cover every split of an output row between the 4-wide vector
// body and the scalar tail: all vector (8 → 4 outputs), all tail (2, 6,
// 7 → 1, 3, 3), and both (12, 22 → 4+2, 8+3).
func TestMaxPool2MatchesGenericScan(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	fills := map[string]func() float64{
		"ties":     func() float64 { return float64(rng.Intn(3)) },
		"negative": func() float64 { return -1 - float64(rng.Intn(3)) },
		"special": func() float64 {
			return []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1, -1}[rng.Intn(7)]
		},
		"normal": rng.NormFloat64,
	}
	for name, fill := range fills {
		for _, hw := range [][2]int{{8, 8}, {5, 7}, {2, 2}, {6, 6}, {4, 12}, {5, 22}} {
			x := tensor.New(3, 2, hw[0], hw[1])
			for i := range x.Data {
				x.Data[i] = fill()
			}
			wantY, wantArg := maxPoolRef(x, 2)
			p := NewMaxPool2D(2)
			testutil.RequireSameBits(t, name+" eval forward", p.Forward(x, false).Data, wantY)
			testutil.RequireSameBits(t, name+" train forward", p.Forward(x, true).Data, wantY)
			for i, a := range p.argmax {
				if a != wantArg[i] {
					t.Fatalf("%s %v: argmax[%d] = %d, want %d", name, hw, i, a, wantArg[i])
				}
			}
		}
	}
}

// TestMaxPoolNaNWindow is the regression test for the -Inf seed: a
// window holding only NaN (or only -Inf) used to output -Inf — hiding a
// diverged run from the loss check — and record no argmax, so Backward
// indexed with -1 and panicked.
func TestMaxPoolNaNWindow(t *testing.T) {
	for _, k := range []int{2, 3} {
		for _, v := range []float64{math.NaN(), math.Inf(-1)} {
			p := NewMaxPool2D(k)
			x := tensor.New(1, 1, k, k)
			x.Fill(v)
			y := p.Forward(x, true)
			if math.Float64bits(y.Data[0]) != math.Float64bits(v) {
				t.Fatalf("k=%d: window of %v pooled to %v", k, v, y.Data[0])
			}
			dx := p.Backward(tensor.FromSlice([]float64{1}, 1, 1, 1, 1))
			if dx.Data[0] != 1 {
				t.Fatalf("k=%d window of %v: gradient routed to %v, want the window's first element", k, v, dx.Data)
			}
		}
	}
}

// TestConv2DSharedPackMatchesPerImage holds Conv2D, whose batch calls
// pack W once per layer call for every image to read, to a per-image
// reference built from the single-image products on the same weights:
// output, dx, dW and db, bit for bit. Batches 1, 3 and 16; outC 5, 12
// (a full and a ragged 8-wide panel) and 16 (full panels only); inC 1
// and 3, ragged panels of the input gradient, whose 5×7 pixels are a
// ragged MR block; 35 output positions, a ragged block of the forward
// pass; workers 1, 2, 8.
func TestConv2DSharedPackMatchesPerImage(t *testing.T) {
	t.Cleanup(func() { parallel.SetWorkers(0) })
	rng := rand.New(rand.NewSource(31))
	for _, batch := range []int{1, 3, 16} {
		for _, outC := range []int{5, 12, 16} {
			for _, inC := range []int{1, 3} {
				c := NewConv2D(rng, inC, outC, 3, 1, 1)
				c.b.RandNormal(rng, 0, 1)
				x := tensor.New(batch, inC, 5, 7).RandNormal(rng, 0, 1)
				dy := tensor.New(batch, outC, 5, 7).RandNormal(rng, 0, 1)
				parallel.SetWorkers(1)
				want := convPerImage(c, x, dy)
				for _, workers := range []int{1, 2, 8} {
					parallel.SetWorkers(workers)
					name := fmt.Sprintf("batch=%d inC=%d outC=%d workers=%d", batch, inC, outC, workers)
					requireSameBits(t, name+" output", c.Forward(x, true).Data, want.y)
					requireSameBits(t, name+" dx", c.Backward(dy).Data, want.dx)
					requireSameBits(t, name+" dW", c.dw.Data, want.dw)
					requireSameBits(t, name+" db", c.db.Data, want.db)
				}
			}
		}
	}
}

// convRef is one Conv2D training step computed image by image.
type convRef struct{ y, dx, dw, db []float64 }

// convPerImage computes c's forward output and, for output gradient dy,
// its input and parameter gradients one image at a time through the
// exported single-image products: ConvMatMulInto plus the bias, a
// GEMM's MatMulTransAIntoOp for the column gradients scattered back onto
// a zeroed dx by col2imRef, ConvMatMulTransBInto and row sums
// accumulated in image order.
func convPerImage(c *Conv2D, x, dy *tensor.Tensor) convRef {
	g := c.geomFor(x)
	n, colRows, spatial := x.Dim(0), g.InC*g.KH*g.KW, g.OutH()*g.OutW()
	imgSize, outSize := g.ImageSize(), c.OutC*spatial
	ref := convRef{
		y: make([]float64, n*outSize), dx: make([]float64, n*imgSize),
		dw: make([]float64, c.OutC*colRows), db: make([]float64, c.OutC),
	}
	out, dyI := tensor.New(c.OutC, spatial), tensor.New(c.OutC, spatial)
	dcol, dwI := tensor.New(colRows, spatial), tensor.New(c.OutC, colRows)
	var gm tensor.GEMM
	for i := 0; i < n; i++ {
		img := x.Data[i*imgSize : (i+1)*imgSize]
		tensor.ConvMatMulInto(out, c.w, img, g)
		for j, v := range out.Data {
			ref.y[i*outSize+j] = v + c.b.Data[j/spatial]
		}
		copy(dyI.Data, dy.Data[i*outSize:(i+1)*outSize])
		col2imRef(ref.dx[i*imgSize:(i+1)*imgSize], gm.MatMulTransAIntoOp("dcol", dcol, c.w, dyI).Data, g)
		for j, v := range tensor.ConvMatMulTransBInto(dwI, dyI, img, g).Data {
			ref.dw[j] += v
		}
		for oc := range ref.db {
			s := 0.0
			for _, v := range dyI.Row(oc) {
				s += v
			}
			ref.db[oc] += s
		}
	}
	return ref
}

// col2imRef scatter-adds one image's column matrix (rows (c,kh,kw),
// columns (oh,ow)) onto dst, every entry bounds-tested on its own, rows
// and positions in ascending order: the definition of the input
// gradient's summation order.
func col2imRef(dst, cols []float64, g tensor.ConvGeom) {
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

func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}
