package tensor

import (
	"fmt"
	"math/rand"
	"testing"

	"gsfl/internal/parallel"
	"gsfl/internal/testutil"
)

// Micro-benchmarks for the numerical kernels the NN framework spends its
// time in. These guide optimization of the simulation's wall-clock cost
// (they do not correspond to paper figures).

// benchWorkers are the pool widths the serial-vs-parallel benchmarks
// sweep; workers=1 is the serial baseline the speedups are measured
// against.
var benchWorkers = []int{1, 2, 4, 8}

// BenchmarkMatMulWorkers measures the row-partitioned MatMulInto across
// pool widths, on shapes from 64 k to 32 M FLOPs: either side of the
// fork floor (minChunkFLOPs), below which the widths must read alike,
// and up to where a second worker pays. 16×256×64 is the paper model's
// first dense layer at batch 16, 256³ the spine's tensor.matmul_256.
func BenchmarkMatMulWorkers(b *testing.B) {
	for _, sh := range [][3]int{
		{32, 32, 32}, {32, 64, 32}, {64, 32, 64}, {16, 256, 64}, {64, 64, 64},
		{32, 128, 128}, {64, 128, 64}, {128, 64, 128}, {128, 128, 128}, {256, 128, 128}, {256, 128, 256}, {256, 256, 256},
	} {
		m, k, n := sh[0], sh[1], sh[2]
		x, y := benchMatrices(m, k, n)
		dst := New(m, n)
		for _, w := range benchWorkers {
			b.Run(fmt.Sprintf("%dx%dx%d_%dkFLOP/workers=%d", m, k, n, 2*m*k*n>>10, w), func(b *testing.B) {
				parallel.SetWorkers(w)
				defer parallel.SetWorkers(0)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					MatMulInto(dst, x, y)
				}
			})
		}
	}
}

func benchMatrices(m, k, n int) (*Tensor, *Tensor) {
	rng := rand.New(rand.NewSource(1))
	return New(m, k).RandNormal(rng, 0, 1), New(k, n).RandNormal(rng, 0, 1)
}

func BenchmarkMatMulInto64(b *testing.B) {
	x, y := benchMatrices(64, 64, 64)
	dst := New(64, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, x, y)
	}
}

// BenchmarkGEMMExact256 times the engine's exact micro-kernel on
// the hot-path shape (the 256³ matmul the benchmark spine records as
// tensor.matmul_256.ns).
func BenchmarkGEMMExact256(b *testing.B) {
	x, y := benchMatrices(256, 256, 256)
	dst := New(256, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, x, y)
	}
}

// BenchmarkGEMMFast256 times the same shape under the reassociating
// (FMA) kernel the "fast" numeric mode selects.
func BenchmarkGEMMFast256(b *testing.B) {
	release, err := AcquireNumericMode("fast")
	if err != nil {
		b.Fatal(err)
	}
	defer release()
	x, y := benchMatrices(256, 256, 256)
	dst := New(256, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, x, y)
	}
}

// BenchmarkConvMatMul times the fused implicit-GEMM conv forward (never
// materializing the column matrix) on a conv-layer-shaped operand.
func BenchmarkConvMatMul(b *testing.B) {
	g := ConvGeom{InC: 8, InH: 32, InW: 32, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	rng := rand.New(rand.NewSource(4))
	img := make([]float64, g.ImageSize())
	for i := range img {
		img[i] = rng.NormFloat64()
	}
	w := New(16, g.InC*g.KH*g.KW).RandNormal(rng, 0, 1)
	dst := New(16, g.OutH()*g.OutW())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ConvMatMulInto(dst, w, img, g)
	}
}

func BenchmarkMatMulTransA(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := New(128, 64).RandNormal(rng, 0, 1)
	y := New(128, 32).RandNormal(rng, 0, 1)
	dst := New(64, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		testGM.MatMulTransAIntoOp("MatMulTransAInto", dst, x, y)
	}
}

func BenchmarkAddScaled(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := New(1<<16).RandNormal(rng, 0, 1)
	y := New(1<<16).RandNormal(rng, 0, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.AddScaled(0.001, y)
	}
}

// paperConvGeoms are the two convolutions of the paper's GTSRB model as
// the benchmark spine runs it (3→8 channels on 16×16, 8→16 on 8×8, both
// 3×3 / stride 1 / pad 1): the shapes the conv products spend the split
// step in.
var paperConvGeoms = []struct {
	name string
	outC int
	g    ConvGeom
}{
	{"3to8@16", 8, ConvGeom{InC: 3, InH: 16, InW: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}},
	{"8to16@8", 16, ConvGeom{InC: 8, InH: 8, InW: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}},
}

// convProduct is one sample's forward, weight-gradient or input-gradient
// product at a paper geometry, as a closure over preallocated operands.
// bytes counts the column-matrix elements it consumes or stands for (8
// bytes each), so ns/op ÷ (bytes/8) is ns per multiply-add per output
// channel.
type convProduct struct {
	name  string
	bytes int64
	run   func()
}

func paperConvProducts() []convProduct {
	rng := rand.New(rand.NewSource(5))
	var ops []convProduct
	for _, pg := range paperConvGeoms {
		g := pg.g
		colRows, spatial := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
		img := New(g.ImageSize()).RandNormal(rng, 0, 1).Data
		w := New(pg.outC, colRows).RandNormal(rng, 0, 1)
		dy := New(pg.outC, spatial).RandNormal(rng, 0, 1)
		out, dw := New(pg.outC, spatial), New(pg.outC, colRows)
		dys, dx := FromSlice(dy.Data, 1, pg.outC, spatial), New(1, g.InC, g.InH, g.InW)
		bytes := int64(8 * g.InC * g.KH * g.KW * g.OutH() * g.OutW())
		ops = append(ops,
			convProduct{pg.name + "/forward", bytes, func() { ConvMatMulInto(out, w, img, g) }},
			convProduct{pg.name + "/dW", bytes, func() { ConvMatMulTransBInto(dw, dy, img, g) }},
			convProduct{pg.name + "/dx", bytes, func() { testGM.ConvInputGradBatchInto(dx, w, dys, g) }})
	}
	return ops
}

// BenchmarkConvMatMulPaper times the products the split step spends its
// convolutions in.
func BenchmarkConvMatMulPaper(b *testing.B) {
	for _, op := range paperConvProducts() {
		b.Run(op.name, func(b *testing.B) {
			b.SetBytes(op.bytes)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op.run()
			}
		})
	}
}

// TestConvMatMulPaperAllocFree holds BenchmarkConvMatMulPaper's
// allocs/op at zero at the ambient worker count: below the fork floor
// the products borrow every buffer from the pools.
func TestConvMatMulPaperAllocFree(t *testing.T) {
	for _, op := range paperConvProducts() {
		testutil.MaxAllocs(t, op.name, 0, op.run)
	}
}
