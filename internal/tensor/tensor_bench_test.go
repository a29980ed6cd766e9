package tensor

import (
	"fmt"
	"math/rand"
	"testing"

	"gsfl/internal/parallel"
)

// Micro-benchmarks for the numerical kernels the NN framework spends its
// time in. These guide optimization of the simulation's wall-clock cost
// (they do not correspond to paper figures).

// benchWorkers are the pool widths the serial-vs-parallel benchmarks
// sweep; workers=1 is the serial baseline the speedups are measured
// against.
var benchWorkers = []int{1, 2, 4, 8}

// BenchmarkMatMulWorkers measures the row-partitioned MatMulInto across pool
// widths on a layer-sized matrix product.
func BenchmarkMatMulWorkers(b *testing.B) {
	x, y := benchMatrices(256, 256, 256)
	dst := New(256, 256)
	for _, w := range benchWorkers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			parallel.SetWorkers(w)
			defer parallel.SetWorkers(0)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MatMulInto(dst, x, y)
			}
		})
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

// BenchmarkGEMMExact256 times the packed engine's exact micro-kernel on
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
		MatMulTransAInto(dst, x, y)
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
// 3×3 / stride 1 / pad 1): the shapes the three im2col index-map
// routines spend the split step in.
var paperConvGeoms = []struct {
	name string
	g    ConvGeom
}{
	{"3to8@16", ConvGeom{InC: 3, InH: 16, InW: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}},
	{"8to16@8", ConvGeom{InC: 8, InH: 8, InW: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}},
}

// benchConvIndexMap runs fn over one image per iteration at each paper
// geometry. SetBytes counts the column-matrix elements the routine moves
// (8 bytes each), so MB/s ÷ 8 is elements per microsecond and
// ns/op ÷ ColSize is ns per element.
func benchConvIndexMap(b *testing.B, fn func(panel, img, cols []float64, g ConvGeom)) {
	for _, pg := range paperConvGeoms {
		g := pg.g
		b.Run(pg.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			img := make([]float64, g.ImageSize())
			cols := make([]float64, g.ColSize())
			for i := range img {
				img[i] = rng.NormFloat64()
			}
			for i := range cols {
				cols[i] = rng.NormFloat64()
			}
			// Large enough for either orientation's NR-padded panels.
			panel := make([]float64, g.ColSize()+gemmNR*(g.InC*g.KH*g.KW+g.OutH()*g.OutW()))
			b.SetBytes(int64(8 * g.ColSize()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fn(panel, img, cols, g)
			}
		})
	}
}

func BenchmarkPackIm2col(b *testing.B) {
	benchConvIndexMap(b, func(panel, img, _ []float64, g ConvGeom) { packBIm2col(panel, img, g, false) })
}

func BenchmarkPackIm2colT(b *testing.B) {
	benchConvIndexMap(b, func(panel, img, _ []float64, g ConvGeom) { packBIm2col(panel, img, g, true) })
}

func BenchmarkCol2Im(b *testing.B) {
	benchConvIndexMap(b, func(_, img, cols []float64, g ConvGeom) { Col2ImBatch(img, cols, 1, g) })
}
