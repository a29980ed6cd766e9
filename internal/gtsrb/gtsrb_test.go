package gtsrb

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"gsfl/internal/data"
	"gsfl/internal/parallel"
)

func TestSampleShapeAndRange(t *testing.T) {
	g := NewGenerator(DefaultConfig(16), 1)
	f, y := g.Sample(7)
	if len(f) != 3*16*16 {
		t.Fatalf("feature length = %d, want %d", len(f), 3*16*16)
	}
	if y != 7 {
		t.Fatalf("label = %d, want 7", y)
	}
	for i, v := range f {
		if v < 0 || v > 1 {
			t.Fatalf("pixel %d = %v outside [0,1]", i, v)
		}
	}
}

func TestDeterminismAcrossGenerators(t *testing.T) {
	a := NewGenerator(DefaultConfig(16), 42)
	b := NewGenerator(DefaultConfig(16), 42)
	fa, _ := a.Sample(3)
	fb, _ := b.Sample(3)
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatal("same seed must generate identical samples")
		}
	}
}

func TestSamplesVaryWithinClass(t *testing.T) {
	g := NewGenerator(DefaultConfig(16), 1)
	fa, _ := g.Sample(5)
	fb, _ := g.Sample(5)
	diff := 0.0
	for i := range fa {
		diff += math.Abs(fa[i] - fb[i])
	}
	if diff < 1 {
		t.Fatalf("two samples of one class nearly identical (L1 diff %v); no augmentation?", diff)
	}
}

func TestClassesAreDistinguishable(t *testing.T) {
	// Mean images of different classes must differ far more than two mean
	// images of the same class — the signal a classifier learns.
	cfg := DefaultConfig(16)
	mean := func(seed int64, class int) []float64 {
		g := NewGenerator(cfg, seed)
		acc := make([]float64, 3*16*16)
		const n = 24
		for i := 0; i < n; i++ {
			f, _ := g.Sample(class)
			for j, v := range f {
				acc[j] += v / n
			}
		}
		return acc
	}
	l2 := func(a, b []float64) float64 {
		s := 0.0
		for i := range a {
			d := a[i] - b[i]
			s += d * d
		}
		return math.Sqrt(s)
	}
	sameClass := l2(mean(1, 0), mean(2, 0))
	for _, other := range []int{1, 7, 21, 42} {
		cross := l2(mean(1, 0), mean(1, other))
		if cross < 2*sameClass {
			t.Fatalf("class 0 vs %d separation %v not ≫ intra-class %v", other, cross, sameClass)
		}
	}
}

func TestAllClassSpecsDistinct(t *testing.T) {
	type key struct {
		shape shapeKind
		angle float64
		freq  float64
		r, g  float64
	}
	seen := map[key]int{}
	for c := 0; c < NumClasses; c++ {
		s := specFor(c)
		k := key{s.shape, s.stripeAngle, s.stripeFreq, s.borderR, s.borderG}
		if prev, dup := seen[k]; dup {
			t.Fatalf("classes %d and %d share a visual identity", prev, c)
		}
		seen[k] = c
	}
}

func TestDatasetUniform(t *testing.T) {
	g := NewGenerator(DefaultConfig(16), 3)
	ds := g.Dataset(430, nil)
	if ds.Len() != 430 || ds.Classes() != NumClasses {
		t.Fatalf("Len=%d Classes=%d", ds.Len(), ds.Classes())
	}
	h := data.ClassHistogram(ds)
	for c, n := range h {
		if n == 0 {
			t.Fatalf("class %d absent from 430 uniform draws", c)
		}
	}
}

func TestDatasetWeighted(t *testing.T) {
	g := NewGenerator(DefaultConfig(16), 4)
	w := make([]float64, NumClasses)
	w[10] = 1 // only class 10
	ds := g.Dataset(50, w)
	h := data.ClassHistogram(ds)
	if h[10] != 50 {
		t.Fatalf("degenerate weights: histogram = %v", h)
	}
}

func TestBalanced(t *testing.T) {
	g := NewGenerator(DefaultConfig(16), 5)
	ds := g.Balanced(2)
	if ds.Len() != NumClasses*2 {
		t.Fatalf("balanced Len = %d", ds.Len())
	}
	h := data.ClassHistogram(ds)
	for c, n := range h {
		if n != 2 {
			t.Fatalf("class %d count = %d, want 2", c, n)
		}
	}
}

func TestLabelNoise(t *testing.T) {
	cfg := DefaultConfig(16)
	cfg.LabelNoise = 0.5
	g := NewGenerator(cfg, 6)
	flips := 0
	const n = 400
	for i := 0; i < n; i++ {
		_, y := g.Sample(0)
		if y != 0 {
			flips++
		}
	}
	// Expect ≈ n * 0.5 * (42/43) flips.
	want := float64(n) * 0.5 * 42 / 43
	if math.Abs(float64(flips)-want) > 60 {
		t.Fatalf("flips = %d, want ≈%.0f", flips, want)
	}
}

func TestInShape(t *testing.T) {
	g := NewGenerator(DefaultConfig(24), 1)
	s := g.InShape()
	if len(s) != 3 || s[0] != 3 || s[1] != 24 || s[2] != 24 {
		t.Fatalf("InShape = %v", s)
	}
}

func TestValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("tiny size", func() { NewGenerator(DefaultConfig(4), 1) })
	mustPanic("label noise", func() {
		cfg := DefaultConfig(16)
		cfg.LabelNoise = 1
		NewGenerator(cfg, 1)
	})
	mustPanic("bad class", func() { specFor(NumClasses) })
	mustPanic("zero dataset", func() { NewGenerator(DefaultConfig(16), 1).Dataset(0, nil) })
	mustPanic("weights length", func() { NewGenerator(DefaultConfig(16), 1).Dataset(5, []float64{1}) })
	mustPanic("zero weights", func() {
		NewGenerator(DefaultConfig(16), 1).Dataset(5, make([]float64, NumClasses))
	})
}

func TestRotationJitterChangesSamples(t *testing.T) {
	base := DefaultConfig(16)
	rot := base
	rot.RotationJitter = 0.5
	// Same seed; the rotated generator consumes one extra RNG draw per
	// sample, so compare variance structure instead of exact pixels:
	// rotation must still keep pixels in range and produce valid images.
	g := NewGenerator(rot, 9)
	f, y := g.Sample(2)
	if y != 2 {
		t.Fatalf("label = %d", y)
	}
	for i, v := range f {
		if v < 0 || v > 1 {
			t.Fatalf("rotated pixel %d = %v outside [0,1]", i, v)
		}
	}
}

func TestRotationZeroMatchesLegacy(t *testing.T) {
	// RotationJitter 0 must not consume RNG, preserving all recorded
	// experiment results bit-for-bit.
	a := NewGenerator(DefaultConfig(16), 4)
	cfg := DefaultConfig(16)
	cfg.RotationJitter = 0
	b := NewGenerator(cfg, 4)
	fa, _ := a.Sample(7)
	fb, _ := b.Sample(7)
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatal("zero rotation changed generation")
		}
	}
}

// TestSourceRejectsUnknownOption: the registered source takes
// "noise_std" and names any other key in its error instead of silently
// dropping a typo.
func TestSourceRejectsUnknownOption(t *testing.T) {
	cfg := data.SourceConfig{ImageSize: 8, Seed: 1, Options: map[string]float64{"noise_std": 0.2}}
	if _, err := data.NewSource(SourceName, cfg); err != nil {
		t.Fatalf("noise_std rejected: %v", err)
	}
	cfg.Options = map[string]float64{"noise_sdt": 0.2}
	if _, err := data.NewSource(SourceName, cfg); err == nil || !strings.Contains(err.Error(), `"noise_sdt"`) {
		t.Fatalf("unknown option error = %v, want one naming \"noise_sdt\"", err)
	}
}

// withWidths runs f at pool widths 1, 2 and 8, restoring the default
// width afterwards.
func withWidths(t *testing.T, f func(t *testing.T)) {
	t.Cleanup(func() { parallel.SetWorkers(0) })
	for _, w := range []int{1, 2, 8} {
		parallel.SetWorkers(w)
		t.Run(fmt.Sprintf("w%d", w), f)
	}
}

// sampleLoop is the serial reference for Dataset and Balanced: classOf
// then Sample for each index, on one generator.
func sampleLoop(g *Generator, n int, classOf func(i int) int) ([][]float64, []int) {
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		x[i], y[i] = g.Sample(classOf(i))
	}
	return x, y
}

func requireSameSamples(t *testing.T, got *data.InMemory, x [][]float64, y []int) {
	t.Helper()
	if got.Len() != len(x) {
		t.Fatalf("Len = %d, want %d", got.Len(), len(x))
	}
	for i := range x {
		if got.Y[i] != y[i] {
			t.Fatalf("sample %d: label %d, want %d", i, got.Y[i], y[i])
		}
		for j, v := range x[i] {
			if math.Float64bits(got.X[i][j]) != math.Float64bits(v) {
				t.Fatalf("sample %d feature %d: %v, want %v", i, j, got.X[i][j], v)
			}
		}
	}
}

// equivalenceConfigs are the default config and one that also draws a
// rotation and label noise per sample.
func equivalenceConfigs() map[string]Config {
	noisy := DefaultConfig(8)
	noisy.RotationJitter = 0.3
	noisy.LabelNoise = 0.2
	return map[string]Config{"default": DefaultConfig(8), "rotation+labelnoise": noisy}
}

// TestDatasetMatchesSampleLoop: Dataset's pipelined draw and render
// yields the bytes of drawing each class and calling Sample, in turn,
// on a twin generator — at every pool width, across block boundaries.
func TestDatasetMatchesSampleLoop(t *testing.T) {
	for name, cfg := range equivalenceConfigs() {
		for _, n := range []int{1, blockSize - 1, blockSize, blockSize + 1, 6000} {
			twin := NewGenerator(cfg, 11)
			cum := cumulative(nil)
			x, y := sampleLoop(twin, n, func(int) int { return drawClass(twin.rng, cum) })
			t.Run(fmt.Sprintf("%s/n%d", name, n), func(t *testing.T) {
				withWidths(t, func(t *testing.T) {
					requireSameSamples(t, NewGenerator(cfg, 11).Dataset(n, nil), x, y)
				})
			})
		}
	}
}

// TestBalancedMatchesSampleLoop is TestDatasetMatchesSampleLoop for
// Balanced: perClass samples of class 0, then of class 1, and so on.
func TestBalancedMatchesSampleLoop(t *testing.T) {
	for name, cfg := range equivalenceConfigs() {
		for _, perClass := range []int{1, 2, 140} {
			x, y := sampleLoop(NewGenerator(cfg, 12), NumClasses*perClass, func(i int) int { return i / perClass })
			t.Run(fmt.Sprintf("%s/perClass%d", name, perClass), func(t *testing.T) {
				withWidths(t, func(t *testing.T) {
					requireSameSamples(t, NewGenerator(cfg, 12).Balanced(perClass), x, y)
				})
			})
		}
	}
}

// TestSamplesDrawerPanicReturns: a panic while drawing reaches the
// caller at every pool width instead of leaving a renderer waiting for
// a block that will never be published.
func TestSamplesDrawerPanicReturns(t *testing.T) {
	withWidths(t, func(t *testing.T) {
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			g := NewGenerator(DefaultConfig(8), 1)
			g.samples(5*blockSize, func(i int) int {
				if i == 2*blockSize+3 {
					return NumClasses // rejected by draw
				}
				return i % NumClasses
			})
		}()
		select {
		case r := <-done:
			if r == nil || !strings.Contains(fmt.Sprint(r), "outside") {
				t.Fatalf("recovered %v, want the drawer's bad-class panic", r)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("samples did not return after its drawer panicked")
		}
	})
}
