// Package gtsrb generates a synthetic stand-in for the German Traffic
// Sign Recognition Benchmark (GTSRB), the dataset the paper evaluates on.
//
// The real GTSRB (50k photographs, 43 classes) is not redistributable in
// this offline environment, so we substitute a procedural generator that
// preserves what the experiments actually exercise: a 43-class image
// classification task over small RGB images, with enough intra-class
// variation (pose/lighting/noise jitter) that models must generalize and
// enough inter-class structure (shape, colour, glyph) that a small CNN
// can learn it. Each class is a parametric "sign": a coloured border
// shape, a fill colour, and an oriented stripe glyph, all derived
// deterministically from the class index; each sample perturbs position,
// scale, brightness, background, and pixel noise.
//
// A generator's bytes are a function of its Config and seed alone, at
// any worker-pool width: every random number is drawn serially, in one
// fixed order, and only the rendering of drawn samples — which consumes
// no randomness — runs on the pool (see Generator).
package gtsrb

import (
	"fmt"
	"math"
	"math/rand"

	"gsfl/internal/data"
	"gsfl/internal/parallel"
)

// NumClasses matches the real GTSRB.
const NumClasses = 43

// shapeKind enumerates sign silhouettes.
type shapeKind int

const (
	shapeCircle shapeKind = iota
	shapeTriangle
	shapeSquare
	shapeDiamond
	shapeOctagon
	numShapes
)

// classSpec is the deterministic visual identity of one class.
type classSpec struct {
	shape       shapeKind
	borderR     float64 // border colour
	borderG     float64
	borderB     float64
	fillR       float64 // interior colour
	fillG       float64
	fillB       float64
	stripeAngle float64 // glyph stripe orientation (radians)
	stripeFreq  float64 // glyph stripe spatial frequency
	stripeDark  float64 // glyph stripe intensity multiplier
}

// specFor derives the visual identity of class c. Distinct classes get
// distinct (shape, colours, glyph) combinations: 5 shapes × colour wheel
// positions × 4 stripe angles × 3 frequencies cover 43 classes with a
// minimum pairwise difference a CNN can separate.
func specFor(c int) classSpec {
	checkClass(c)
	borderHue := float64((c*83)%360) / 360
	fillHue := float64((c*151+120)%360) / 360
	br, bg, bb := hsvToRGB(borderHue, 0.9, 0.9)
	fr, fg, fb := hsvToRGB(fillHue, 0.35, 0.95)
	return classSpec{
		shape:   shapeKind(c % int(numShapes)),
		borderR: br, borderG: bg, borderB: bb,
		fillR: fr, fillG: fg, fillB: fb,
		stripeAngle: float64((c/int(numShapes))%4) * math.Pi / 4,
		stripeFreq:  2 + float64((c/(int(numShapes)*4))%3),
		stripeDark:  0.45,
	}
}

func checkClass(c int) {
	if c < 0 || c >= NumClasses {
		panic(fmt.Sprintf("gtsrb: class %d outside [0,%d)", c, NumClasses))
	}
}

// hsvToRGB converts h,s,v in [0,1] to r,g,b in [0,1].
func hsvToRGB(h, s, v float64) (r, g, b float64) {
	i := int(h*6) % 6
	f := float64(h*6) - math.Floor(h*6)
	p := v * (1 - s)
	q := v * (1 - float64(f*s))
	t := v * (1 - float64((1-f)*s))
	switch i {
	case 0:
		return v, t, p
	case 1:
		return q, v, p
	case 2:
		return p, v, t
	case 3:
		return p, q, v
	case 4:
		return t, p, v
	default:
		return v, p, q
	}
}

// inside reports whether the point (x,y) in sign-local coordinates
// ([-1,1]²) lies inside the silhouette, and whether it lies in the border
// band (outer 25% of the silhouette).
func (s classSpec) inside(x, y float64) (in, border bool) {
	var d float64 // 0 at center, 1 at silhouette boundary
	switch s.shape {
	case shapeCircle:
		d = math.Hypot(x, y)
	case shapeTriangle:
		// Upward triangle: barycentric-style bound.
		if y > 0.8 || y < -0.8 {
			return false, false
		}
		half := (0.8 - y) / 1.6 * 1.1 // width shrinks toward the top
		if math.Abs(x) > half {
			return false, false
		}
		d = math.Max(math.Abs(x)/math.Max(half, 1e-9), (y+0.8)/1.6)
	case shapeSquare:
		d = math.Max(math.Abs(x), math.Abs(y)) / 0.85
	case shapeDiamond:
		d = (math.Abs(x) + math.Abs(y)) / 1.1
	case shapeOctagon:
		ax, ay := math.Abs(x), math.Abs(y)
		d = math.Max(math.Max(ax, ay), (ax+ay)/1.3) / 0.9
	}
	if d > 1 {
		return false, false
	}
	return true, d > 0.75
}

// Config controls sample generation.
type Config struct {
	// Size is the square image edge in pixels (paper-scale default 32;
	// tests use 16 for speed).
	Size int
	// NoiseStd is the per-pixel Gaussian noise standard deviation.
	NoiseStd float64
	// Jitter is the maximum translation as a fraction of image size.
	Jitter float64
	// ScaleJitter is the relative size variation of the sign.
	ScaleJitter float64
	// BrightnessJitter is the multiplicative brightness variation.
	BrightnessJitter float64
	// RotationJitter is the maximum per-sample sign rotation in radians
	// (uniform in [-r, r]). 0 keeps signs axis-aligned.
	RotationJitter float64
	// LabelNoise is the probability a sample's label is replaced with a
	// uniformly random class (failure-injection knob; default 0).
	LabelNoise float64
}

// DefaultConfig mirrors the difficulty of photographic data closely
// enough that convergence curves have realistic shape.
func DefaultConfig(size int) Config {
	return Config{
		Size:             size,
		NoiseStd:         0.08,
		Jitter:           0.12,
		ScaleJitter:      0.2,
		BrightnessJitter: 0.25,
	}
}

// Generator produces synthetic GTSRB samples. It is deterministic given
// its seed and safe for concurrent use via independent instances (each
// client's data is generated from its own derived seed).
//
// Every sample is made in two steps. draw consumes the generator's
// random stream — the sample's pose, lighting, background and stripe
// phase, one Gaussian noise term per pixel channel, the label noise —
// and render turns those draws into pixels without touching any
// randomness. Dataset and Balanced draw serially, in the order a loop
// of Sample calls would, and render on the worker pool, so their bytes
// are a loop of Sample calls' at any pool width.
type Generator struct {
	cfg Config
	rng *rand.Rand
}

// NewGenerator constructs a Generator with the given config and seed.
func NewGenerator(cfg Config, seed int64) *Generator {
	if cfg.Size < 8 {
		panic(fmt.Sprintf("gtsrb: image size %d too small (min 8)", cfg.Size))
	}
	if cfg.LabelNoise < 0 || cfg.LabelNoise >= 1 {
		panic(fmt.Sprintf("gtsrb: label noise %v outside [0,1)", cfg.LabelNoise))
	}
	return &Generator{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// jitter draws uniformly from [-amp, amp). Neither multiply may fuse
// into an add on arm64 — rand's scaling into the doubling, or the result
// into the sum it meets — or the dataset would differ from amd64's.
func (g *Generator) jitter(amp float64) float64 {
	return float64((float64(g.rng.Float64())*2 - 1) * amp)
}

// sampleDraw is what render needs of one sample besides its noise
// terms, which draw leaves in the sample's own pixels.
type sampleDraw struct {
	cx, cy, scale, bright float64
	bgR, bgG, bgB         float64
	phase                 float64
	theta                 float64 // sign rotation; 0 when RotationJitter is 0
	class                 uint8
}

// draw consumes one sample's share of the random stream, in this order:
// the four jitters, the three background levels, the stripe phase, the
// rotation when RotationJitter > 0, the 3·Size² noise terms (pixel by
// pixel, r then g then b), and the label noise. It stores the noise
// terms in img and returns the rest with the label.
func (g *Generator) draw(class int, img []float64) (sampleDraw, int) {
	checkClass(class) // before any randomness is consumed
	d := sampleDraw{class: uint8(class)}
	d.cx = g.jitter(g.cfg.Jitter)
	d.cy = g.jitter(g.cfg.Jitter)
	d.scale = 1 + g.jitter(g.cfg.ScaleJitter)
	d.bright = 1 + g.jitter(g.cfg.BrightnessJitter)
	d.bgR = 0.2 + float64(0.3*g.rng.Float64())
	d.bgG = 0.2 + float64(0.3*g.rng.Float64())
	d.bgB = 0.2 + float64(0.3*g.rng.Float64())
	d.phase = float64(float64(g.rng.Float64()) * 2 * math.Pi)
	if g.cfg.RotationJitter > 0 {
		d.theta = g.jitter(g.cfg.RotationJitter)
	}

	plane := len(img) / 3
	for i := 0; i < plane; i++ {
		img[i] = float64(g.rng.NormFloat64() * g.cfg.NoiseStd)
		img[plane+i] = float64(g.rng.NormFloat64() * g.cfg.NoiseStd)
		img[2*plane+i] = float64(g.rng.NormFloat64() * g.cfg.NoiseStd)
	}

	label := class
	if g.cfg.LabelNoise > 0 && g.rng.Float64() < g.cfg.LabelNoise {
		label = g.rng.Intn(NumClasses)
	}
	return d, label
}

// render paints the sign d describes into img, the CHW image of edge s
// whose entries hold the sample's noise terms: each becomes
// clamp01(colour·brightness + noise). It is a function of its arguments
// alone and consumes no randomness, so any goroutine may render any
// sample once draw has returned.
func render(s int, d *sampleDraw, img []float64) {
	spec := specFor(int(d.class))
	// Sin(0) and Cos(0) are exactly 0 and 1: an unrotated sign needs no
	// branch.
	sinR, cosR := math.Sin(d.theta), math.Cos(d.theta)
	stripeCos, stripeSin := math.Cos(spec.stripeAngle), math.Sin(spec.stripeAngle)

	plane := s * s
	for py := 0; py < s; py++ {
		for px := 0; px < s; px++ {
			// Map pixel to sign-local coordinates.
			x := ((float64(px)+0.5)/float64(s)*2 - 1 - d.cx) / (0.9 * d.scale)
			y := ((float64(py)+0.5)/float64(s)*2 - 1 - d.cy) / (0.9 * d.scale)
			// Rotate sign-local coordinates (inverse rotation of the sign).
			x, y = float64(x*cosR)+float64(y*sinR), float64(-x*sinR)+float64(y*cosR)
			r, gg, b := d.bgR, d.bgG, d.bgB
			if in, border := spec.inside(x, y); in {
				if border {
					r, gg, b = spec.borderR, spec.borderG, spec.borderB
				} else {
					r, gg, b = spec.fillR, spec.fillG, spec.fillB
					// Oriented stripe glyph in the interior.
					u := float64(x*stripeCos) + float64(y*stripeSin)
					if math.Sin(float64(u*spec.stripeFreq*math.Pi)+d.phase) > 0.3 {
						r *= spec.stripeDark
						gg *= spec.stripeDark
						b *= spec.stripeDark
					}
				}
			}
			i := py*s + px
			img[i] = clamp01(float64(r*d.bright) + img[i])
			img[plane+i] = clamp01(float64(gg*d.bright) + img[plane+i])
			img[2*plane+i] = clamp01(float64(b*d.bright) + img[2*plane+i])
		}
	}
}

// Sample renders one image of the given class, returning CHW-flattened
// features (3*Size*Size) and the (possibly noise-corrupted) label.
func (g *Generator) Sample(class int) ([]float64, int) {
	s := g.cfg.Size
	img := make([]float64, 3*s*s)
	d, label := g.draw(class, img)
	render(s, &d, img)
	return img, label
}

// Dataset generates n samples with classes drawn from classWeights
// (uniform over all 43 when nil). The result is an in-memory dataset with
// CHW-flattened features.
func (g *Generator) Dataset(n int, classWeights []float64) *data.InMemory {
	if n <= 0 {
		panic(fmt.Sprintf("gtsrb: dataset size %d must be positive", n))
	}
	cum := cumulative(classWeights)
	return g.samples(n, func(int) int { return drawClass(g.rng, cum) })
}

// Balanced generates perClass samples of every class (size 43*perClass),
// suitable for test sets.
func (g *Generator) Balanced(perClass int) *data.InMemory {
	if perClass <= 0 {
		panic(fmt.Sprintf("gtsrb: perClass %d must be positive", perClass))
	}
	return g.samples(NumClasses*perClass, func(i int) int { return i / perClass })
}

// blockSize is how many samples the drawer publishes to the renderers
// at a time.
const blockSize = 64

// samples makes n samples, sample i of class classOf(i), with the bytes
// of a loop calling classOf(i) then Sample for i = 0, 1, …: classOf may
// consume the random stream. Index 0 of one parallel.For draws every
// sample in that order and publishes it by blocks; each other index
// renders one block once it is published. At width 1 For runs inline,
// drawing everything before rendering anything. If the drawer panics it
// still releases every renderer, which then returns without rendering,
// and For re-raises the panic.
func (g *Generator) samples(n int, classOf func(i int) int) *data.InMemory {
	s := g.cfg.Size
	x := make([][]float64, n)
	y := make([]int, n)
	// Block b holds samples [b·blockSize, (b+1)·blockSize). Its draws are
	// set, then ready is closed, when the drawer finishes it; the renderer
	// drops them once painted. A block closed with nil draws was never
	// finished.
	blocks := make([]struct {
		draws []sampleDraw
		ready chan struct{}
	}, (n+blockSize-1)/blockSize)
	for b := range blocks {
		blocks[b].ready = make(chan struct{})
	}
	drawAll := func() {
		b := 0
		defer func() {
			for ; b < len(blocks); b++ {
				close(blocks[b].ready)
			}
		}()
		for ; b < len(blocks); b++ {
			lo, hi := b*blockSize, min(n, (b+1)*blockSize)
			draws := make([]sampleDraw, hi-lo)
			for i := lo; i < hi; i++ {
				x[i] = make([]float64, 3*s*s)
				draws[i-lo], y[i] = g.draw(classOf(i), x[i])
			}
			blocks[b].draws = draws
			close(blocks[b].ready)
		}
	}
	parallel.For(len(blocks)+1, 1, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			if k == 0 {
				drawAll()
				continue
			}
			blk := &blocks[k-1]
			<-blk.ready
			if blk.draws == nil {
				return // the drawer panicked; For re-raises it
			}
			for j := range blk.draws {
				render(s, &blk.draws[j], x[(k-1)*blockSize+j])
			}
			blk.draws = nil
		}
	})
	return data.NewInMemory(x, y, NumClasses)
}

// InShape returns the per-sample tensor shape for the configured size.
func (g *Generator) InShape() []int { return []int{3, g.cfg.Size, g.cfg.Size} }

func cumulative(w []float64) []float64 {
	if w == nil {
		w = make([]float64, NumClasses)
		for i := range w {
			w[i] = 1
		}
	}
	if len(w) != NumClasses {
		panic(fmt.Sprintf("gtsrb: %d class weights, want %d", len(w), NumClasses))
	}
	cum := make([]float64, len(w))
	total := 0.0
	for i, v := range w {
		if v < 0 {
			panic(fmt.Sprintf("gtsrb: negative class weight %v", v))
		}
		total += v
		cum[i] = total
	}
	if total == 0 {
		panic("gtsrb: all class weights zero")
	}
	for i := range cum {
		cum[i] /= total
	}
	return cum
}

func drawClass(rng *rand.Rand, cum []float64) int {
	u := rng.Float64()
	for i, c := range cum {
		if u <= c {
			return i
		}
	}
	return len(cum) - 1
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
