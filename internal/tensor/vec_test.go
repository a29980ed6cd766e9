package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// The gate of the vector bodies (vec.go): whatever body the CPUID probe
// selected must agree with the portable one bit for bit (NaN-ness for
// NaN payloads, as everywhere x86 meets a portable body), write nothing
// outside its destination, and refuse a short operand before it writes
// anything.

// canary is the bit pattern the guards either side of every destination
// hold: a NaN payload no operation in this package produces.
const canary = 0x7FF8DEADBEEF0001

const vecGuard = 8 // guard elements either side of a destination

// guarded returns an n-element slice that starts off elements past an
// allocation boundary plus the guard, with canaries all around it, and
// the backing array to check them in.
func guarded(n, off int) (s, backing []float64) {
	backing = make([]float64, off+vecGuard+n+vecGuard)
	for i := range backing {
		backing[i] = math.Float64frombits(canary)
	}
	return backing[off+vecGuard:][:n:n], backing
}

func guardedInts(n, off int) (s, backing []int) {
	backing = make([]int, off+vecGuard+n+vecGuard)
	for i := range backing {
		backing[i] = -canary
	}
	return backing[off+vecGuard:][:n:n], backing
}

func requireGuards(t *testing.T, what string, backing []float64, n, off int) {
	t.Helper()
	for i, v := range backing {
		if in := i >= off+vecGuard && i < off+vecGuard+n; !in && math.Float64bits(v) != canary {
			t.Fatalf("%s: wrote %016x at %d, outside the destination [%d, %d)",
				what, math.Float64bits(v), i, off+vecGuard, off+vecGuard+n)
		}
	}
}

func requireIntGuards(t *testing.T, what string, backing []int, n, off int) {
	t.Helper()
	for i, v := range backing {
		if in := i >= off+vecGuard && i < off+vecGuard+n; !in && v != -canary {
			t.Fatalf("%s: wrote %d at %d, outside the destination [%d, %d)", what, v, i, off+vecGuard, off+vecGuard+n)
		}
	}
}

// fillVecHostile is fillHostile plus what the elementwise bodies
// decide on and a GEMM does not: NaNs of both signs, and — one run in
// four — values drawn from three, so that pool windows tie.
func fillVecHostile(rng *rand.Rand, buf []float64) {
	fillHostile(rng, buf)
	negNaN := math.Float64frombits(math.Float64bits(math.NaN()) | 1<<63)
	ties := rng.Intn(4) == 0
	for i := range buf {
		switch {
		case ties && rng.Intn(2) == 0:
			buf[i] = float64(rng.Intn(3) - 1)
		case rng.Intn(24) == 0:
			buf[i] = negNaN
		}
	}
}

// hostileScalar draws an SGD hyperparameter: usually an ordinary one,
// sometimes zero (decay off, momentum off) or non-finite.
func hostileScalar(rng *rand.Rand, usual float64) float64 {
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1:
		return []float64{math.Inf(1), math.NaN(), math.Copysign(0, -1), 5e-324}[rng.Intn(4)]
	}
	return usual * rng.Float64()
}

// drawSquareOperand draws the sum of squares' operand. The hostile
// fill makes almost every sum longer than a few dozen terms NaN or
// +Inf, where any order gives the same answer; this one is mostly
// finite, over twelve decades, so that a fold in another order than
// the portable body's changes low bits. One value in 64 is an edge
// case: a value whose square overflows, one whose square is subnormal
// or zero, or a non-finite one.
func drawSquareOperand(rng *rand.Rand, n int) []float64 {
	edge := []float64{1e160, -1e155, 1e-160, -3e-162, 5e-324, math.Inf(-1), math.NaN()}
	s := make([]float64, n)
	for i := range s {
		if rng.Intn(64) == 0 {
			s[i] = edge[rng.Intn(len(edge))]
		} else {
			s[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6))
		}
	}
	return s
}

// vecOperands is one call's worth of inputs for every body, n
// outputs long; for the pool, n outputs a row of an h×w plane.
type vecOperands struct {
	a, b, c     []float64 // elementwise operands (a doubles as the destination's prior contents)
	sq          []float64 // sum-of-squares operand, n long
	ex, subs    []float64 // exp operand, len(subs) rows of n, and each row's shift
	plane       []float64 // pool input, h×w
	base, h, w  int
	lr, mom     float64
	clip, decay float64
}

func drawVecOperands(rng *rand.Rand, n int) vecOperands {
	o := vecOperands{
		a: make([]float64, n), b: make([]float64, n), c: make([]float64, n),
		base: rng.Intn(1 << 20),
		h:    2 + rng.Intn(5), w: 2*n + rng.Intn(2), // 1–3 output rows; odd sizes drop a row or column
		lr: hostileScalar(rng, 0.1), mom: hostileScalar(rng, 1),
		clip: hostileScalar(rng, 1), decay: hostileScalar(rng, 1e-3),
	}
	o.plane = make([]float64, o.h*o.w)
	for _, s := range [][]float64{o.a, o.b, o.c, o.plane} {
		fillVecHostile(rng, s)
	}
	// Whole windows of one hostile value: the seed must survive the scan.
	for oh := 0; oh < o.h/2; oh++ {
		for ow := 0; ow < n; ow++ {
			if rng.Intn(8) == 0 {
				v := []float64{math.NaN(), math.Inf(-1), math.Inf(1), 0}[rng.Intn(4)]
				i := 2*oh*o.w + 2*ow
				o.plane[i], o.plane[i+1], o.plane[i+o.w], o.plane[i+o.w+1] = v, v, v, v
			}
		}
	}
	o.sq = drawSquareOperand(rng, n)
	o.ex, o.subs = drawExpOperand(rng, n)
	return o
}

// drawExpOperand draws one to three rows of n exp inputs and a shift a
// row. Any one refused input sends its whole row to math.Exp, so most
// rows hold ordinary values only — logits over four decades, around
// an ordinary shift — and the vector body runs on them; one row in
// three gets an edge value planted, and one shift in sixteen is itself
// hostile. The edges are math.Exp's branch points and both sides of
// them (±0, ±Inf, NaNs of both signs, −708/−708.5, 709/709.5, −750,
// 710, arguments far past either end) and inputs whose result is
// subnormal; a row that holds one has a zero shift, so the planted
// value is exactly the exp's argument.
func drawExpOperand(rng *rand.Rand, n int) (ex, subs []float64) {
	negNaN := math.Float64frombits(math.Float64bits(math.NaN()) | 1<<63)
	edge := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), negNaN,
		-708, -708.5, 709, 709.5, -750, 710, 720, 1e300, -1e300, -709.5, -720, -744.4}
	subs = make([]float64, 1+rng.Intn(3))
	ex = make([]float64, len(subs)*n)
	for r := range subs {
		row := ex[r*n:][:n]
		subs[r] = rng.NormFloat64() * 10
		if rng.Intn(16) == 0 {
			subs[r] = edge[rng.Intn(6)]
		}
		for i := range row {
			row[i] = subs[r] + rng.NormFloat64()*math.Pow(10, float64(rng.Intn(4)-1))
		}
		if n > 0 && rng.Intn(3) == 0 {
			subs[r] = 0
			row[rng.Intn(n)] = edge[rng.Intn(len(edge))]
		}
	}
	return ex, subs
}

// expWant is ExpSub's definition, computed with math.Exp directly.
func expWant(ex, subs []float64) []float64 {
	want, w := make([]float64, len(ex)), len(ex)/len(subs)
	for i, v := range ex {
		want[i] = math.Exp(v - subs[i/w])
	}
	return want
}

// checkVecBodies runs every active body on o with every
// destination (and the sum of squares' operand) off elements past an
// allocation boundary, and holds each to its portable body and to its
// guards.
func checkVecBodies(t *testing.T, o vecOperands, off int) {
	t.Helper()
	n := len(o.a)
	what := func(name string) string { return fmt.Sprintf("%s n=%d off=%d", name, n, off) }
	// Operands sit at the same misalignment as the destination.
	shift := func(s []float64) []float64 {
		g, _ := guarded(len(s), off)
		copy(g, s)
		return g
	}
	b, c, plane := shift(o.b), shift(o.c), shift(o.plane)

	got, backing := guarded(n, off)
	want := make([]float64, n)
	MaskPositive(got, b, c)
	maskPositivePortable(want, o.b, o.c)
	requireSameFloats(t, what("MaskPositive"), got, want)
	requireGuards(t, what("MaskPositive"), backing, n, off)

	got, backing = guarded(n, off)
	gotV, backingV := guarded(n, off)
	copy(got, o.a)
	copy(gotV, o.b)
	copy(want, o.a)
	wantV := append([]float64(nil), o.b...)
	SGDMomentum(got, gotV, c, o.lr, o.mom, o.clip, o.decay)
	sgdMomentumPortable(want, wantV, o.c, o.lr, o.mom, o.clip, o.decay)
	requireSameFloats(t, what("SGDMomentum p"), got, want)
	requireSameFloats(t, what("SGDMomentum v"), gotV, wantV)
	requireGuards(t, what("SGDMomentum p"), backing, n, off)
	requireGuards(t, what("SGDMomentum v"), backingV, n, off)

	wantExp := expWant(o.ex, o.subs)
	got, backing = guarded(len(o.ex), off)
	ExpSub(got, shift(o.ex), o.subs)
	requireSameFloats(t, what("ExpSub"), got, wantExp)
	requireGuards(t, what("ExpSub"), backing, len(o.ex), off)
	copy(got, o.ex)
	ExpSub(got, got, o.subs)
	requireSameFloats(t, what("ExpSub in place"), got, wantExp)
	requireGuards(t, what("ExpSub in place"), backing, len(o.ex), off)

	requireSameFloats(t, what("SumSquares"), []float64{SumSquares(shift(o.sq))}, []float64{sumSquaresPortable(o.sq)})
	requireSameFloats(t, what("SumSquares hostile"), []float64{SumSquares(b)}, []float64{sumSquaresPortable(o.b)})

	outH, outW := o.h/2, o.w/2
	pooled := outH * outW
	relued := make([]float64, len(o.plane))
	maskPositivePortable(relued, o.plane, o.plane)
	for _, relu := range []bool{false, true} {
		want, wantArg := make([]float64, pooled), make([]int, pooled)
		maxPool2PlanePortable(want, wantArg, o.plane, o.base, outH, outW, o.w, 0, relu)
		if relu {
			// The seeded scan is the pool of relu(plane), argmax included.
			ref, refArg := make([]float64, pooled), make([]int, pooled)
			maxPool2PlanePortable(ref, refArg, relued, o.base, outH, outW, o.w, 0, false)
			name := fmt.Sprintf("maxPool2PlanePortable relu %dx%d vs pool of MaskPositive", o.h, o.w)
			requireSameFloats(t, name, want, ref)
			requireSameInts(t, name, wantArg, refArg)
		}
		for _, train := range []bool{true, false} {
			got, backing = guarded(pooled, off)
			var gotArg, backingArg []int
			if train {
				gotArg, backingArg = guardedInts(pooled, off)
			}
			MaxPool2Plane(got, gotArg, plane, o.base, o.h, o.w, relu)
			name := fmt.Sprintf("MaxPool2Plane %dx%d off=%d relu=%v train=%v", o.h, o.w, off, relu, train)
			requireSameFloats(t, name, got, want)
			requireGuards(t, name, backing, pooled, off)
			if train {
				requireSameInts(t, name, gotArg, wantArg)
				requireIntGuards(t, name, backingArg, pooled, off)
			}
		}
	}

	// The masked scatter, as the fused pool's backward drives it: the
	// output gradient through the argmax of a base-0 pool, gated by the
	// pooled values, onto a destination that already holds values.
	idx, gate := make([]int, pooled), make([]float64, pooled)
	maxPool2PlanePortable(gate, idx, o.plane, 0, outH, outW, o.w, 0, false)
	src := o.plane[len(o.plane)-pooled:]
	want = append([]float64(nil), o.plane...)
	for i, j := range idx {
		if gate[i] > 0 {
			want[j] += src[i]
		} else {
			want[j] += 0
		}
	}
	got, backing = guarded(len(o.plane), off)
	copy(got, o.plane)
	ScatterAddPositive(got, idx, shift(src), shift(gate))
	name := fmt.Sprintf("ScatterAddPositive %dx%d off=%d", o.h, o.w, off)
	requireSameFloats(t, name, got, want)
	requireGuards(t, name, backing, len(o.plane), off)
}

func requireSameInts(t *testing.T, what string, got, want []int) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: [%d] = %d, want %d", what, i, got[i], want[i])
		}
	}
}

func TestVecBodiesMatchPortable(t *testing.T) {
	t.Logf("kernels: avx2=%v fma=%v avx512=%v", cpu.avx2, cpu.fma, cpu.avx512)
	rng := rand.New(rand.NewSource(41))
	for n := 0; n <= 67; n++ {
		for off := 0; off <= 3; off++ {
			for trial := 0; trial < 4; trial++ {
				checkVecBodies(t, drawVecOperands(rng, n), off)
			}
		}
	}
}

// TestVecBodiesRefuseShortOperands: an operand shorter than the
// destination panics in the wrapper, as the Go loop's index did, and
// the destination has not been touched when it does.
func TestVecBodiesRefuseShortOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{1, 3, 4, 5, 8, 33} {
		o := drawVecOperands(rng, n)
		full := func() []float64 { return make([]float64, n) }
		short := func() []float64 { return make([]float64, n-1) }
		ramp := func() []int { // every index of the destination, once
			idx := make([]int, n)
			for i := range idx {
				idx[i] = i
			}
			return idx
		}
		for _, c := range []struct {
			name string
			call func(dst []float64)
		}{
			{"MaskPositive short src", func(d []float64) { MaskPositive(d, short(), full()) }},
			{"MaskPositive short gate", func(d []float64) { MaskPositive(d, full(), short()) }},
			{"SGDMomentum short v", func(d []float64) { SGDMomentum(d, short(), full(), 0.1, 0.9, 1, 0) }},
			{"SGDMomentum short grad", func(d []float64) { SGDMomentum(d, full(), short(), 0.1, 0.9, 1, 0) }},
			{"MaxPool2Plane short in", func(d []float64) { MaxPool2Plane(d, nil, make([]float64, 4*n-1), 0, 2, 2*n, false) }},
			{"MaxPool2Plane short arg", func(d []float64) { MaxPool2Plane(d, make([]int, n-1), make([]float64, 4*n), 0, 2, 2*n, false) }},
			{"MaxPool2Plane relu short in", func(d []float64) { MaxPool2Plane(d, nil, make([]float64, 4*n-1), 0, 2, 2*n, true) }},
			{"MaxPool2Plane relu short arg", func(d []float64) { MaxPool2Plane(d, make([]int, n-1), make([]float64, 4*n), 0, 2, 2*n, true) }},
			{"ScatterAddPositive short src", func(d []float64) { ScatterAddPositive(d, ramp(), short(), full()) }},
			{"ScatterAddPositive short gate", func(d []float64) { ScatterAddPositive(d, ramp(), full(), short()) }},
			{"ExpSub short src", func(d []float64) { ExpSub(d, short(), []float64{0}) }},
			{"ExpSub ragged rows", func(d []float64) { ExpSub(d, full(), make([]float64, n+1)) }},
			{"ExpSub no rows", func(d []float64) { ExpSub(d, full(), nil) }},
		} {
			dst, backing := guarded(n, 1)
			copy(dst, o.a)
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s, n=%d: no panic", c.name, n)
					}
				}()
				c.call(dst)
			}()
			for i := range dst {
				if math.Float64bits(dst[i]) != math.Float64bits(o.a[i]) {
					t.Fatalf("%s, n=%d: destination element %d written before the panic", c.name, n, i)
				}
			}
			requireGuards(t, c.name, backing, n, 1)
		}
	}
}

// FuzzVecBodies continues TestVecBodiesMatchPortable with
// fuzzer-chosen lengths, offsets and operand bit patterns: raw is read
// as little-endian float64s and laid over the seeded draw, so the
// fuzzer can place any bit pattern in any lane.
func FuzzVecBodies(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), []byte{})
	f.Add(int64(2), uint8(4), uint8(1), []byte{0, 0, 0, 0, 0, 0, 0xF8, 0x7F})
	f.Add(int64(3), uint8(67), uint8(3), []byte{0, 0, 0, 0, 0, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add(int64(5), uint8(130), uint8(2), []byte{0, 0, 0, 0, 0, 0, 0xF0, 0xFF})
	f.Fuzz(func(t *testing.T, seed int64, nn, off uint8, raw []byte) {
		rng := rand.New(rand.NewSource(seed))
		o := drawVecOperands(rng, int(nn)%160)
		for _, s := range [][]float64{o.a, o.b, o.c, o.plane, o.sq, o.ex} {
			for i := range s {
				if len(raw) < 8 {
					break
				}
				s[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw))
				raw = raw[8:]
			}
		}
		checkVecBodies(t, o, int(off)%4)
	})
}

// TestExpSubVectorRows pins the exp body's row protocol where it runs:
// it finishes every row of an in-range batch, stops at the first row
// holding a refused input, and leaves rows narrower than four to the
// portable body.
func TestExpSubVectorRows(t *testing.T) {
	if !cpu.avx2 || !cpu.fma {
		t.Skipf("no exp body on this host (avx2=%v fma=%v)", cpu.avx2, cpu.fma)
	}
	src := []float64{-1, 2, 0.5, -3, 4, 1, 1, 1, 1, 1, -2, -2, -2, -2, -2}
	dst := make([]float64, len(src))
	subs := []float64{0.5, 1, -1}
	if got := expSubVec(dst, src, subs, 5); got != 3 {
		t.Fatalf("in-range batch: %d rows done, want 3", got)
	}
	src[7] = 800
	if got := expSubVec(dst, src, subs, 5); got != 1 {
		t.Fatalf("refused input in row 1: %d rows done, want 1", got)
	}
	if got := expSubVec(dst[:9], src[:9], subs, 3); got != 0 {
		t.Fatalf("rows of 3: %d rows done, want 0", got)
	}
}

// TestExpSubMatchesMathExpSweep holds ExpSub to math.Exp on 10⁷ random
// inputs, |x| log-uniform over [1e-3, 700] with either sign — every one
// inside the range the vector body takes.
func TestExpSubMatchesMathExpSweep(t *testing.T) {
	const total, rows, w = 10_000_000, 64, 64
	rng := rand.New(rand.NewSource(47))
	src, dst, subs := make([]float64, rows*w), make([]float64, rows*w), make([]float64, rows)
	for done := 0; done < total; done += len(src) {
		for i := range src {
			src[i] = math.Pow(10, -3+rng.Float64()*math.Log10(700/1e-3))
			if rng.Intn(2) == 0 {
				src[i] = -src[i]
			}
		}
		ExpSub(dst, src, subs)
		for i, x := range src {
			if want := math.Exp(x); math.Float64bits(dst[i]) != math.Float64bits(want) {
				t.Fatalf("ExpSub gives exp(%v) = %016x, math.Exp %016x (avx2=%v fma=%v). "+
					"The AVX2 body replicates the avxfma branch of math.Exp's amd64 code "+
					"(math/exp_amd64.s) instruction for instruction: if %s changed that code, "+
					"the body in vec_amd64.s must change with it.",
					x, math.Float64bits(dst[i]), math.Float64bits(want), cpu.avx2, cpu.fma, runtime.Version())
			}
		}
	}
}

// BenchmarkExpSub times the loss's pass over a batch of 8 rows of 43
// classes: ExpSub as one call, and the math.Exp loop it replaced.
func BenchmarkExpSub(b *testing.B) {
	const rows, w = 8, 43
	rng := rand.New(rand.NewSource(1))
	src, dst, subs := make([]float64, rows*w), make([]float64, rows*w), make([]float64, rows)
	for i := range src {
		src[i] = rng.NormFloat64() * 3
	}
	for i := range subs {
		subs[i] = 6
	}
	b.Run("ExpSub", func(b *testing.B) {
		for b.Loop() {
			ExpSub(dst, src, subs)
		}
	})
	b.Run("math.Exp", func(b *testing.B) {
		for b.Loop() {
			for i, v := range src {
				dst[i] = math.Exp(v - subs[i/w])
			}
		}
	})
}
