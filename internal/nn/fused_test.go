package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gsfl/internal/tensor"
)

// fusedArchs are the layer stacks of model.GTSRBCNN and
// model.DeepThinCNN (nn cannot import model), with the pool window k
// as a parameter and the dense input sized by propagating the input
// shape, so that odd image sizes and k = 3 build too.
var fusedArchs = []struct {
	name  string
	build func(seed int64, k, h, w int) []Layer
}{
	{"gtsrb-cnn", func(seed int64, k, h, w int) []Layer {
		rng := rand.New(rand.NewSource(seed))
		conv := []Layer{
			NewConv2D(rng, 3, 8, 3, 1, 1), NewReLU(), NewMaxPool2D(k),
			NewConv2D(rng, 8, 16, 3, 1, 1), NewReLU(), NewMaxPool2D(k),
			NewFlatten(),
		}
		flat := NewSequential(conv...).OutShape([]int{3, h, w})[0]
		return append(conv, NewDense(rng, flat, 64), NewReLU(), NewDense(rng, 64, 7))
	}},
	{"deepthin-cnn", func(seed int64, k, h, w int) []Layer {
		rng := rand.New(rand.NewSource(seed))
		conv := []Layer{
			NewConv2D(rng, 3, 16, 3, 1, 1), NewBatchNorm(16), NewReLU(), NewMaxPool2D(k),
			NewConv2D(rng, 16, 32, 3, 1, 1), NewBatchNorm(32), NewReLU(), NewMaxPool2D(k),
			NewConv2D(rng, 32, 32, 3, 1, 1), NewReLU(),
			NewFlatten(),
		}
		flat := NewSequential(conv...).OutShape([]int{3, h, w})[0]
		return append(conv, NewDense(rng, flat, 128), NewReLU(),
			NewDropout(rand.New(rand.NewSource(seed+1)), 0.3), NewDense(rng, 128, 7))
	}},
}

// fillFusedHostile fills buf with what a fused pair must treat exactly
// as the ReLU and the pool did: ±0, NaNs of both signs, ±Inf,
// subnormals of both signs, and — in a third of the draws — values from
// {-1, 0, 1}, so windows tie and many hold no positive element; the
// rest are normal. Every eighth 2×2 block (of the row-major buffer seen
// as rows of w) is one value throughout.
func fillFusedHostile(rng *rand.Rand, buf []float64, w int) {
	negNaN := math.Float64frombits(math.Float64bits(math.NaN()) | 1<<63)
	special := []float64{0, math.Copysign(0, -1), math.NaN(), negNaN, math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -1, -2}
	for i := range buf {
		switch r := rng.Intn(12); {
		case r == 0:
			buf[i] = special[rng.Intn(len(special))]
		case r < 5:
			buf[i] = float64(rng.Intn(3) - 1)
		default:
			buf[i] = rng.NormFloat64()
		}
	}
	for i := 0; i+w+1 < len(buf); i += 2 {
		if rng.Intn(8) == 0 {
			v := buf[i]
			buf[i+1], buf[i+w], buf[i+w+1] = v, v, v
		}
	}
}

// fusedData is moderately hostile network input: a zero in three
// elements (so conv outputs tie at the bias and whole windows hold no
// positive value) and a rare NaN or infinity, which poisons the
// activations around it without drowning the network.
func fusedData(rng *rand.Rand, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	for i := range x.Data {
		switch r := rng.Intn(400); {
		case r == 0:
			x.Data[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
		case r < 130:
			x.Data[i] = 0
		default:
			x.Data[i] = rng.NormFloat64()
		}
	}
	return x
}

func layerGrads(layers []Layer) []*tensor.Tensor {
	var gs []*tensor.Tensor
	for _, l := range layers {
		gs = append(gs, l.Grads()...)
	}
	return gs
}

// TestSequentialFusedReLUPoolMatchesLayers holds the fused (ReLU,
// MaxPool2D) op to its two layers run one at a time, each through its
// own Forward and Backward: both paper models, split at every cut —
// the cut between a ReLU and its pool included — for pool windows 2
// and 3, odd and even image sizes and batches 1, 3 and 16. Each side
// of the split gets its own input and output gradient, hostile ones at
// the cut, so every pair meets ±0, NaN, ±Inf, subnormals, ties and
// windows with no positive element at its input or at its gradient.
// Outputs in train and eval, the gradient at the cut, the client's
// input gradient and every parameter gradient (through BackwardParams
// and through Backward) must agree bit for bit. The paired ReLUs'
// workspaces must never be allocated: a pair that quietly ran
// unfused fails here.
func TestSequentialFusedReLUPoolMatchesLayers(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	pairs := 0
	for _, arch := range fusedArchs {
		for _, k := range []int{2, 3} {
			for _, hw := range [][2]int{{11, 13}, {16, 20}} {
				for _, batch := range []int{1, 3, 16} {
					nLayers := len(arch.build(0, k, hw[0], hw[1]))
					for cut := 0; cut <= nLayers; cut++ {
						name := fmt.Sprintf("%s k=%d %dx%d batch=%d cut=%d", arch.name, k, hw[0], hw[1], batch, cut)
						seed := rng.Int63()
						layers := arch.build(seed, k, hw[0], hw[1])
						ref := arch.build(seed, k, hw[0], hw[1])
						client, server := NewSequential(layers[:cut]...), NewSequential(layers[cut:]...)
						pairs += checkFusedSplit(t, name, rng, client, server, ref, cut, batch, hw)
					}
				}
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no fused pair was checked")
	}
}

// checkFusedSplit runs two training steps and an evaluation on the
// split (client, server) and on ref, layer by layer, and compares them;
// it returns the number of fused pairs the two halves hold.
func checkFusedSplit(t *testing.T, name string, rng *rand.Rand, client, server *Sequential, ref []Layer, cut, batch int, hw [2]int) int {
	t.Helper()
	in := append([]int{batch, 3}, hw[:]...)
	for step := 0; step < 2; step++ {
		x := fusedData(rng, in...)
		smashed := client.Forward(x, true)
		want := x
		for _, l := range ref[:cut] {
			want = l.Forward(want, true)
		}
		requireSameBits(t, name+" train client output", smashed.Data, want.Data)

		// The server half trains on a hostile input of the smashed
		// data's shape, and the client half on a hostile gradient.
		sIn := tensor.New(smashed.Shape()...)
		fillFusedHostile(rng, sIn.Data, lastDim(sIn))
		logits := server.Forward(sIn, true)
		want = sIn
		for _, l := range ref[cut:] {
			want = l.Forward(want, true)
		}
		requireSameBits(t, name+" train server output", logits.Data, want.Data)

		dy := tensor.New(logits.Shape()...)
		fillFusedHostile(rng, dy.Data, 1)
		dSmashed := server.Backward(dy)
		wantD := dy
		for i := len(ref) - 1; i >= cut; i-- {
			wantD = ref[i].Backward(wantD)
		}
		requireSameBits(t, name+" server input gradient", dSmashed.Data, wantD.Data)

		dh := tensor.New(smashed.Shape()...)
		fillFusedHostile(rng, dh.Data, lastDim(dh))
		client.BackwardParams(dh)
		wantD = dh
		for i := cut - 1; i >= 0; i-- {
			wantD = ref[i].Backward(wantD)
		}
		got, wantG := append(append([]*tensor.Tensor(nil), client.Grads()...), server.Grads()...), layerGrads(ref)
		for i := range wantG {
			requireSameBits(t, fmt.Sprintf("%s BackwardParams gradient %d", name, i), got[i].Data, wantG[i].Data)
		}
		requireSameBits(t, name+" client input gradient", client.Backward(dh).Data, wantD.Data)
		for i := range wantG {
			requireSameBits(t, fmt.Sprintf("%s Backward gradient %d", name, i), got[i].Data, wantG[i].Data)
		}

		want = x
		for _, l := range ref[:cut] {
			want = l.Forward(want, false)
		}
		requireSameBits(t, name+" eval client output", client.Forward(x, false).Data, want.Data)
		want = sIn
		for _, l := range ref[cut:] {
			want = l.Forward(want, false)
		}
		requireSameBits(t, name+" eval server output", server.Forward(sIn, false).Data, want.Data)
	}

	pairs := 0
	for _, s := range []*Sequential{client, server} {
		for i, l := range s.Layers {
			r, ok := l.(*ReLU)
			if !ok {
				continue
			}
			if _, pooled := layerAt(s.Layers, i+1).(*MaxPool2D); pooled {
				pairs++
				if r.y != nil || r.ws.out.Data != nil || r.ws.dx.Data != nil {
					t.Fatalf("%s: the ReLU at %d is paired with a pool but ran on its own", name, i)
				}
			} else if r.ws.out.Data == nil {
				t.Fatalf("%s: the unpaired ReLU at %d never ran", name, i)
			}
		}
	}
	return pairs
}

func lastDim(x *tensor.Tensor) int {
	shape := x.Shape()
	return shape[len(shape)-1]
}

// layerAt returns layers[i], or nil past the end.
func layerAt(layers []Layer, i int) Layer {
	if i < len(layers) {
		return layers[i]
	}
	return nil
}
