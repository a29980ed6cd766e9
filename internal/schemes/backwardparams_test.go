package schemes_test

import (
	"fmt"
	"math/rand"
	"testing"

	"gsfl/internal/data"
	"gsfl/internal/loss"
	"gsfl/internal/model"
	"gsfl/internal/nn"
	"gsfl/internal/optim"
	"gsfl/internal/schemes"
	"gsfl/internal/tensor"
	"gsfl/internal/testutil"
)

// SplitStep's client half and LocalStep discard the gradient with
// respect to the data batch, so they run Sequential.BackwardParams.
// These tests train the paper's CNN (conv first) and the MLP (dense
// first) for five steps each way and require every parameter to end
// bit-equal to a reference step that runs the full Backward.

func refSplitStep(m *model.SplitModel, cOpt, sOpt optim.Optimizer, b data.Batch) {
	var grad tensor.Tensor
	logits := m.Server.Forward(m.Client.Forward(b.X, true), true)
	loss.SoftmaxCrossEntropy{}.EvalInto(logits, b.Y, &grad)
	dSmashed := m.Server.Backward(&grad)
	m.Client.Backward(dSmashed)
	sOpt.Step(m.Server.Params(), m.Server.Grads(), m.Server.DecayMask())
	cOpt.Step(m.Client.Params(), m.Client.Grads(), m.Client.DecayMask())
}

func refLocalStep(net *nn.Sequential, opt optim.Optimizer, b data.Batch) {
	var grad tensor.Tensor
	loss.SoftmaxCrossEntropy{}.EvalInto(net.Forward(b.X, true), b.Y, &grad)
	net.Backward(&grad)
	opt.Step(net.Params(), net.Grads(), net.DecayMask())
}

func randomBatch(rng *rand.Rand, n, classes int, inShape []int) data.Batch {
	b := data.Batch{X: tensor.New(append([]int{n}, inShape...)...).RandNormal(rng, 0, 1), Y: make([]int, n)}
	for i := range b.Y {
		b.Y[i] = rng.Intn(classes)
	}
	return b
}

func requireSameParams(t *testing.T, what string, got, want []*tensor.Tensor) {
	t.Helper()
	for i := range want {
		testutil.RequireSameBits(t, fmt.Sprintf("%s: parameter %d", what, i), got[i].Data, want[i].Data)
	}
}

func TestStepsMatchFullBackward(t *testing.T) {
	cases := []struct {
		name string
		arch model.Arch
		cut  int
	}{
		{"gtsrb-cnn", model.GTSRBCNN(16, 5), 3},
		{"mlp", model.MLP(12, 16, 5), 1},
	}
	for _, tc := range cases {
		arch, cut := tc.arch, tc.cut
		t.Run(tc.name, func(t *testing.T) {
			got, want := arch.NewSplit(rand.New(rand.NewSource(41)), cut), arch.NewSplit(rand.New(rand.NewSource(41)), cut)
			gotNet := nn.NewSequential(arch.Build(rand.New(rand.NewSource(42)))...)
			wantNet := nn.NewSequential(arch.Build(rand.New(rand.NewSource(42)))...)
			opts := make([]*optim.SGD, 6)
			for i := range opts {
				opts[i] = optim.NewSGDMomentum(0.05, 0.9)
			}
			var ws schemes.StepWorkspace
			rng := rand.New(rand.NewSource(43))
			for step := 0; step < 5; step++ {
				b := randomBatch(rng, 8, 5, arch.InShape)
				ws.SplitStep(got, opts[0], opts[1], b, false)
				refSplitStep(want, opts[2], opts[3], b)
				ws.LocalStep(gotNet, opts[4], b)
				refLocalStep(wantNet, opts[5], b)
			}
			requireSameParams(t, "SplitStep client half", got.Client.Params(), want.Client.Params())
			requireSameParams(t, "SplitStep server half", got.Server.Params(), want.Server.Params())
			requireSameParams(t, "LocalStep", gotNet.Params(), wantNet.Params())
		})
	}
}
