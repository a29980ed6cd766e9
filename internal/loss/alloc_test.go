package loss

import (
	"math/rand"
	"testing"

	"gsfl/internal/tensor"
	"gsfl/internal/testutil"
)

// TestEvalIntoMatchesEval pins the destination-passing loss contract:
// EvalInto with a gradient workspace reused across shapes returns
// bit-identical losses and gradients to an evaluation into a fresh
// tensor.
func TestEvalIntoMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var grad tensor.Tensor
	for trial := 0; trial < 5; trial++ {
		n := 1 + rng.Intn(6)
		c := 2 + rng.Intn(5)
		logits := tensor.New(n, c).RandNormal(rng, 0, 2)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(c)
		}
		wantLoss, wantGrad := xent(logits, labels)
		gotLoss := SoftmaxCrossEntropy{}.EvalInto(logits, labels, &grad)
		if gotLoss != wantLoss {
			t.Fatalf("trial %d: EvalInto loss %v != fresh evaluation's %v", trial, gotLoss, wantLoss)
		}
		if !tensor.AllClose(&grad, wantGrad, 0) {
			t.Fatalf("trial %d: EvalInto gradient differs from a fresh evaluation's", trial)
		}
	}
}

func TestEvalIntoAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	logits := tensor.New(8, 10).RandNormal(rng, 0, 2)
	labels := make([]int, 8)
	for i := range labels {
		labels[i] = rng.Intn(10)
	}
	var grad tensor.Tensor
	testutil.MaxAllocs(t, "softmax-xent EvalInto", 0, func() {
		SoftmaxCrossEntropy{}.EvalInto(logits, labels, &grad)
	})
}
