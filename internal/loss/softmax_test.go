package loss

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gsfl/internal/tensor"
	"gsfl/internal/testutil"
)

// serialSoftmax is the softmax cross-entropy as one scalar loop a row,
// math.Exp called per element: the definition EvalInto's blocked,
// vectorized passes must reproduce bit for bit.
func serialSoftmax(logits *tensor.Tensor, labels []int) (float64, []float64) {
	n, c := logits.Dim(0), logits.Dim(1)
	grad := make([]float64, n*c)
	total := 0.0
	inv := 1 / float64(n)
	for i := 0; i < n; i++ {
		row := logits.Row(i)
		m := row[0]
		for _, v := range row[1:] {
			if v > m {
				m = v
			}
		}
		sum := 0.0
		for _, v := range row {
			sum += math.Exp(v - m)
		}
		logSum := math.Log(sum) + m
		total += logSum - row[labels[i]]
		for j, v := range row {
			grad[i*c+j] = math.Exp(v-logSum) * inv
		}
		grad[i*c+labels[i]] -= inv
	}
	return total * inv, grad
}

// TestSoftmaxMatchesSerial holds EvalInto and Loss to serialSoftmax
// over widths either side of the exp body's four lanes and batches
// either side of a block, on logits that are mostly ordinary and
// sometimes spread far enough, or non-finite, for math.Exp to branch.
func TestSoftmaxMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	var grad, scratch tensor.Tensor
	for _, c := range []int{1, 2, 3, 4, 5, 7, 8, 10, 43} {
		for _, n := range []int{1, 2, 8, 63, 64, 65, 130} {
			logits := tensor.New(n, c).RandNormal(rng, 0, 3)
			labels := make([]int, n)
			for i := range labels {
				labels[i] = rng.Intn(c)
				if rng.Intn(16) == 0 {
					wild := []float64{800, -800, math.Inf(1), math.Inf(-1), math.NaN(), -1e300}
					logits.Row(i)[rng.Intn(c)] = wild[rng.Intn(len(wild))]
				}
			}
			wantLoss, wantGrad := serialSoftmax(logits, labels)
			what := fmt.Sprintf("%d×%d", n, c)
			gotLoss := SoftmaxCrossEntropy{}.EvalInto(logits, labels, &grad)
			requireSameLoss(t, what+" EvalInto", gotLoss, wantLoss)
			for i, g := range grad.Data {
				if math.IsNaN(g) != math.IsNaN(wantGrad[i]) ||
					!math.IsNaN(g) && math.Float64bits(g) != math.Float64bits(wantGrad[i]) {
					t.Fatalf("%s: gradient element %d = %v, want %v", what, i, g, wantGrad[i])
				}
			}
			requireSameLoss(t, what+" Loss", SoftmaxCrossEntropy{}.Loss(logits, labels, &scratch), wantLoss)
		}
	}
}

func requireSameLoss(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.IsNaN(got) != math.IsNaN(want) || !math.IsNaN(want) && math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: loss %v (bits %016x), want %v (bits %016x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func TestLossAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	logits := tensor.New(8, 10).RandNormal(rng, 0, 2)
	labels := make([]int, 8)
	for i := range labels {
		labels[i] = rng.Intn(10)
	}
	var scratch tensor.Tensor
	testutil.MaxAllocs(t, "softmax-xent Loss", 0, func() {
		SoftmaxCrossEntropy{}.Loss(logits, labels, &scratch)
	})
}

// BenchmarkSoftmaxCrossEntropy times EvalInto at pop_1m's batch (8 rows
// of 43 classes) and at twice that.
func BenchmarkSoftmaxCrossEntropy(b *testing.B) {
	for _, n := range []int{8, 16} {
		b.Run(fmt.Sprintf("%dx43", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			logits := tensor.New(n, 43).RandNormal(rng, 0, 3)
			labels := make([]int, n)
			for i := range labels {
				labels[i] = rng.Intn(43)
			}
			var grad tensor.Tensor
			for b.Loop() {
				SoftmaxCrossEntropy{}.EvalInto(logits, labels, &grad)
			}
		})
	}
}
