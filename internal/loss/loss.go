// Package loss implements the loss functions used by the GSFL training
// schemes. Each loss returns both the scalar loss value and the gradient
// with respect to the logits, which the server-side model's backward pass
// consumes directly.
package loss

import (
	"fmt"
	"math"

	"gsfl/internal/tensor"
)

// Loss maps a batch of predictions and integer labels to a scalar loss
// and the gradient of the mean loss with respect to the predictions.
type Loss interface {
	// Name identifies the loss in traces.
	Name() string
	// Eval returns (mean loss over the batch, dL/dlogits).
	Eval(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor)
	// EvalInto is the destination-passing form of Eval: the gradient is
	// written into grad (shaped to (batch, classes), reusing its
	// storage), and the mean loss is returned. Training loops pass a
	// per-replica workspace tensor so steady-state steps allocate
	// nothing; every element of grad is overwritten, so results are
	// bit-identical to Eval.
	EvalInto(logits *tensor.Tensor, labels []int, grad *tensor.Tensor) float64
}

// SoftmaxCrossEntropy is the fused softmax + cross-entropy loss for
// multi-class classification. Fusing keeps the gradient numerically exact:
// dL/dlogit = (softmax - onehot)/batch.
type SoftmaxCrossEntropy struct{}

// Name implements Loss.
func (SoftmaxCrossEntropy) Name() string { return "softmax-xent" }

// Eval implements Loss. logits must be (batch, classes); labels holds one
// class index per row.
func (l SoftmaxCrossEntropy) Eval(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	grad := &tensor.Tensor{}
	return l.EvalInto(logits, labels, grad), grad
}

// EvalInto implements Loss.
func (SoftmaxCrossEntropy) EvalInto(logits *tensor.Tensor, labels []int, grad *tensor.Tensor) float64 {
	checkBatch(logits, labels)
	n, c := logits.Dim(0), logits.Dim(1)
	grad.Ensure(n, c)
	total := 0.0
	inv := 1 / float64(n)
	for i := 0; i < n; i++ {
		row := logits.Row(i)
		y := labels[i]
		if y < 0 || y >= c {
			panic(fmt.Sprintf("loss: label %d outside [0,%d)", y, c))
		}
		// Numerically stable log-sum-exp.
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
		total += logSum - row[y]
		g := grad.Row(i)
		for j, v := range row {
			g[j] = math.Exp(v-logSum) * inv
		}
		g[y] -= inv
	}
	return total * inv
}

// MSE is mean squared error against one-hot targets; provided as a
// secondary loss for regression-style experiments and ablations.
type MSE struct{}

// Name implements Loss.
func (MSE) Name() string { return "mse" }

// Eval implements Loss, treating labels as one-hot targets.
func (l MSE) Eval(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	grad := &tensor.Tensor{}
	return l.EvalInto(logits, labels, grad), grad
}

// EvalInto implements Loss.
func (MSE) EvalInto(logits *tensor.Tensor, labels []int, grad *tensor.Tensor) float64 {
	checkBatch(logits, labels)
	n, c := logits.Dim(0), logits.Dim(1)
	grad.Ensure(n, c)
	total := 0.0
	inv := 1 / float64(n*c)
	for i := 0; i < n; i++ {
		row := logits.Row(i)
		g := grad.Row(i)
		for j, v := range row {
			target := 0.0
			if j == labels[i] {
				target = 1
			}
			d := v - target
			total += float64(d * d)
			g[j] = 2 * d * inv
		}
	}
	return total * inv
}

// Accuracy returns the fraction of rows whose argmax matches the label.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	checkBatch(logits, labels)
	pred := logits.ArgMaxRows()
	correct := 0
	for i, p := range pred {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}

func checkBatch(logits *tensor.Tensor, labels []int) {
	if logits.Dims() != 2 {
		panic(fmt.Sprintf("loss: logits must be 2-D, got %v", logits.Shape()))
	}
	if logits.Dim(0) != len(labels) {
		panic(fmt.Sprintf("loss: %d logit rows vs %d labels", logits.Dim(0), len(labels)))
	}
	if logits.Dim(0) == 0 {
		panic("loss: empty batch")
	}
}
