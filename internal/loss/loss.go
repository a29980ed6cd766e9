// Package loss implements the softmax cross-entropy loss the GSFL
// training schemes use. EvalInto returns the scalar loss and writes the
// gradient with respect to the logits, which the server-side model's
// backward pass consumes directly; Loss returns the loss alone.
package loss

import (
	"fmt"
	"math"

	"gsfl/internal/tensor"
)

// SoftmaxCrossEntropy is the fused softmax + cross-entropy loss for
// multi-class classification. Fusing keeps the gradient numerically exact:
// dL/dlogit = (softmax - onehot)/batch.
type SoftmaxCrossEntropy struct{}

// EvalInto writes dL/dlogits into grad (shaped to (batch, classes),
// reusing its storage, every element overwritten) and returns the mean
// loss over the batch. logits must be (batch, classes); labels holds
// one class index per row. It takes each row's log-sum-exp in one
// pass — the row maximum m, the exps of v − m written into the
// gradient row as scratch, their sum in index order, logSum =
// log(sum) + m — then writes exp(v − logSum)·inv into the gradient
// row, each rounded on its own, and subtracts inv at the label. The
// exps run through tensor.ExpSub a block of rows at a time; the sums,
// the maxima and the logs stay serial Go.
func (SoftmaxCrossEntropy) EvalInto(logits *tensor.Tensor, labels []int, grad *tensor.Tensor) float64 {
	checkBatch(logits, labels)
	n, c := logits.Dim(0), logits.Dim(1)
	checkLabels(labels, c)
	grad.Ensure(n, c)
	total := 0.0
	inv := 1 / float64(n)
	var lse [blockRows]float64
	for lo := 0; lo < n; lo += blockRows {
		hi := min(lo+blockRows, n)
		x, g, s := logits.Data[lo*c:hi*c], grad.Data[lo*c:hi*c], lse[:hi-lo]
		total = addLosses(total, s, x, g, labels[lo:hi], c)
		tensor.ExpSub(g, x, s)
		for j := range g {
			g[j] *= inv
		}
		for i, y := range labels[lo:hi] {
			g[i*c+y] -= inv
		}
	}
	return total * inv
}

// Loss returns the mean loss EvalInto returns, bit for bit, without the
// gradient: its first pass alone, with scratch (shaped to (batch,
// classes), reusing its storage) where the gradient held the exps.
// Evaluation uses it.
func (SoftmaxCrossEntropy) Loss(logits *tensor.Tensor, labels []int, scratch *tensor.Tensor) float64 {
	checkBatch(logits, labels)
	n, c := logits.Dim(0), logits.Dim(1)
	checkLabels(labels, c)
	scratch.Ensure(n, c)
	total := 0.0
	var lse [blockRows]float64
	for lo := 0; lo < n; lo += blockRows {
		hi := min(lo+blockRows, n)
		total = addLosses(total, lse[:hi-lo], logits.Data[lo*c:hi*c], scratch.Data[lo*c:hi*c], labels[lo:hi], c)
	}
	return total * (1 / float64(n))
}

// blockRows is how many rows share one tensor.ExpSub call: their
// log-sum-exps live in an array on the stack, so the loss allocates
// nothing, and a block of training batches is one call.
const blockRows = 64

// addLosses is the loss's first pass over a block of rows of c logits
// in x: it sets lse[i] to row i's log-sum-exp, leaving the exps in
// scratch (x's size), and returns total plus each row's logSum − x[y]
// in row order.
func addLosses(total float64, lse, x, scratch []float64, labels []int, c int) float64 {
	for i := range lse {
		row := x[i*c:][:c]
		m := row[0]
		for _, v := range row[1:] {
			if v > m {
				m = v
			}
		}
		lse[i] = m
	}
	tensor.ExpSub(scratch, x, lse)
	for i, y := range labels {
		sum := 0.0
		for _, e := range scratch[i*c:][:c] {
			sum += e
		}
		lse[i] += math.Log(sum)
		total += lse[i] - x[i*c+y]
	}
	return total
}

func checkLabels(labels []int, c int) {
	for _, y := range labels {
		if y < 0 || y >= c {
			panic(fmt.Sprintf("loss: label %d outside [0,%d)", y, c))
		}
	}
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
