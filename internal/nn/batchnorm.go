package nn

import (
	"fmt"
	"math"

	"gsfl/internal/tensor"
)

// BatchNorm normalizes activations to zero mean / unit variance per
// feature, then applies a learned affine transform (gamma, beta).
//
// It accepts both layouts the network produces:
//   - rank-2 (N, F): each of the F features is normalized over the batch;
//   - rank-4 (N, C, H, W): each of the C channels is normalized over
//     N*H*W (spatial batch norm).
//
// Running statistics are tracked with exponential moving averages and
// used in evaluation mode, so inference is deterministic. The running
// buffers are exposed through Params so that FedAvg aggregation merges
// them across groups exactly like learned parameters — without this,
// aggregated models would evaluate with stale statistics.
type BatchNorm struct {
	F        int     // features (rank-2) or channels (rank-4)
	Momentum float64 // EMA factor for running statistics
	Eps      float64

	gamma, beta   *tensor.Tensor
	dgamma, dbeta *tensor.Tensor
	runMean       *tensor.Tensor
	runVar        *tensor.Tensor
	// zeroA/zeroB are the permanently-zero gradient slots for the running
	// statistics; optimizers add zero, leaving the buffers untouched.
	zeroA, zeroB *tensor.Tensor

	// Cached from the training-mode forward pass.
	xhat    *tensor.Tensor
	invStd  []float64
	inShape []int

	// ws holds the reusable output/xhat/input-gradient buffers plus the
	// per-feature scratch (mean, variance, Σdy, Σdy·x̂, eval-mode inverse
	// stddev). The scratch slices are length F, fixed at construction, so
	// they are allocated exactly once.
	ws struct {
		out, xhat, dx             tensor.Tensor
		mean, variance            []float64
		sumDy, sumDyXhat, evalInv []float64
	}
}

// NewBatchNorm constructs a BatchNorm layer for f features/channels.
func NewBatchNorm(f int) *BatchNorm {
	if f <= 0 {
		panic(fmt.Sprintf("nn: BatchNorm features must be positive, got %d", f))
	}
	b := &BatchNorm{
		F:        f,
		Momentum: 0.9,
		Eps:      1e-5,
		gamma:    tensor.Ones(f),
		beta:     tensor.New(f),
		dgamma:   tensor.New(f),
		dbeta:    tensor.New(f),
		runMean:  tensor.New(f),
		runVar:   tensor.Ones(f),
		zeroA:    tensor.New(f),
		zeroB:    tensor.New(f),
		invStd:   make([]float64, f),
	}
	b.ws.mean = make([]float64, f)
	b.ws.variance = make([]float64, f)
	b.ws.sumDy = make([]float64, f)
	b.ws.sumDyXhat = make([]float64, f)
	b.ws.evalInv = make([]float64, f)
	return b
}

// Name implements Layer.
func (b *BatchNorm) Name() string { return fmt.Sprintf("batchnorm(%d)", b.F) }

// checkInput validates the layout and returns the spatial extent (1 for
// rank-2 inputs, H*W for rank-4).
func (b *BatchNorm) checkInput(x *tensor.Tensor) (spatial int) {
	switch x.Dims() {
	case 2:
		if x.Dim(1) != b.F {
			panic(fmt.Sprintf("nn: %s got %d features", b.Name(), x.Dim(1)))
		}
		return 1
	case 4:
		if x.Dim(1) != b.F {
			panic(fmt.Sprintf("nn: %s got %d channels", b.Name(), x.Dim(1)))
		}
		return x.Dim(2) * x.Dim(3)
	default:
		panic(fmt.Sprintf("nn: %s expects rank-2 or rank-4 input, got %v", b.Name(), x.Shape()))
	}
}

// forEach calls fn(featureIndex, flatIndex) for every element of x. The
// closures passed in capture only locals and never escape, so they cost
// no allocations.
func (b *BatchNorm) forEach(x *tensor.Tensor, spatial int, fn func(f, i int)) {
	n := x.Dim(0)
	per := b.F * spatial
	for s := 0; s < n; s++ {
		base := s * per
		for f := 0; f < b.F; f++ {
			fb := base + f*spatial
			for j := 0; j < spatial; j++ {
				fn(f, fb+j)
			}
		}
	}
}

// Forward implements Layer.
func (b *BatchNorm) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	spatial := b.checkInput(x)
	n := x.Dim(0)
	count := float64(n * spatial)
	y := b.ws.out.EnsureShapeOf(x)

	if !train {
		// Evaluation mode: use running statistics.
		inv := b.ws.evalInv
		for f := 0; f < b.F; f++ {
			inv[f] = 1 / math.Sqrt(b.runVar.Data[f]+b.Eps)
		}
		b.forEach(x, spatial, func(f, i int) {
			y.Data[i] = float64(b.gamma.Data[f]*(x.Data[i]-b.runMean.Data[f])*inv[f]) + b.beta.Data[f]
		})
		return y
	}

	mean := b.ws.mean
	for f := range mean {
		mean[f] = 0
	}
	b.forEach(x, spatial, func(f, i int) { mean[f] += x.Data[i] })
	for f := range mean {
		mean[f] /= count
	}
	variance := b.ws.variance
	for f := range variance {
		variance[f] = 0
	}
	b.forEach(x, spatial, func(f, i int) {
		d := x.Data[i] - mean[f]
		variance[f] += float64(d * d)
	})
	for f := range variance {
		variance[f] /= count
	}

	invStd := b.invStd
	for f := range invStd {
		invStd[f] = 1 / math.Sqrt(variance[f]+b.Eps)
	}
	xhat := b.ws.xhat.EnsureShapeOf(x)
	b.forEach(x, spatial, func(f, i int) {
		xhat.Data[i] = (x.Data[i] - mean[f]) * invStd[f]
		y.Data[i] = float64(b.gamma.Data[f]*xhat.Data[i]) + b.beta.Data[f]
	})

	for f := 0; f < b.F; f++ {
		b.runMean.Data[f] = float64(b.Momentum*b.runMean.Data[f]) + float64((1-b.Momentum)*mean[f])
		b.runVar.Data[f] = float64(b.Momentum*b.runVar.Data[f]) + float64((1-b.Momentum)*variance[f])
	}

	b.xhat = xhat
	b.inShape = x.AppendShape(b.inShape[:0])
	return y
}

// Backward implements Layer, using the standard batch-norm gradient:
//
//	dx = gamma*invStd/count * (count*dy - Σdy - xhat*Σ(dy*xhat))
func (b *BatchNorm) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if b.xhat == nil {
		panic("nn: BatchNorm.Backward called before training-mode Forward")
	}
	spatial := 1
	if len(b.inShape) == 4 {
		spatial = b.inShape[2] * b.inShape[3]
	}
	n := b.inShape[0]
	count := float64(n * spatial)

	sumDy := b.ws.sumDy
	sumDyXhat := b.ws.sumDyXhat
	for f := 0; f < b.F; f++ {
		sumDy[f] = 0
		sumDyXhat[f] = 0
	}
	b.forEach(dy, spatial, func(f, i int) {
		sumDy[f] += dy.Data[i]
		sumDyXhat[f] += float64(dy.Data[i] * b.xhat.Data[i])
	})
	copy(b.dbeta.Data, sumDy)
	copy(b.dgamma.Data, sumDyXhat)
	// Backward writes every Grads slot, the running statistics' zeros too.
	clear(b.zeroA.Data)
	clear(b.zeroB.Data)

	dx := b.ws.dx.Ensure(b.inShape...)
	b.forEach(dy, spatial, func(f, i int) {
		dx.Data[i] = b.gamma.Data[f] * b.invStd[f] / count *
			(float64(count*dy.Data[i]) - sumDy[f] - float64(b.xhat.Data[i]*sumDyXhat[f]))
	})
	return dx
}

// Params implements Layer. The running statistics are included (with zero
// gradients) so model snapshots and FedAvg aggregation carry them.
func (b *BatchNorm) Params() []*tensor.Tensor {
	return []*tensor.Tensor{b.gamma, b.beta, b.runMean, b.runVar}
}

// Grads implements Layer. Running-statistic "gradients" are permanently
// zero tensors, so optimizers leave the buffers untouched.
func (b *BatchNorm) Grads() []*tensor.Tensor {
	return []*tensor.Tensor{b.dgamma, b.dbeta, b.zeroA, b.zeroB}
}

// OutShape implements Layer (shape-preserving).
func (b *BatchNorm) OutShape(in []int) []int {
	want := b.F
	if !(len(in) == 1 && in[0] == want) && !(len(in) == 3 && in[0] == want) {
		panic(fmt.Sprintf("nn: %s cannot follow per-sample shape %v", b.Name(), in))
	}
	return append([]int(nil), in...)
}

// FwdFLOPs implements Layer: ~8 ops per element (normalize + affine).
func (b *BatchNorm) FwdFLOPs(in []int) int64 { return 8 * int64(prod(in)) }
