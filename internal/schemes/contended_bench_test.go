package schemes_test

import (
	"math/rand"
	"sync"
	"testing"

	"gsfl/internal/data"
	"gsfl/internal/model"
	"gsfl/internal/optim"
	"gsfl/internal/schemes"
	"gsfl/internal/tensor"
)

// BenchmarkSplitStepContended times pop_1m's split step — the mlp
// 192→64→43 cut after its hidden activation, batch 8 — run by two
// goroutines at once, each training its own replica, as two group
// replicas of a GSFL round do. Every product is far below the fork
// floor, so the two never share a worker; what they can share is the
// engine's scratch, and this is where that sharing costs. One op is one
// step on each replica.
func BenchmarkSplitStepContended(b *testing.B) {
	type replica struct {
		m          *model.SplitModel
		copt, sopt optim.Optimizer
		ws         schemes.StepWorkspace
	}
	arch := model.MLP(192, 64, 43)
	reps := make([]*replica, 2)
	for i := range reps {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		r := &replica{m: arch.NewSplit(rng, model.MLPDefaultCut),
			copt: optim.NewSGDMomentum(0.01, 0.9), sopt: optim.NewSGDMomentum(0.01, 0.9)}
		r.ws.Batch = data.Batch{X: tensor.New(8, 192).RandNormal(rng, 0, 1), Y: make([]int, 8)}
		for j := range r.ws.Batch.Y {
			r.ws.Batch.Y[j] = rng.Intn(43)
		}
		r.ws.SplitStep(r.m, r.copt, r.sopt, r.ws.Batch, false)
		reps[i] = r
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for _, r := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				r.ws.SplitStep(r.m, r.copt, r.sopt, r.ws.Batch, false)
			}
		}()
	}
	wg.Wait()
}
