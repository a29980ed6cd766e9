// Benchmarks regenerating every figure and table of the paper's
// evaluation (see DESIGN.md's experiment index). Each benchmark prints
// the figure series / table rows it reproduces via b.Logf (run with
// `go test -bench=. -benchmem -v` to see them) and reports the headline
// quantity via b.ReportMetric.
//
// Scale: by default the benchmarks run a reduced configuration so the
// whole suite finishes in minutes on a laptop. Set GSFL_FULL=1 for the
// paper-scale configuration (30 clients, 6 groups, 32x32 images) — this
// takes hours of CPU time but exercises the identical code paths.
package benchmarks_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"gsfl/internal/experiment"
	"gsfl/internal/metrics"
	"gsfl/internal/parallel"
	"gsfl/internal/tensor"
)

// benchScale returns the experiment spec plus round/eval counts for the
// selected scale.
func benchScale() (experiment.Spec, int, int) {
	if os.Getenv("GSFL_FULL") == "1" {
		return experiment.PaperSpec(), 200, 10
	}
	spec := experiment.PaperSpec()
	spec.Clients = 10
	spec.Groups = 2
	spec.ImageSize = 12
	spec.TrainPerClient = 60
	spec.TestPerClass = 3
	spec.Hyper.Batch = 8
	spec.Hyper.StepsPerClient = 2
	spec.Device.N = spec.Clients
	return spec, 15, 3
}

func logCurves(b *testing.B, title string, curves []*metrics.Curve) {
	b.Helper()
	b.Logf("=== %s ===", title)
	for _, c := range curves {
		b.Logf("scheme %s:", c.Scheme)
		for _, p := range c.Points {
			b.Logf("  round %4d  latency %10.3fs  loss %7.4f  acc %6.2f%%",
				p.Round, p.LatencySeconds, p.Loss, p.Accuracy*100)
		}
	}
}

// BenchmarkFig2aAccuracyVsRounds regenerates Fig. 2(a): accuracy vs
// training rounds for CL, SL, GSFL, FL.
func BenchmarkFig2aAccuracyVsRounds(b *testing.B) {
	spec, rounds, evalEvery := benchScale()
	var curves []*metrics.Curve
	for i := 0; i < b.N; i++ {
		var err error
		curves, err = experiment.RunFig2a(spec, rounds, evalEvery)
		if err != nil {
			b.Fatal(err)
		}
	}
	logCurves(b, "Fig 2(a): accuracy vs rounds (CL/SL/GSFL/FL)", curves)
	for _, c := range curves {
		b.ReportMetric(c.FinalAccuracy()*100, "final_acc_%_"+c.Scheme)
	}
}

// BenchmarkFig2bAccuracyVsLatency regenerates Fig. 2(b): accuracy vs
// cumulative wall-clock training latency for GSFL vs SL.
func BenchmarkFig2bAccuracyVsLatency(b *testing.B) {
	spec, rounds, evalEvery := benchScale()
	var curves []*metrics.Curve
	for i := 0; i < b.N; i++ {
		var err error
		curves, err = experiment.RunFig2b(spec, rounds, evalEvery)
		if err != nil {
			b.Fatal(err)
		}
	}
	logCurves(b, "Fig 2(b): accuracy vs latency (GSFL vs SL)", curves)
	var gsflC, slC *metrics.Curve
	for _, c := range curves {
		if c.Scheme == "gsfl" {
			gsflC = c
		} else {
			slC = c
		}
	}
	gl := gsflC.Points[len(gsflC.Points)-1].LatencySeconds
	sl := slC.Points[len(slC.Points)-1].LatencySeconds
	b.ReportMetric(gl, "gsfl_total_latency_s")
	b.ReportMetric(sl, "sl_total_latency_s")
	if sl > 0 {
		// The paper reports ≈31.45% at its scale.
		b.ReportMetric((sl-gl)/sl*100, "delay_reduction_%")
	}
}

// BenchmarkTable1ConvergenceRounds regenerates the convergence table
// behind the "nearly 500% improvement in convergence speed vs FL" claim.
func BenchmarkTable1ConvergenceRounds(b *testing.B) {
	spec, rounds, evalEvery := benchScale()
	target := 0.5
	if os.Getenv("GSFL_FULL") == "1" {
		target = 0.85
	}
	for i := 0; i < b.N; i++ {
		tbl, curves, err := experiment.RunTable1(spec, rounds, evalEvery, target)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Logf("=== Table 1: rounds to %.0f%% accuracy ===", target*100)
			for _, r := range tbl.Rows {
				b.Logf("  %v", r)
			}
			var gsflC, flC *metrics.Curve
			for _, c := range curves {
				switch c.Scheme {
				case "gsfl":
					gsflC = c
				case "fl":
					flC = c
				}
			}
			if s, ok := metrics.SpeedupVsRounds(gsflC, flC, target); ok {
				b.ReportMetric(s*100, "gsfl_vs_fl_speedup_%")
			}
		}
	}
}

// BenchmarkTable2LatencyBreakdown regenerates the per-round latency
// breakdown (the decomposition behind the 31.45% delay-reduction claim).
func BenchmarkTable2LatencyBreakdown(b *testing.B) {
	spec, rounds, _ := benchScale()
	for i := 0; i < b.N; i++ {
		tbl, err := experiment.RunTable2(spec, rounds)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Logf("=== Table 2: per-round latency breakdown (s) ===")
			b.Logf("%v", tbl.Columns)
			for _, r := range tbl.Rows {
				b.Logf("  %s: total %v (client %v, up %v, server %v, down %v, relay %v, agg %v)",
					r["scheme"], r["total_s"], r["client_compute_s"], r["uplink_s"],
					r["server_compute_s"], r["downlink_s"], r["relay_s"], r["aggregation_s"])
			}
		}
	}
}

// BenchmarkTable3ServerStorage regenerates the §I storage comparison:
// M server-side replicas (GSFL) vs N (SplitFed).
func BenchmarkTable3ServerStorage(b *testing.B) {
	spec, _, _ := benchScale()
	for i := 0; i < b.N; i++ {
		tbl, err := experiment.RunTable3(spec)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Logf("=== Table 3: edge-server storage ===")
			for _, r := range tbl.Rows {
				b.Logf("  %s: %v replicas, %v bytes", r["scheme"], r["server_replicas"], r["server_storage_bytes"])
				if r["scheme"] == "gsfl" {
					b.ReportMetric(float64(r["server_replicas"].(int)), "gsfl_replicas")
				} else {
					b.ReportMetric(float64(r["server_replicas"].(int)), "sfl_replicas")
				}
			}
		}
	}
}

// BenchmarkAblationCutLayer sweeps the cut layer (future work A1).
func BenchmarkAblationCutLayer(b *testing.B) {
	spec, rounds, evalEvery := benchScale()
	cuts := []int{1, 3, 6, 9}
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunAblationCutLayer(spec, cuts, rounds, evalEvery)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Logf("=== Ablation A1: cut-layer sweep ===")
			for _, r := range res {
				b.Logf("  cut %d: smashed %6d B/batch, client model %6d B, round %8.3fs, final acc %5.2f%%",
					r.Cut, r.SmashedBytes, r.ClientBytes, r.RoundLatency, r.FinalAccuracy*100)
			}
		}
	}
}

// BenchmarkAblationGrouping sweeps group count and strategy (A2).
func BenchmarkAblationGrouping(b *testing.B) {
	spec, rounds, evalEvery := benchScale()
	counts := []int{1, 2, 5}
	if os.Getenv("GSFL_FULL") == "1" {
		counts = []int{1, 2, 3, 6, 10, 15, 30}
	}
	strategies := []string{"round-robin", "random", "compute-balanced"}
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunAblationGrouping(spec, counts, strategies, rounds, evalEvery)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Logf("=== Ablation A2: grouping sweep ===")
			for _, r := range res {
				b.Logf("  M=%2d %-17s round %8.3fs  final acc %5.2f%%",
					r.Groups, r.Strategy, r.RoundLatency, r.FinalAccuracy*100)
			}
		}
	}
}

// BenchmarkAblationResourceAllocation compares bandwidth allocators (A3).
func BenchmarkAblationResourceAllocation(b *testing.B) {
	spec, rounds, _ := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunAblationAllocation(spec, rounds)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Logf("=== Ablation A3: bandwidth allocation ===")
			for _, r := range res {
				b.Logf("  %-17s round %8.3fs", r.Allocator, r.RoundLatency)
				b.ReportMetric(r.RoundLatency, fmt.Sprintf("round_s_%s", r.Allocator))
			}
		}
	}
}

// BenchmarkAblationPipelining compares sequential-stage GSFL against
// communication/computation-overlapped turns (reference [2]'s parallel
// design; extension P in DESIGN.md).
func BenchmarkAblationPipelining(b *testing.B) {
	spec, rounds, evalEvery := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunAblationPipelining(spec, rounds, evalEvery)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Logf("=== Ablation P: pipelined turns ===")
			for _, r := range res {
				b.Logf("  pipelined=%-5v round %8.4fs  final acc %5.2f%%",
					r.Pipelined, r.RoundLatency, r.FinalAccuracy*100)
				if r.Pipelined {
					b.ReportMetric(r.RoundLatency, "round_s_pipelined")
				} else {
					b.ReportMetric(r.RoundLatency, "round_s_sequential")
				}
			}
		}
	}
}

// BenchmarkAblationQuantization compares float32-wire GSFL against 8-bit
// quantized smashed-data/gradient transfers (extension Q in DESIGN.md).
func BenchmarkAblationQuantization(b *testing.B) {
	spec, rounds, evalEvery := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunAblationQuantization(spec, rounds, evalEvery)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Logf("=== Ablation Q: 8-bit transfer quantization ===")
			for _, r := range res {
				b.Logf("  quantized=%-5v round %8.4fs  final acc %5.2f%%",
					r.Quantized, r.RoundLatency, r.FinalAccuracy*100)
			}
		}
	}
}

// BenchmarkAblationDropout sweeps per-round client unavailability
// (extension D in DESIGN.md).
func BenchmarkAblationDropout(b *testing.B) {
	spec, rounds, evalEvery := benchScale()
	probs := []float64{0, 0.1, 0.3}
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunAblationDropout(spec, probs, rounds, evalEvery)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Logf("=== Ablation D: client dropout robustness ===")
			for _, r := range res {
				b.Logf("  p=%.1f round %8.4fs  final acc %5.2f%%",
					r.DropoutProb, r.RoundLatency, r.FinalAccuracy*100)
			}
		}
	}
}

// BenchmarkAblationNonIID sweeps data heterogeneity (Dirichlet alpha)
// for GSFL vs FL (extension N in DESIGN.md).
func BenchmarkAblationNonIID(b *testing.B) {
	spec, rounds, evalEvery := benchScale()
	alphas := []float64{0.1, 1, 100}
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunAblationNonIID(spec, alphas, rounds, evalEvery)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Logf("=== Ablation N: non-IID sweep (GSFL vs FL) ===")
			for _, r := range res {
				b.Logf("  alpha=%-6g %-4s final acc %5.2f%%  rounds-to-50%%: %d (reached=%v)",
					r.Alpha, r.Scheme, r.FinalAccuracy*100, r.RoundsToHalf, r.ReachedHalf)
			}
		}
	}
}

// BenchmarkSeedVariance reruns GSFL across seeds and reports the spread
// of final accuracy (extension S in DESIGN.md).
func BenchmarkSeedVariance(b *testing.B) {
	spec, rounds, evalEvery := benchScale()
	for i := 0; i < b.N; i++ {
		st, err := experiment.RunSeedSweep(spec, "gsfl", 3, rounds, evalEvery)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Logf("=== Extension S: seed variance ===")
			b.Logf("  gsfl over %d seeds: mean %5.2f%%  std %5.2f%%  range [%5.2f%%, %5.2f%%]",
				st.Seeds, st.MeanAcc*100, st.StdAcc*100, st.WorstAcc*100, st.BestAcc*100)
			b.ReportMetric(st.MeanAcc*100, "mean_final_acc_%")
			b.ReportMetric(st.StdAcc*100, "std_final_acc_%")
		}
	}
}

// speedupWorkers are the pool widths the serial-vs-parallel benchmarks
// sweep. workers=1 is the serial baseline; compare ns/op across sub-
// benchmarks to read off the speedup (the acceptance bar is ≥2x at 4+
// workers on multi-core hardware).
var speedupWorkers = []int{1, 2, 4, 8}

// BenchmarkParallelMatMul measures the tensor hot path's row-partitioned
// matrix multiply across worker counts, on the matrix shape a GTSRB CNN
// conv layer produces (weights 32×288, columns 288×1024).
func BenchmarkParallelMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	w := tensor.New(32, 288).RandNormal(rng, 0, 1)
	col := tensor.New(288, 1024).RandNormal(rng, 0, 1)
	dst := tensor.New(32, 1024)
	for _, workers := range speedupWorkers {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			parallel.SetWorkers(workers)
			defer parallel.SetWorkers(0)
			for i := 0; i < b.N; i++ {
				tensor.MatMulInto(dst, w, col)
			}
		})
	}
}

// BenchmarkParallelGroupRound measures one full GSFL round — the paper's
// M groups training concurrently — across worker counts. The model
// numerics and the simulated-latency ledger are bit-identical at every
// width (asserted by the determinism tests); only wall-clock time drops.
func BenchmarkParallelGroupRound(b *testing.B) {
	spec := experiment.TestSpec()
	spec.Clients = 8
	spec.Groups = 4
	spec.ImageSize = 16
	spec.TrainPerClient = 64
	spec.Hyper.Batch = 16
	spec.Hyper.StepsPerClient = 2
	spec.Device.N = spec.Clients
	for _, workers := range speedupWorkers {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			parallel.SetWorkers(workers)
			defer parallel.SetWorkers(0)
			tr, err := experiment.NewTrainer(spec, "gsfl")
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tr.Round(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelEvaluate measures test-set evaluation (forward passes
// only — the conv layers' batched im2col and sample-partitioned matmuls)
// across worker counts.
func BenchmarkParallelEvaluate(b *testing.B) {
	spec := experiment.TestSpec()
	spec.ImageSize = 16
	spec.TestPerClass = 4
	for _, workers := range speedupWorkers {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			parallel.SetWorkers(workers)
			defer parallel.SetWorkers(0)
			tr, err := experiment.NewTrainer(spec, "gsfl")
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tr.Evaluate(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkValidationEventDriven quantifies the gap between the analytic
// position-synchronized latency model and true event-driven processor
// sharing (experiment V in DESIGN.md).
func BenchmarkValidationEventDriven(b *testing.B) {
	spec, _, _ := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunValidationEventDriven(spec)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Logf("=== Experiment V: latency-model validation ===")
			b.Logf("  analytic %8.4fs  event-driven %8.4fs  gap %+.2f%%",
				res.AnalyticSeconds, res.EventDrivenSeconds, res.RelativeGap*100)
			b.ReportMetric(res.RelativeGap*100, "model_gap_%")
		}
	}
}
