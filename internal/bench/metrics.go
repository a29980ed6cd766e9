package main

import (
	"fmt"
	"io"
)

// endToEnd is one metric a user of the system sees, with the share of
// the base's median it may worsen by before -compare calls it worse.
// Every one is lower-is-better, and every time is at the reference host
// speed (calib.go).
type endToEnd struct {
	name, unit string
	bound      float64
	contract   bool // listed in BENCHMARK.json and printed in a driver's result line
	what       string
}

var endToEndMetrics = []endToEnd{
	{"setup_s", "s", 0.25, true, "child start to first timed op: world, trainer, AP and clients, population or store construction plus the warm-up ops; median of 3 children; differences under 50 ms never count"},
	{"wall_s", "s", 0.25, true, "wall time of the fixed timed op count (grids: makespan including Compact)"},
	{"op_ms_p50", "ms", 0.25, true, "median op time (round: RoundEvent.HostSeconds / RoundStats.Duration; job: started→done / leased→recorded)"},
	{"op_ms_p90", "ms", 0.25, false, "p90 op time, the highest percentile with 10 samples beyond it at 100 ops"},
	{failShare, "ratio", 0, false, "failed ops / attempted ops; a failed output check makes it 1; any increase is a regression"},
	{"peak_rss_mb", "MiB", 0.15, true, "the measuring child's peak resident set (rusage Maxrss) less the harness's calibration buffer"},
}

// Two of the six stay out of BENCHMARK.json and a driver's result line,
// and are end-to-end metrics everywhere else (printed, -out, -compare).
//
// failShare is 0 on every healthy run, and a bound that is a share of
// the base's median cannot hold a metric whose median is 0; the line's
// failed/attempted/correct carry it.
//
// op_ms_p90 is the host's tail, not the program's, on the workloads whose
// ops all do the same work: ten runs of unchanged code spread by 15-40 %
// on a shared box, past any bound the contract allows, and the host-speed
// correction, which rates a whole run, takes out only part of that. Judge it
// from alternated pairs (README), where `unresolved` exists for it.
const failShare = "fail_share"

// hostSlowdown is printed beside the end-to-end metrics: the median
// calibration kernel over the timed interval ÷ refKernelMs. A reported
// time × hostSlowdown is the time as the clock saw it.
const hostSlowdown = "host_slowdown"

// contractMetrics are the end-to-end metrics BENCHMARK.json lists.
func contractMetrics() []endToEnd {
	var out []endToEnd
	for _, m := range endToEndMetrics {
		if m.contract {
			out = append(out, m)
		}
	}
	return out
}

// layerMetric is one per-layer number of the traced pass: which layer
// it belongs to and which end-to-end metric, on which workload, a change
// to it should move — written down before anything is optimised.
type layerMetric struct {
	name, unit, better string
	layer, moves       string
}

const (
	mvKernel = "op_ms_p50 on sim_paper, tcp_train; nothing on tcp_echo"
	mvRound  = "op_ms_p50 on sim_paper"
	mvGridOp = "op_ms_p50 on sweep_grid"
	mvSmall  = "under 1% of sim_paper; agg and model show on tcp_echo only"
	mvGrid   = "wall_s on sweep_grid, fleet_grid; nothing on sim_paper"
	mvTCP    = "op_ms_p50 on tcp_echo first, tcp_train second; nothing on sim_paper"
	mvFleet  = "wall_s on fleet_grid only"
	mvPop    = "op_ms_p50, setup_s, peak_rss_mb on pop_1m; nothing elsewhere"
	mvObs    = "nothing: end-to-end numbers are taken with tracing off"
)

var layerMetrics = []layerMetric{
	{"tensor.matmul_256.ns", "ns", "lower", "internal/tensor", mvKernel},
	{"tensor.matmul_256.allocs", "count", "lower", "internal/tensor", mvKernel},
	{"tensor.matmul_256_fast.ns", "ns", "lower", "internal/tensor", "nothing: no workload runs the fast numeric mode"},
	{"tensor.conv_gemm.ns", "ns", "lower", "internal/tensor", mvKernel},
	{"tensor.gemm_below_floor.ns", "ns", "lower", "internal/tensor", mvGridOp + " (TestSpec shapes fall under the GEMM floor)"},
	{"nn.conv.ns", "ns", "lower", "internal/nn", mvKernel},
	{"nn.dense.ns", "ns", "lower", "internal/nn", mvKernel},
	{"nn.pool.ns", "ns", "lower", "internal/nn", mvKernel},
	{"nn.act.ns", "ns", "lower", "internal/nn", mvKernel},
	{"nn.share_of_split_step", "ratio", "higher", "internal/nn", "what is left is schemes/optim/loss overhead inside a split step"},
	{"schemes.split_step.ns", "ns", "lower", "internal/schemes", mvRound + ", tcp_train"},
	{"schemes.split_step.allocs", "count", "lower", "internal/schemes", mvRound},
	{"schemes.split_step.share_of_round", "ratio", "higher", "internal/schemes", "what is left is round bookkeeping in internal/gsfl"},
	{"schemes.split_step_quant.ns", "ns", "lower", "internal/schemes", mvGridOp},
	{"schemes.local_step.ns", "ns", "lower", "internal/schemes", mvGridOp + " (fl, cl)"},
	{"schemes.evaluate.ns", "ns", "lower", "internal/schemes", "op_ms_p90 on sim_paper (every 20th round evaluates)"},
	{"schemes.price_turn.ns", "ns", "lower", "internal/schemes", mvRound},
	{"quantize.roundtrip.ns", "ns", "lower", "internal/quantize", mvGridOp},
	{"optim.sgd_step.ns", "ns", "lower", "internal/optim", mvSmall},
	{"loss.softmax_ce.ns", "ns", "lower", "internal/loss", mvSmall},
	{"data.loader_next.ns", "ns", "lower", "internal/data", mvSmall},
	{"agg.fedavg.ns", "ns", "lower", "internal/agg", mvSmall},
	{"model.snapshot.ns", "ns", "lower", "internal/model", mvSmall},
	{"gsfl.round.ns", "ns", "lower", "internal/gsfl", mvRound},
	{"gsfl.round.allocs", "count", "lower", "internal/gsfl", mvRound},
	{"gsfl.round.bytes", "bytes", "lower", "internal/gsfl", mvRound},
	{"gsfl.round_w2.ns", "ns", "lower", "internal/gsfl", mvRound},
	{"parallel.scaling_eff", "ratio", "higher", "internal/parallel", mvRound},
	{"gsfl.round_test.ns", "ns", "lower", "internal/gsfl", mvGridOp},
	{"sl.round.ns", "ns", "lower", "internal/schemes/sl", mvGridOp + " and wall_s only"},
	{"sfl.round.ns", "ns", "lower", "internal/schemes/sfl", mvGridOp + " and wall_s only"},
	{"fl.round.ns", "ns", "lower", "internal/schemes/fl", mvGridOp + " and wall_s only"},
	{"cl.round.ns", "ns", "lower", "internal/schemes/cl", mvGridOp + " and wall_s only"},
	{"env.build.ns", "ns", "lower", "env", "setup_s on sim_paper, tcp_train"},
	{"env.build_test.ns", "ns", "lower", "env", mvGridOp + " (one Build per job)"},
	{"sim.runner_overhead_share", "ratio", "lower", "sim", "op_ms_p50 on every simulator workload"},
	{"sim.checkpoint_save.ns", "ns", "lower", "sim", mvGrid},
	{"sim.checkpoint.bytes", "bytes", "lower", "sim", mvGrid},
	{"sim.resume.ns", "ns", "lower", "sim", "nothing: no workload is killed and resumed"},
	{"sweep.job.ns", "ns", "lower", "sweep", mvGridOp},
	{"sweep.makespan.ns", "ns", "lower", "sweep", mvGrid},
	{"sweep.slot_busy_share", "ratio", "higher", "sweep", mvGrid},
	{"sweep.store_record.ns", "ns", "lower", "sweep", mvGrid},
	{"sweep.store_progress.ns", "ns", "lower", "sweep", mvGrid},
	{"sweep.compact.ns", "ns", "lower", "sweep", mvGrid},
	{"sweep.ckpt_share", "ratio", "lower", "sweep", mvGrid},
	{"sweep.scaling_jobs2", "ratio", "higher", "sweep", "wall_s on sweep_grid"},
	{"transport.round.ns", "ns", "lower", "internal/transport", mvTCP},
	{"transport.bytes_per_round", "bytes", "lower", "internal/transport", mvTCP},
	{"transport.frames_per_round", "count", "lower", "internal/transport", mvTCP},
	{"transport.phase.write-train.p50_ms", "ms", "lower", "internal/transport", mvTCP},
	{"transport.phase.read-smashed.p50_ms", "ms", "lower", "internal/transport", mvTCP},
	{"transport.phase.server-compute.p50_ms", "ms", "lower", "internal/transport", mvTCP},
	{"transport.phase.write-gradient.p50_ms", "ms", "lower", "internal/transport", mvTCP},
	{"transport.phase.read-return.p50_ms", "ms", "lower", "internal/transport", mvTCP},
	{"transport.train_round.ns", "ns", "lower", "internal/transport", "op_ms_p50 on tcp_train"},
	{"transport.over_sim_share", "ratio", "lower", "internal/transport", "op_ms_p50 on tcp_train minus sim_paper"},
	{"fleet.makespan.ns", "ns", "lower", "fleet", mvFleet},
	{"fleet.overhead_share", "ratio", "lower", "fleet", mvFleet},
	{"fleet.leases_granted", "count", "lower", "fleet", mvFleet},
	{"fleet.checkpoint_uploads", "count", "lower", "fleet", mvFleet},
	{"fleet.checkpoint_upload_bytes", "bytes", "lower", "fleet", mvFleet},
	{"fleet.worker_idle_share", "ratio", "lower", "fleet", mvFleet},
	{"pop.build.ns", "ns", "lower", "pop", "setup_s on pop_1m"},
	{"pop.memory_bytes", "bytes", "lower", "pop", "peak_rss_mb on pop_1m"},
	{"pop.begin_round.ns", "ns", "lower", "pop", mvPop},
	{"pop.begin_round.allocs", "count", "lower", "pop", mvPop},
	{"pop.round.ns", "ns", "lower", "pop", mvPop},
	{"pop.begin_round.share_of_round", "ratio", "lower", "pop", mvPop},
	{"obs.trace_overhead.sim_paper", "ratio", "lower", "obs", mvObs},
	{"obs.trace_overhead.tcp_train", "ratio", "lower", "obs", mvObs},
	{"obs.trace_overhead.sweep_grid", "ratio", "lower", "obs", mvObs},
	{"obs.events_per_round", "count", "lower", "obs", "obs.trace_overhead.sim_paper"},
}

func layerNames() []string {
	out := make([]string, len(layerMetrics))
	for i, m := range layerMetrics {
		out[i] = m.name
	}
	return out
}

func printList(out io.Writer) {
	fmt.Fprintf(out, "workloads (GOMAXPROCS=%d, workers=%d, op counts at -seconds %d):\n", pinnedProcs, pinnedProcs, nominalSeconds)
	for _, w := range workloads {
		fmt.Fprintf(out, "  %-11s %4d %ss + %d warm-up  %s\n", w.name, w.ops, w.op, w.warm, w.why)
	}
	fmt.Fprintln(out, "end-to-end metrics (-trace 0), lower is better, times at the reference host speed:")
	for _, m := range endToEndMetrics {
		where := "harness only"
		if m.contract {
			where = "BENCHMARK.json"
		}
		fmt.Fprintf(out, "  %-12s %-5s bound %.2f  %-14s  %s\n", m.name, m.unit, m.bound, where, m.what)
	}
	fmt.Fprintln(out, "per-layer metrics (-trace 1):")
	for _, m := range layerMetrics {
		fmt.Fprintf(out, "  %-40s %-6s %-6s %-20s → %s\n", m.name, m.unit, m.better, m.layer, m.moves)
	}
}
