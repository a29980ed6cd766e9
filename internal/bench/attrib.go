package main

import (
	"fmt"
	"io"
	"strings"
)

// attribRow says: one parent op makes count calls of child. Printed top
// to bottom the rows walk kernel → nn layer → split step → round → sweep
// job → TCP round → fleet makespan; % of parent is count × the child's
// unit cost ÷ the parent's.
type attribRow struct {
	child  string
	count  float64
	parent string
}

func attribRows() []attribRow {
	spec := paperSpec(0)
	steps := float64(spec.Clients * spec.Hyper.StepsPerClient)
	groups := float64(spec.Groups)
	const jobRounds, schemeCount = 20, 5 // gridJobs: 20 rounds a job, five schemes in equal parts
	turns := float64(echoClients) / 6    // tcp_echo: turns in one group's chain
	const echoSteps = 2
	return []attribRow{
		{"tensor.conv_gemm.ns", 1, "nn.conv.ns"},
		{"nn.conv.ns", 1, "schemes.split_step.ns"},
		{"nn.dense.ns", 1, "schemes.split_step.ns"},
		{"nn.pool.ns", 1, "schemes.split_step.ns"},
		{"nn.act.ns", 1, "schemes.split_step.ns"},
		{"optim.sgd_step.ns", 1, "schemes.split_step.ns"},
		{"loss.softmax_ce.ns", 1, "schemes.split_step.ns"},
		{"schemes.split_step.ns", steps, "gsfl.round.ns"},
		{"data.loader_next.ns", steps, "gsfl.round.ns"},
		{"schemes.price_turn.ns", steps, "gsfl.round.ns"},
		{"model.snapshot.ns", groups, "gsfl.round.ns"},
		{"agg.fedavg.ns", 1, "gsfl.round.ns"},
		{"gsfl.round.ns", 1.0 / pinnedProcs, "gsfl.round_w2.ns"},
		{"schemes.evaluate.ns", 1.0 / 20, "gsfl.round_w2.ns"},
		{"pop.begin_round.ns", 1, "pop.round.ns"},
		{"env.build_test.ns", 1, "sweep.job.ns"},
		{"gsfl.round_test.ns", jobRounds / schemeCount, "sweep.job.ns"},
		{"sl.round.ns", jobRounds / schemeCount, "sweep.job.ns"},
		{"sfl.round.ns", jobRounds / schemeCount, "sweep.job.ns"},
		{"fl.round.ns", jobRounds / schemeCount, "sweep.job.ns"},
		{"cl.round.ns", jobRounds / schemeCount, "sweep.job.ns"},
		{"sim.checkpoint_save.ns", jobRounds, "sweep.job.ns"},
		{"sweep.store_progress.ns", jobRounds, "sweep.job.ns"},
		{"sweep.store_record.ns", 1, "sweep.job.ns"},
		{"sweep.job.ns", probeJobs / pinnedProcs, "sweep.makespan.ns"},
		{"sweep.compact.ns", 1, "sweep.makespan.ns"},
		{"transport.phase.write-train.p50_ms", turns, "transport.round.ns"},
		{"transport.phase.read-smashed.p50_ms", turns * echoSteps, "transport.round.ns"},
		{"transport.phase.server-compute.p50_ms", turns * echoSteps, "transport.round.ns"},
		{"transport.phase.write-gradient.p50_ms", turns * echoSteps, "transport.round.ns"},
		{"transport.phase.read-return.p50_ms", turns, "transport.round.ns"},
		{"gsfl.round_w2.ns", 1, "transport.train_round.ns"},
		{"sweep.makespan.ns", 1, "fleet.makespan.ns"},
	}
}

// nsOf reads a time metric in nanoseconds whatever unit it is kept in.
func nsOf(m Metric) float64 {
	if m.Unit == "ms" {
		return m.Value * 1e6
	}
	return m.Value
}

// printAttribution prints the table from one traced pass's metrics.
// allocs and bytes are shown where a probe counted them.
func printAttribution(out io.Writer, workload string, layers map[string]Metric) {
	fmt.Fprintf(out, "%s attribution (unit costs at workers=1 on sim_paper's shapes unless the name says otherwise)\n", workload)
	fmt.Fprintf(out, "  %-38s %14s %9s %10s %8s  %-26s %s\n", "row", "ns", "allocs", "bytes", "count", "parent", "% of parent")
	cell := func(name string) string {
		if m, ok := layers[name]; ok {
			return fmt.Sprintf("%.1f", m.Value)
		}
		return "-"
	}
	for _, r := range attribRows() {
		base := strings.TrimSuffix(r.child, ".ns")
		share := shareOfParent(r.count, nsOf(layers[r.child]), nsOf(layers[r.parent]))
		fmt.Fprintf(out, "  %-38s %14.0f %9s %10s %8.2f  %-26s %5.1f%%\n",
			r.child, nsOf(layers[r.child]), cell(base+".allocs"), cell(base+".bytes"), r.count, r.parent, 100*share)
	}
}
