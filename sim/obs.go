package sim

import (
	"io"
	"strings"

	"gsfl/internal/metrics"
	"gsfl/internal/simnet"
)

// virtualSecondsBuckets extends the default latency buckets upward:
// virtual round latencies at paper scale run into minutes, well past
// the wall-clock-oriented defaults.
var virtualSecondsBuckets = append(append([]float64(nil),
	metrics.DefSecondsBuckets...), 120, 300, 600, 1800)

// RunMetrics is a Runner observer that aggregates a run's rounds into
// operational metrics — round and per-phase virtual-latency histograms,
// round/eval counters, last accuracy — and serves them in the
// Prometheus text exposition format. It backs gsfl-sim's -metrics
// endpoint the same way the transport AP's registry backs its own.
type RunMetrics struct {
	reg     *metrics.Registry
	rounds  *metrics.Counter
	evals   *metrics.Counter
	round   *metrics.Histogram
	phase   [len(phaseComponents)]*metrics.Histogram
	elapsed *metrics.Gauge
	accPPM  *metrics.Gauge
}

var phaseComponents = [...]simnet.Component{
	simnet.ClientCompute, simnet.Uplink, simnet.ServerCompute,
	simnet.Downlink, simnet.Relay, simnet.Aggregation,
}

// NewRunMetrics builds an empty run-metrics registry. Subscribe it with
// sim.WithObserver and serve Handler from an HTTP mux.
func NewRunMetrics() *RunMetrics {
	reg := metrics.NewRegistry()
	m := &RunMetrics{
		reg:    reg,
		rounds: reg.Counter("gsfl_sim_rounds_total", "training rounds completed"),
		evals:  reg.Counter("gsfl_sim_evals_total", "test-set evaluations run"),
		round: reg.Histogram("gsfl_sim_round_virtual_seconds",
			"per-round critical-path latency on the virtual clock", virtualSecondsBuckets),
		elapsed: reg.Gauge("gsfl_sim_virtual_elapsed_ms",
			"cumulative virtual training time in milliseconds"),
		accPPM: reg.Gauge("gsfl_sim_last_accuracy_ppm",
			"most recent test accuracy in parts per million"),
	}
	for i, c := range phaseComponents {
		name := "gsfl_sim_phase_" + strings.ReplaceAll(c.String(), "-", "_") + "_virtual_seconds"
		m.phase[i] = reg.Histogram(name,
			"per-round virtual seconds attributed to the "+c.String()+" phase", virtualSecondsBuckets)
	}
	return m
}

// OnRound implements Observer.
func (m *RunMetrics) OnRound(e RoundEvent) {
	m.rounds.Inc()
	m.round.Observe(e.RoundSeconds)
	m.elapsed.Set(int64(e.ElapsedSeconds * 1000))
	for i, c := range phaseComponents {
		if s := e.Ledger.Get(c); s > 0 {
			m.phase[i].Observe(s)
		}
	}
	if e.Eval != nil {
		m.evals.Inc()
		m.accPPM.Set(int64(e.Eval.Accuracy * 1e6))
	}
}

// WriteText renders the current metrics page into w in the text
// exposition format.
func (m *RunMetrics) WriteText(w io.Writer) error {
	return m.reg.WriteText(w)
}
