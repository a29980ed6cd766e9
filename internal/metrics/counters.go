package metrics

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// This file adds operational counters — the Prometheus-style side of the
// package, next to the training-curve statistics above. The real-TCP
// deployment (internal/transport) registers rounds/s, bytes in/out,
// straggler and membership counters here and serves them from the AP's
// -metrics endpoint in the standard text exposition format.

// Counter is a monotonically increasing int64 metric. Safe for
// concurrent use.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// Add increments the counter by n (n must be non-negative).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("metrics: negative Add(%d) on counter %s", n, c.name))
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable int64 metric. Safe for concurrent use.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add shifts the gauge by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry holds a set of named counters, gauges, and histograms and
// renders them in the Prometheus text exposition format. Metrics are
// emitted sorted by name, so scrapes are byte-stable for a fixed value
// set regardless of registration order.
type Registry struct {
	mu     sync.Mutex
	byName map[string]any // *Counter, *Gauge, or *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]any)}
}

// Counter returns the counter registered under name, creating it on
// first use. Registering the same name as a different metric type
// panics (a programmer error at wiring time).
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		c, ok := m.(*Counter)
		if !ok {
			panic(fmt.Sprintf("metrics: %s already registered as a different metric type", name))
		}
		return c
	}
	c := &Counter{name: name, help: help}
	r.byName[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. Registering the same name as a different metric type panics.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		g, ok := m.(*Gauge)
		if !ok {
			panic(fmt.Sprintf("metrics: %s already registered as a different metric type", name))
		}
		return g
	}
	g := &Gauge{name: name, help: help}
	r.byName[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use with the given bucket upper bounds (see DefSecondsBuckets /
// DefBytesBuckets). The buckets argument is ignored when the histogram
// already exists; registering the same name as a different metric type
// panics.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		h, ok := m.(*Histogram)
		if !ok {
			panic(fmt.Sprintf("metrics: %s already registered as a different metric type", name))
		}
		return h
	}
	h := newHistogram(name, help, buckets)
	r.byName[name] = h
	return h
}

// Handler returns an http.Handler serving the registry in the
// Prometheus text exposition format — the shared implementation behind
// every -metrics endpoint (the transport AP's and gsfl-sim's).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = r.WriteText(w)
	})
}

// WriteText renders every metric in the Prometheus text exposition
// format (HELP, TYPE, then samples), sorted by metric name. HELP text
// is escaped per the format (backslash and newline).
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.byName))
	for n := range r.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	ms := make([]any, len(names))
	for i, n := range names {
		ms[i] = r.byName[n]
	}
	r.mu.Unlock()

	for i, name := range names {
		var err error
		switch m := ms[i].(type) {
		case *Counter:
			_, err = fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
				name, escapeHelp(m.help), name, name, m.Value())
		case *Gauge:
			_, err = fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n",
				name, escapeHelp(m.help), name, name, m.Value())
		case *Histogram:
			err = writeHistogramText(w, name, m)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writeHistogramText renders one histogram: cumulative buckets with le
// labels (ending in +Inf), then _sum and _count.
func writeHistogramText(w io.Writer, name string, h *Histogram) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n",
		name, escapeHelp(h.help), name); err != nil {
		return err
	}
	bounds, cum := h.Snapshot()
	for i, b := range bounds {
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n",
			name, strconv.FormatFloat(b, 'g', -1, 64), cum[i]); err != nil {
			return err
		}
	}
	total := cum[len(cum)-1]
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, total); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n",
		name, strconv.FormatFloat(h.Sum(), 'g', -1, 64), name, total)
	return err
}

// escapeHelp escapes a HELP string per the text exposition format:
// backslash to \\ and newline to \n.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
