package cliutil

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"

	"gsfl/obs"
)

// ObsFlags are the observability knobs shared by the harness commands:
// -trace writes a Chrome trace_event JSON file (open it in
// chrome://tracing or https://ui.perfetto.dev), -pprof serves the
// net/http/pprof profiling endpoints.
type ObsFlags struct {
	// Trace is the trace output path ("" = tracing off).
	Trace string
	// Pprof is the profiling listen address ("" = off), e.g.
	// "localhost:6060" for http://localhost:6060/debug/pprof/.
	Pprof string
}

// Register declares the shared observability flags on fs.
func (o *ObsFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&o.Trace, "trace", "", "write Chrome trace_event JSON to `file` (view in chrome://tracing or ui.perfetto.dev)")
	fs.StringVar(&o.Pprof, "pprof", "", "serve net/http/pprof at `addr` (e.g. localhost:6060)")
}

// Start activates what the flags ask for: a tracer on the given clock
// when -trace is set (nil otherwise — the zero-cost disabled state),
// and a pprof HTTP server when -pprof is set. The returned stop
// function writes the trace file; call it once, after the run.
func (o *ObsFlags) Start(clock obs.Clock) (*obs.Tracer, func() error, error) {
	if o.Pprof != "" {
		// Serves for the life of the process: the stop is not kept.
		bound, _, err := ServeHTTP(o.Pprof, http.DefaultServeMux)
		if err != nil {
			return nil, nil, fmt.Errorf("pprof: %w", err)
		}
		fmt.Fprintf(os.Stderr, "pprof: serving http://%s/debug/pprof/\n", bound)
	}
	if o.Trace == "" {
		return nil, func() error { return nil }, nil
	}
	tr := obs.New(clock)
	stop := func() error {
		if err := tr.WriteFile(o.Trace); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace: wrote %d events to %s\n", tr.EventCount(), o.Trace)
		return nil
	}
	return tr, stop, nil
}

// ServeHTTP serves h at every path of addr until stop is called — the
// one HTTP server behind -pprof and the commands' -metrics pages. It
// binds synchronously, so an unusable address fails the command instead
// of serving nothing for the whole run, and reports the bound address
// (addr may ask for port 0).
func ServeHTTP(addr string, h http.Handler) (bound net.Addr, stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return ln.Addr(), func() { srv.Close() }, nil
}
