package sim_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"gsfl/env"
	"gsfl/obs"
	"gsfl/sim"
)

// TestVirtualTracePinned holds the simulator's virtual-clock trace to
// the bytes it had when every span was emitted while pricing: three
// rounds of each case, traced on obs.ClockVirtual, must serialize
// (WriteJSON) to the pinned SHA-256. Lane names and creation order,
// span order, every virtual timestamp and duration, and the eval
// instants all land in those bytes.
func TestVirtualTracePinned(t *testing.T) {
	cases := []struct {
		name, scheme string
		edit         func(*env.Spec)
		want         string
	}{
		{"gsfl", "gsfl", nil, "1b7ce7eae4a0ef0e6047eaded1cbe4708540027221df3db7b13936ac46e01fcc"},
		{"sl", "sl", nil, "c87998e7a541b5bc56028c2add7d5d14baaca0ff308c9c8415338927e0e58850"},
		{"sfl", "sfl", nil, "5b1de05d276d2991c91283c1f5f0efdcb9658d1b7d39bfc65a74feb057c0aef1"},
		{"fl", "fl", nil, "0cab44a8ee83922b7cd68d1bb734a71ac94c150a2b03b8f07131a53d663f7be3"},
		{"cl", "cl", nil, "de19a8c03ebee9285376bd0eca7eda170aae3ff7613e362ea9a023f59ff928db"},
		{"gsfl-pipelined", "gsfl", func(s *env.Spec) { s.Pipelined = true }, "16b50a53138b264c16dfb7cbf6747ceea1405b9c6517b231d29b3794fee7c0f1"},
		{"gsfl-population", "gsfl", func(s *env.Spec) {
			s.Population = 60
			s.SampleFraction = 0.1
			s.AvailTrace = "onoff"
			s.DropoutProb = 0.3
		}, "3de765f95bf281e2e7228d588698dd2016cebb4aa37c623f594bbcb4d3f54a80"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := env.TestSpec()
			if c.edit != nil {
				c.edit(&spec)
			}
			world, err := env.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			opts, err := spec.SchemeOptions()
			if err != nil {
				t.Fatal(err)
			}
			tr, err := sim.New(c.scheme, world, opts)
			if err != nil {
				t.Fatal(err)
			}
			tracer := obs.New(obs.ClockVirtual)
			if _, err := sim.NewRunner(tr, sim.WithRounds(3), sim.WithTracer(tracer)).Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := tracer.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("trace sha256 = %s, want %s (%d events)", got, c.want, tracer.EventCount())
			}
		})
	}
}
