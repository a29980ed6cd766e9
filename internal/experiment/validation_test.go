package experiment

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"gsfl/env"
)

// TestValidationExactAtOneGroup holds the two pricers of a round to each
// other where they must agree: at M = 1 there is one chain, so processor
// sharing never divides the spectrum and the event-driven makespan is
// the analytic sum of the same tasks. Every arch × cut × allocator ×
// pipelining × wire width is covered, plus dropped clients, a moving
// channel and a sampled population — each a way a second description of
// the round could price tasks the engine did not.
func TestValidationExactAtOneGroup(t *testing.T) {
	one := env.TestSpec()
	one.Groups = 1
	type row struct {
		name string
		spec Spec
	}
	var rows []row
	for _, arch := range env.Archs() {
		for cut := 1; cut <= 3; cut++ {
			for _, alloc := range env.Allocators() {
				for _, piped := range []bool{false, true} {
					for _, quant := range []bool{false, true} {
						s := one
						s.Arch, s.Cut, s.Alloc, s.Pipelined = arch, cut, alloc, piped
						s.Hyper.QuantizeTransfers = quant
						rows = append(rows, row{fmt.Sprintf("%s/cut=%d/%s/piped=%v/quant=%v", arch, cut, alloc, piped, quant), s})
					}
				}
			}
		}
	}
	dropout, mobile, pop := one, one, one
	dropout.DropoutProb = 0.3
	mobile.Wireless.MobilitySigmaM = 50
	pop.Population, pop.SampleFraction, pop.AvailTrace = 4*pop.Clients, 0.25, "onoff"
	rows = append(rows, row{"dropout", dropout}, row{"mobility", mobile}, row{"population", pop})

	for _, r := range rows {
		v, err := RunValidationEventDriven(r.spec)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if !(math.Abs(v.RelativeGap) <= 1e-12) {
			t.Errorf("%s: analytic %v s, event-driven %v s, gap %v", r.name, v.AnalyticSeconds, v.EventDrivenSeconds, v.RelativeGap)
		}
	}
}

// TestValidationRejectsEmptyRound: a round in which every client drops
// prices nothing, and comparing two empty rounds is an error, not a gap.
func TestValidationRejectsEmptyRound(t *testing.T) {
	spec := env.TestSpec()
	spec.DropoutProb = 0.99
	_, err := RunValidationEventDriven(spec)
	if err == nil || !strings.Contains(err.Error(), "priced nothing") {
		t.Fatalf("all-dropped round: err = %v, want a priced-nothing error", err)
	}
}
