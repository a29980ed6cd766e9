package sim_test

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"gsfl/env"
	"gsfl/sim"
)

// A checkpoint names its grouping strategy, so it means the same run in
// a process that registered its out-of-tree strategies in another
// order — the fleet's normal case: a lease's job names its strategy,
// but Resume takes the scheme options from the file. The tests below
// write the file in a child process (the test binary re-exec'd, as
// fleet's worker tests do) and resume it here.

// regOrderDirEnv, when set, turns the test binary into the child: it
// registers the strategies in the child's order, checkpoints one run
// under each of regOrderStrategies after regOrderCkptRound rounds into
// that directory, and exits.
const regOrderDirEnv = "GSFL_SIM_REGORDER_DIR"

const (
	regOrderCkptRound = 3
	regOrderRounds    = 6
	// childOnly is registered by the child alone.
	childOnly = "s-child-only"
)

// reverse is round-robin counted from the last client; blocks cuts the
// client list into m contiguous runs.
func reverse(n, m int, _ []float64, _ env.Rng) [][]int {
	out := make([][]int, m)
	for i := 0; i < n; i++ {
		out[(n-1-i)%m] = append(out[(n-1-i)%m], i)
	}
	return out
}

func blocks(n, m int, _ []float64, _ env.Rng) [][]int {
	out := make([][]int, m)
	for i := 0; i < n; i++ {
		out[i*m/n] = append(out[i*m/n], i)
	}
	return out
}

func TestMain(m *testing.M) {
	if dir := os.Getenv(regOrderDirEnv); dir != "" {
		env.RegisterStrategy("s-rev", reverse)
		env.RegisterStrategy("s-blocks", blocks)
		env.RegisterStrategy(childOnly, blocks)
		for _, strategy := range []string{"s-rev", childOnly} {
			r, err := regOrderRunner(strategy, regOrderCkptRound,
				sim.WithCheckpointEvery(regOrderCkptRound), sim.WithCheckpointPath(filepath.Join(dir, strategy+".ckpt")))
			if err == nil {
				_, err = r.Run(context.Background())
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "registration-order child:", err)
				os.Exit(1)
			}
		}
		os.Exit(0)
	}
	// This process registers the shared pair the other way round.
	env.RegisterStrategy("s-blocks", blocks)
	env.RegisterStrategy("s-rev", reverse)
	os.Exit(m.Run())
}

func regOrderSpec(strategy string) env.Spec {
	spec := env.TestSpec()
	spec.Strategy = strategy
	return spec
}

// regOrderRunner builds a fresh gsfl run over env.TestSpec() grouped by
// strategy.
func regOrderRunner(strategy string, rounds int, opts ...sim.RunOption) (*sim.Runner, error) {
	spec := regOrderSpec(strategy)
	world, err := env.Build(spec)
	if err != nil {
		return nil, err
	}
	schemeOpts, err := spec.SchemeOptions()
	if err != nil {
		return nil, err
	}
	tr, err := sim.New("gsfl", world, schemeOpts)
	if err != nil {
		return nil, err
	}
	return sim.NewRunner(tr, append([]sim.RunOption{sim.WithRounds(rounds)}, opts...)...), nil
}

// childCheckpoints runs the child and returns the directory holding its
// checkpoints.
func childCheckpoints(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0]) // the test binary itself: under -race, a -race child
	cmd.Env = append(os.Environ(), regOrderDirEnv+"="+dir)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child process: %v\n%s", err, out)
	}
	return dir
}

func TestResumeAcrossRegistrationOrder(t *testing.T) {
	dir := childCheckpoints(t)

	ref, err := regOrderRunner("s-rev", regOrderRounds)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	world, err := env.Build(regOrderSpec("s-rev"))
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := sim.Resume(filepath.Join(dir, "s-rev.ckpt"), world, sim.WithRounds(regOrderRounds), sim.WithCheckpointPath(""), sim.WithCheckpointEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	if resumed.CompletedRounds() != regOrderCkptRound {
		t.Fatalf("resumed at round %d, want %d", resumed.CompletedRounds(), regOrderCkptRound)
	}
	got, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != regOrderRounds || len(got.Points) != len(want.Points) {
		t.Fatalf("resumed curve has %d points, uninterrupted %d, want %d", len(got.Points), len(want.Points), regOrderRounds)
	}
	for i, p := range got.Points {
		if p != want.Points[i] {
			t.Errorf("round %d: resumed %+v, uninterrupted %+v", p.Round, p, want.Points[i])
		}
	}

	t.Run("strategy this process never registered", func(t *testing.T) {
		_, err := sim.Resume(filepath.Join(dir, childOnly+".ckpt"), world, sim.WithRounds(regOrderRounds))
		if err == nil || !strings.Contains(err.Error(), `unknown grouping strategy "`+childOnly+`"`) {
			t.Fatalf("Resume under an unregistered strategy: %v, want an error naming %q", err, childOnly)
		}
	})
}
