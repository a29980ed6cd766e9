package transport

import (
	"net"
	"testing"
	"time"

	"gsfl/internal/testutil/faultconn"
)

// TestLoadGenWrapsOnlyFaultyClients pins which connections the load
// generator hands to faultconn: with no fault fractions none, whatever
// the seed; with stall, drop and delay fractions exactly the first
// StallFrac·N + DropFrac·N + DelayFrac·N clients, each with its own
// fault.
func TestLoadGenWrapsOnlyFaultyClients(t *testing.T) {
	raw, peer := net.Pipe()
	defer raw.Close()
	defer peer.Close()
	// wrapped returns the indices of the clients wrapConn wraps.
	wrapped := func(cfg *LoadGenConfig) (idx []int) {
		for i := 0; i < cfg.Clients; i++ {
			if _, ok := cfg.wrapConn(i, raw).(*faultconn.Conn); ok {
				idx = append(idx, i)
			}
		}
		return idx
	}
	for _, seed := range []int64{0, 1, 7} {
		if idx := wrapped(&LoadGenConfig{Clients: 40, Groups: 4, Rounds: 1, Seed: seed, Delay: time.Millisecond}); len(idx) != 0 {
			t.Fatalf("seed %d: a config with no fault fractions wrapped clients %v", seed, idx)
		}
	}
	cfg := &LoadGenConfig{Clients: 40, Groups: 4, Rounds: 1, Seed: 7,
		StallFrac: 0.1, DropFrac: 0.05, DelayFrac: 0.1, Delay: time.Millisecond}
	idx := wrapped(cfg)
	if len(idx) != 10 || len(idx) != cfg.faultCount() || idx[len(idx)-1] != 9 {
		t.Fatalf("wrapped clients %v, want the first %d", idx, cfg.faultCount())
	}
	for _, i := range idx {
		p := cfg.faultProfileFor(i)
		stall, drop, delay := i < 4, i >= 4 && i < 6, i >= 6
		if (p.StallAfterWrites > 0) != stall || (p.DropAfterBytes > 0) != drop || (p.WriteDelayProb > 0) != delay {
			t.Fatalf("client %d profile %+v: want stall=%v drop=%v delay=%v", i, p, stall, drop, delay)
		}
	}
}

func TestLoadGenValidation(t *testing.T) {
	cases := []LoadGenConfig{
		{Clients: 0, Groups: 1, Rounds: 1},
		{Clients: 4, Groups: 0, Rounds: 1},
		{Clients: 4, Groups: 2, Rounds: 0},
		{Clients: 2, Groups: 4, Rounds: 1}, // fewer clients than groups
	}
	for _, cfg := range cases {
		if _, err := RunLoadGen(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestLoadGenCleanFleet(t *testing.T) {
	var rounds []RoundStats
	rep, err := RunLoadGen(LoadGenConfig{
		Clients: 16, Groups: 4, Rounds: 3, Seed: 5,
		RoundDeadline: 5 * time.Second,
		OnRound:       func(s RoundStats) { rounds = append(rounds, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 3 {
		t.Fatalf("observed %d rounds, want 3", len(rounds))
	}
	if rep.ParticipantsTotal != 48 || rep.StragglersTotal != 0 {
		t.Fatalf("report %+v, want 16 participants x 3 clean rounds", rep)
	}
	if rep.SustainedClientsPerRound != 16 || rep.MinClientsPerRound != 16 {
		t.Fatalf("sustained %v / min %d, want 16", rep.SustainedClientsPerRound, rep.MinClientsPerRound)
	}
	if rep.BytesRead == 0 || rep.BytesWritten == 0 || rep.WallSeconds <= 0 {
		t.Fatalf("report missing traffic accounting: %+v", rep)
	}
}

func TestLoadGenFaultedFleetExercisesStragglers(t *testing.T) {
	rep, err := RunLoadGen(LoadGenConfig{
		Clients: 20, Groups: 4, Rounds: 3, Seed: 11,
		StallFrac: 0.1, DropFrac: 0.1, SpareFrac: 0.2,
		RoundDeadline: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FaultClients != 4 || rep.Spares != 4 {
		t.Fatalf("faults %d / spares %d, want 4 / 4 of 20", rep.FaultClients, rep.Spares)
	}
	// Every faulted client eventually dies mid-turn: the straggler path
	// must have fired, and the clean majority must keep participating.
	if rep.StragglersTotal == 0 {
		t.Fatalf("no stragglers despite %d faulted clients: %+v", rep.FaultClients, rep)
	}
	if rep.ParticipantsTotal == 0 || rep.MinClientsPerRound == 0 {
		t.Fatalf("fleet collapsed: %+v", rep)
	}
	// Spares (faulted clients were slotted round-robin) refill vacated
	// slots at round boundaries.
	if rep.RefilledTotal == 0 {
		t.Fatalf("no slot refill despite departures: %+v", rep)
	}
}

func TestLoadGenQuantizedFleet(t *testing.T) {
	rep, err := RunLoadGen(LoadGenConfig{
		Clients: 8, Groups: 2, Rounds: 2, Seed: 13, Quantize: true,
		RoundDeadline: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ParticipantsTotal != 16 || !rep.Quantize {
		t.Fatalf("quantized fleet report %+v", rep)
	}
}
