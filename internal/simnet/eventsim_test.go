package simnet

import (
	"math"
	"testing"
)

// linearRate is a rate function exactly proportional to bandwidth:
// 1 byte/s per Hz, making expected completion times hand-computable.
func linearRate(client int, wHz float64, uplink bool) float64 { return 8 * wHz }

func TestEventSimSingleChainSequential(t *testing.T) {
	chains := [][]Task{{
		{Kind: TaskCompute, Seconds: 2, Component: ClientCompute},
		{Kind: TaskUplink, Bytes: 10, Client: 0, Component: Uplink},
		{Kind: TaskCompute, Seconds: 1, Component: ServerCompute},
		{Kind: TaskDownlink, Bytes: 20, Client: 0, Component: Downlink},
	}}
	res, err := RunChains(chains, 10, 10, linearRate)
	if err != nil {
		t.Fatal(err)
	}
	// 2s + 10B/10Hz + 1s + 20B/10Hz = 2+1+1+2 = 6.
	if math.Abs(res.Makespan-6) > 1e-9 {
		t.Fatalf("makespan = %v, want 6", res.Makespan)
	}
}

func TestEventSimProcessorSharing(t *testing.T) {
	// Two identical uplink transfers start together: they share the link,
	// each at half rate, finishing together at twice the solo time.
	chains := [][]Task{
		{{Kind: TaskUplink, Bytes: 10, Client: 0, Component: Uplink}},
		{{Kind: TaskUplink, Bytes: 10, Client: 1, Component: Uplink}},
	}
	res, err := RunChains(chains, 10, 10, linearRate)
	if err != nil {
		t.Fatal(err)
	}
	// Solo: 1s. Shared: each gets 5 Hz -> 2s.
	for i, f := range res.ChainFinish {
		if math.Abs(f-2) > 1e-9 {
			t.Fatalf("chain %d finish = %v, want 2", i, f)
		}
	}
}

func TestEventSimDesynchronizedSharing(t *testing.T) {
	// Chain A transfers immediately; chain B computes 1s first. A has the
	// full link for 1s (10 bytes done), then shares: remaining 10 bytes at
	// 5 Hz -> 2 more seconds. A finishes at 3. B's 10 bytes: 1s compute,
	// then 5 Hz while sharing with A (2s -> 10 bytes done at t=3).
	chains := [][]Task{
		{{Kind: TaskUplink, Bytes: 20, Client: 0, Component: Uplink}},
		{
			{Kind: TaskCompute, Seconds: 1, Component: ClientCompute},
			{Kind: TaskUplink, Bytes: 10, Client: 1, Component: Uplink},
		},
	}
	res, err := RunChains(chains, 10, 10, linearRate)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.ChainFinish[0]-3) > 1e-9 {
		t.Fatalf("chain A finish = %v, want 3", res.ChainFinish[0])
	}
	if math.Abs(res.ChainFinish[1]-3) > 1e-9 {
		t.Fatalf("chain B finish = %v, want 3", res.ChainFinish[1])
	}
}

func TestEventSimDirectionsDoNotContend(t *testing.T) {
	// An uplink and a downlink transfer run concurrently at full budget.
	chains := [][]Task{
		{{Kind: TaskUplink, Bytes: 10, Client: 0, Component: Uplink}},
		{{Kind: TaskDownlink, Bytes: 10, Client: 1, Component: Downlink}},
	}
	res, err := RunChains(chains, 10, 10, linearRate)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range res.ChainFinish {
		if math.Abs(f-1) > 1e-9 {
			t.Fatalf("chain %d finish = %v, want 1 (no cross-direction contention)", i, f)
		}
	}
}

func TestEventSimZeroBitTransfer(t *testing.T) {
	chains := [][]Task{{
		{Kind: TaskUplink, Bytes: 0, Client: 0, Component: Uplink},
		{Kind: TaskCompute, Seconds: 1, Component: ClientCompute},
	}}
	res, err := RunChains(chains, 10, 10, linearRate)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-1) > 1e-9 {
		t.Fatalf("makespan = %v, want 1", res.Makespan)
	}
}

func TestEventSimEmptyChains(t *testing.T) {
	res, err := RunChains([][]Task{{}, {}}, 10, 10, linearRate)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 0 {
		t.Fatalf("empty chains makespan = %v", res.Makespan)
	}
}

func TestEventSimValidation(t *testing.T) {
	if _, err := RunChains(nil, 0, 10, linearRate); err == nil {
		t.Fatal("zero budget accepted")
	}
	bad := [][]Task{{{Kind: TaskCompute, Seconds: -1}}}
	if _, err := RunChains(bad, 10, 10, linearRate); err == nil {
		t.Fatal("negative duration accepted")
	}
	unknown := [][]Task{{{Kind: TaskKind(99)}}}
	if _, err := RunChains(unknown, 10, 10, linearRate); err == nil {
		t.Fatal("unknown kind accepted")
	}
	zeroRate := [][]Task{{{Kind: TaskUplink, Bytes: 1, Client: 0, Component: Uplink}}}
	if _, err := RunChains(zeroRate, 10, 10, func(int, float64, bool) float64 { return 0 }); err == nil {
		t.Fatal("zero rate accepted")
	}
}

func TestEventSimMakespanIsMaxFinish(t *testing.T) {
	chains := [][]Task{
		{{Kind: TaskCompute, Seconds: 5, Component: ClientCompute}},
		{{Kind: TaskCompute, Seconds: 2, Component: ClientCompute}},
	}
	res, err := RunChains(chains, 10, 10, linearRate)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 5 || res.ChainFinish[1] != 2 {
		t.Fatalf("makespan %v, finishes %v", res.Makespan, res.ChainFinish)
	}
}

// Under sublinear (Shannon-like) rates, sharing is less than twice as
// slow as solo — the effect that makes GSFL's concurrent transfers
// cheaper than a naive 1/M split suggests.
func TestEventSimSublinearRateSharingAdvantage(t *testing.T) {
	shannon := func(client int, wHz float64, uplink bool) float64 {
		snrPerHz := 1e7 // high-SNR regime
		return wHz * math.Log2(1+snrPerHz/wHz)
	}
	solo := [][]Task{{{Kind: TaskUplink, Bytes: 1e6, Client: 0, Component: Uplink}}}
	rSolo, err := RunChains(solo, 10e6, 10e6, shannon)
	if err != nil {
		t.Fatal(err)
	}
	shared := [][]Task{
		{{Kind: TaskUplink, Bytes: 1e6, Client: 0, Component: Uplink}},
		{{Kind: TaskUplink, Bytes: 1e6, Client: 1, Component: Uplink}},
	}
	rShared, err := RunChains(shared, 10e6, 10e6, shannon)
	if err != nil {
		t.Fatal(err)
	}
	ratio := rShared.Makespan / rSolo.Makespan
	if ratio >= 2 || ratio <= 1 {
		t.Fatalf("sharing slowdown ratio = %v, want within (1, 2) under Shannon rates", ratio)
	}
}
