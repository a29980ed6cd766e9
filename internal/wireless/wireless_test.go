package wireless

import (
	"math"
	"testing"
	"testing/quick"
)

func testChannel(n int, seed int64) *Channel {
	return NewChannel(DefaultConfig(), n, seed)
}

func TestChannelDeterminism(t *testing.T) {
	a, b := testChannel(10, 1), testChannel(10, 1)
	for i := 0; i < 10; i++ {
		if a.distM[i] != b.distM[i] {
			t.Fatal("same seed must place clients identically")
		}
	}
}

func TestDistancesWithinBounds(t *testing.T) {
	cfg := DefaultConfig()
	ch := NewChannel(cfg, 100, 2)
	for i := 0; i < 100; i++ {
		d := ch.distM[i]
		if d < cfg.MinDistanceM || d > cfg.MaxDistanceM {
			t.Fatalf("client %d at %vm outside [%v, %v]", i, d, cfg.MinDistanceM, cfg.MaxDistanceM)
		}
	}
}

func TestPathLossMonotone(t *testing.T) {
	if pathLossDB(100) >= pathLossDB(200) {
		t.Fatal("path loss must grow with distance")
	}
}

func TestMeanRatePositiveAndBandwidthMonotone(t *testing.T) {
	ch := testChannel(5, 3)
	for i := 0; i < 5; i++ {
		r1 := ch.MeanRate(i, 1e6, true)
		r2 := ch.MeanRate(i, 2e6, true)
		if r1 <= 0 {
			t.Fatalf("client %d rate %v", i, r1)
		}
		if r2 <= r1 {
			t.Fatalf("client %d: rate must grow with bandwidth (%v vs %v)", i, r1, r2)
		}
	}
}

func TestDownlinkFasterThanUplink(t *testing.T) {
	// AP transmits at higher power, so with the same bandwidth the
	// downlink rate must exceed the uplink rate for every client.
	ch := testChannel(20, 4)
	for i := 0; i < 20; i++ {
		up := ch.MeanRate(i, 1e6, true)
		down := ch.MeanRate(i, 1e6, false)
		if down <= up {
			t.Fatalf("client %d: downlink %v not faster than uplink %v", i, down, up)
		}
	}
}

func TestTransferSecondsScalesWithBytes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FadingJitter = 0 // exact proportionality without fading
	ch := NewChannel(cfg, 1, 5)
	t1 := ch.TransferSeconds(0, 1000, 1e6, true)
	t2 := ch.TransferSeconds(0, 2000, 1e6, true)
	if math.Abs(t2-2*t1) > 1e-12 {
		t.Fatalf("transfer time not linear in bytes: %v vs %v", t1, t2)
	}
	if ch.TransferSeconds(0, 0, 1e6, true) != 0 {
		t.Fatal("zero bytes must take zero time")
	}
}

func TestFadingJitterVariesTransfers(t *testing.T) {
	ch := testChannel(1, 6)
	a := ch.TransferSeconds(0, 1<<20, 1e6, true)
	b := ch.TransferSeconds(0, 1<<20, 1e6, true)
	if a == b {
		t.Fatal("fading jitter enabled but two transfers took identical time")
	}
}

func TestTransferAlwaysPositive(t *testing.T) {
	f := func(seed int64) bool {
		ch := testChannel(4, seed)
		for i := 0; i < 4; i++ {
			if ch.TransferSeconds(i, 1234, 2e6, i%2 == 0) <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestChannelValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("zero clients", func() { NewChannel(DefaultConfig(), 0, 1) })
	mustPanic("zero bandwidth", func() {
		cfg := DefaultConfig()
		cfg.UplinkHz = 0
		NewChannel(cfg, 1, 1)
	})
	mustPanic("bad distances", func() {
		cfg := DefaultConfig()
		cfg.MaxDistanceM = 1
		NewChannel(cfg, 1, 1)
	})
	mustPanic("neg bytes", func() { testChannel(1, 1).TransferSeconds(0, -1, 1e6, true) })
	mustPanic("zero alloc", func() { testChannel(1, 1).MeanRate(0, 0, true) })
}

func TestUniformAllocator(t *testing.T) {
	ch := testChannel(4, 7)
	got := Uniform{}.Allocate(ch, []int{0, 1, 2, 3}, 20e6, true)
	for _, w := range got {
		if math.Abs(w-5e6) > 1e-6 {
			t.Fatalf("uniform allocation = %v", got)
		}
	}
}

func TestAllocatorsConserveBudget(t *testing.T) {
	ch := testChannel(8, 8)
	clients := []int{0, 2, 4, 6}
	for _, a := range []Allocator{Uniform{}, ProportionalFair{}, LatencyMin{}} {
		got := a.Allocate(ch, clients, 20e6, true)
		if len(got) != len(clients) {
			t.Fatalf("%s: %d allocations for %d clients", a.Name(), len(got), len(clients))
		}
		sum := 0.0
		for _, w := range got {
			if w <= 0 {
				t.Fatalf("%s: non-positive allocation %v", a.Name(), w)
			}
			sum += w
		}
		if math.Abs(sum-20e6) > 1 {
			t.Fatalf("%s: allocations sum to %v, want 20e6", a.Name(), sum)
		}
	}
}

func TestProportionalFairFavorsGoodChannels(t *testing.T) {
	ch := testChannel(30, 9)
	// Find the nearest and farthest clients.
	near, far := 0, 0
	for i := 1; i < 30; i++ {
		if ch.distM[i] < ch.distM[near] {
			near = i
		}
		if ch.distM[i] > ch.distM[far] {
			far = i
		}
	}
	got := ProportionalFair{}.Allocate(ch, []int{near, far}, 20e6, true)
	if got[0] <= got[1] {
		t.Fatalf("proportional-fair gave near client %v ≤ far client %v", got[0], got[1])
	}
}

func TestLatencyMinEqualizesCompletionTimes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FadingJitter = 0
	ch := NewChannel(cfg, 30, 10)
	near, far := 0, 0
	for i := 1; i < 30; i++ {
		if ch.distM[i] < ch.distM[near] {
			near = i
		}
		if ch.distM[i] > ch.distM[far] {
			far = i
		}
	}
	clients := []int{near, far}
	const bytes = 1 << 20

	finish := func(a Allocator) (float64, float64) {
		w := a.Allocate(ch, clients, 20e6, true)
		return ch.TransferSeconds(clients[0], bytes, w[0], true),
			ch.TransferSeconds(clients[1], bytes, w[1], true)
	}
	un1, un2 := finish(Uniform{})
	lm1, lm2 := finish(LatencyMin{})
	spreadUniform := math.Abs(un1-un2) / math.Max(un1, un2)
	spreadLM := math.Abs(lm1-lm2) / math.Max(lm1, lm2)
	if spreadLM >= spreadUniform {
		t.Fatalf("latency-min spread %v not tighter than uniform %v", spreadLM, spreadUniform)
	}
	if math.Max(lm1, lm2) >= math.Max(un1, un2) {
		t.Fatalf("latency-min max completion %v not better than uniform %v",
			math.Max(lm1, lm2), math.Max(un1, un2))
	}
}

func TestAllocatorValidation(t *testing.T) {
	ch := testChannel(2, 11)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("no clients", func() { Uniform{}.Allocate(ch, nil, 1e6, true) })
	mustPanic("zero budget", func() { Uniform{}.Allocate(ch, []int{0}, 0, true) })
	mustPanic("bad client", func() { Uniform{}.Allocate(ch, []int{5}, 1e6, true) })
}

func TestMobilityMovesClients(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MobilitySigmaM = 20
	ch := NewChannel(cfg, 10, 12)
	before := make([]float64, 10)
	for i := range before {
		before[i] = ch.distM[i]
	}
	ch.AdvanceRound()
	moved := 0
	for i := range before {
		d := ch.distM[i]
		if d < cfg.MinDistanceM || d > cfg.MaxDistanceM {
			t.Fatalf("client %d escaped bounds: %v", i, d)
		}
		if d != before[i] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("mobility enabled but nobody moved")
	}
}

func TestMobilityZeroIsNoOp(t *testing.T) {
	ch := testChannel(5, 13)
	before := make([]float64, 5)
	for i := range before {
		before[i] = ch.distM[i]
	}
	ch.AdvanceRound()
	for i := range before {
		if ch.distM[i] != before[i] {
			t.Fatal("static channel moved a client")
		}
	}
	// Determinism: the fading stream is a pure function of (seed, round),
	// so two identically seeded channels that advanced the same number of
	// rounds must price transfers identically.
	a, b := testChannel(5, 14), testChannel(5, 14)
	a.AdvanceRound()
	b.AdvanceRound()
	if a.TransferSeconds(0, 1000, 1e6, true) != b.TransferSeconds(0, 1000, 1e6, true) {
		t.Fatal("same (seed, round) produced different fading draws")
	}
	// And distinct rounds get independent streams.
	c, d := testChannel(5, 14), testChannel(5, 14)
	c.AdvanceRound()
	c.AdvanceRound()
	d.AdvanceRound()
	if c.TransferSeconds(0, 1000, 1e6, true) == d.TransferSeconds(0, 1000, 1e6, true) {
		t.Fatal("round 2 reused round 1's fading stream")
	}
}

func TestMobilityStaysInBoundsLongRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MobilitySigmaM = 50
	ch := NewChannel(cfg, 4, 15)
	for r := 0; r < 200; r++ {
		ch.AdvanceRound()
		for i := 0; i < 4; i++ {
			d := ch.distM[i]
			if d < cfg.MinDistanceM || d > cfg.MaxDistanceM {
				t.Fatalf("round %d client %d out of bounds: %v", r, i, d)
			}
		}
	}
}

func TestChannelStateRestoreContinuesBitIdentically(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MobilitySigmaM = 20
	cfg.OutageProb = 0.05
	mk := func() *Channel { return NewChannel(cfg, 4, 6) }

	// Drive the reference channel through rounds with mid-round draws.
	ref := mk()
	for r := 0; r < 3; r++ {
		ref.AdvanceRound()
		for i := 0; i < 4; i++ {
			ref.TransferSeconds(i, 1000, 1e6, true)
		}
	}
	st := ref.State()

	restored := mk()
	if err := restored.Restore(st); err != nil {
		t.Fatal(err)
	}
	// Continue both for two more rounds: positions and draws must agree.
	for r := 0; r < 2; r++ {
		ref.AdvanceRound()
		restored.AdvanceRound()
		for i := 0; i < 4; i++ {
			if ref.distM[i] != restored.distM[i] {
				t.Fatalf("round %d: client %d at %v vs %v", r, i, ref.distM[i], restored.distM[i])
			}
			a := ref.TransferSeconds(i, 1000, 1e6, true)
			b := restored.TransferSeconds(i, 1000, 1e6, true)
			if a != b {
				t.Fatalf("round %d client %d: transfer %v vs %v after restore", r, i, a, b)
			}
		}
	}
}

func TestChannelRestoreValidation(t *testing.T) {
	ch := testChannel(4, 1)
	if err := ch.Restore(ChannelState{Round: 1, DistM: make([]float64, 2), ShadowDB: make([]float64, 2)}); err == nil {
		t.Fatal("client-count mismatch must error")
	}
	if err := ch.Restore(ChannelState{Round: -1, DistM: make([]float64, 4), ShadowDB: make([]float64, 4)}); err == nil {
		t.Fatal("negative round must error")
	}
}

func TestParseAllocator(t *testing.T) {
	for name, want := range map[string]string{
		"uniform":           "uniform",
		"propfair":          "proportional-fair",
		"proportional-fair": "proportional-fair",
		"latmin":            "latency-min",
		"latency-min":       "latency-min",
	} {
		a, err := ParseAllocator(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Name() != want {
			t.Fatalf("ParseAllocator(%q).Name() = %q, want %q", name, a.Name(), want)
		}
	}
	if _, err := ParseAllocator("bogus"); err == nil {
		t.Fatal("expected error for unknown allocator")
	}
}
