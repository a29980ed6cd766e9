package device

import (
	"math"
	"testing"
)

func TestComputeSeconds(t *testing.T) {
	d := Device{FLOPS: 1e9}
	if got := d.ComputeSeconds(2e9); math.Abs(got-2) > 1e-12 {
		t.Fatalf("ComputeSeconds = %v, want 2", got)
	}
	if got := d.ComputeSeconds(0); got != 0 {
		t.Fatalf("zero FLOPs = %v", got)
	}
}

func TestComputeSecondsNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Device{FLOPS: 1}.ComputeSeconds(-1)
}

func TestNewFleetShape(t *testing.T) {
	f := NewFleet(DefaultConfig(30), 1)
	if f.N() != 30 {
		t.Fatalf("N = %d", f.N())
	}
	if f.Server.FLOPS <= f.Clients[0].FLOPS {
		t.Fatal("server must be faster than clients")
	}
	for i, c := range f.Clients {
		if c.FLOPS <= 0 {
			t.Fatalf("client %d FLOPS %v", i, c.FLOPS)
		}
		if c.ID != i {
			t.Fatalf("client %d has ID %d", i, c.ID)
		}
	}
}

func TestFleetDeterminism(t *testing.T) {
	a := NewFleet(DefaultConfig(10), 7)
	b := NewFleet(DefaultConfig(10), 7)
	for i := range a.Clients {
		if a.Clients[i].FLOPS != b.Clients[i].FLOPS {
			t.Fatal("same seed must give identical fleets")
		}
	}
	c := NewFleet(DefaultConfig(10), 8)
	same := true
	for i := range a.Clients {
		if a.Clients[i].FLOPS != c.Clients[i].FLOPS {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave identical fleets")
	}
}

func TestFleetHeterogeneity(t *testing.T) {
	cfg := DefaultConfig(50)
	f := NewFleet(cfg, 3)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, c := range f.Clients {
		lo = math.Min(lo, c.FLOPS)
		hi = math.Max(hi, c.FLOPS)
	}
	if hi/lo < 1.5 {
		t.Fatalf("spread %v too small for sigma=%v", hi/lo, cfg.ClientSpread)
	}
	// Homogeneous fleet.
	cfg.ClientSpread = 0
	g := NewFleet(cfg, 3)
	for _, c := range g.Clients {
		if c.FLOPS != cfg.ClientMedianFLOPS {
			t.Fatal("zero spread must give identical clients")
		}
	}
}

func TestCapacities(t *testing.T) {
	f := NewFleet(DefaultConfig(5), 1)
	caps := f.Capacities()
	if len(caps) != 5 {
		t.Fatalf("capacities length %d", len(caps))
	}
	caps[0] = -1 // must be a copy
	if f.Clients[0].FLOPS == -1 {
		t.Fatal("Capacities must return a copy")
	}
}

func TestNewFleetValidation(t *testing.T) {
	mustPanic := func(name string, cfg Config) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		NewFleet(cfg, 1)
	}
	mustPanic("zero n", Config{N: 0, ClientMedianFLOPS: 1, ServerFLOPS: 1})
	mustPanic("zero flops", Config{N: 1, ClientMedianFLOPS: 0, ServerFLOPS: 1})
	mustPanic("neg spread", Config{N: 1, ClientMedianFLOPS: 1, ServerFLOPS: 1, ClientSpread: -1})
}
