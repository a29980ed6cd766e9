package simnet

import (
	"math"
	"testing"
)

func TestEnergyModelAttribution(t *testing.T) {
	m := EnergyModel{ClientComputeW: 2, ClientTxW: 1, ClientRxW: 0.5, ServerComputeW: 100}
	var l Ledger
	l.Add(ClientCompute, 10) // 20 J client
	l.Add(Uplink, 4)         // 4 J client
	l.Add(Downlink, 2)       // 1 J client
	l.Add(Relay, 8)          // 8 * 0.75 = 6 J client
	l.Add(ServerCompute, 3)  // 300 J server
	l.Add(Aggregation, 1)    // 100 J server

	if got := m.ClientEnergyJ(&l); math.Abs(got-31) > 1e-12 {
		t.Fatalf("client energy = %v, want 31", got)
	}
	if got := m.ServerEnergyJ(&l); math.Abs(got-400) > 1e-12 {
		t.Fatalf("server energy = %v, want 400", got)
	}
	if got := m.ClientEnergyJ(&l) + m.ServerEnergyJ(&l); math.Abs(got-431) > 1e-12 {
		t.Fatalf("total energy = %v, want 431", got)
	}
}

func TestEnergyModelEmptyLedger(t *testing.T) {
	m := DefaultEnergyModel()
	var l Ledger
	if m.ClientEnergyJ(&l)+m.ServerEnergyJ(&l) != 0 {
		t.Fatal("empty ledger must cost zero energy")
	}
}

func TestEnergyModelValidate(t *testing.T) {
	if err := DefaultEnergyModel().Validate(); err != nil {
		t.Fatalf("default model invalid: %v", err)
	}
	bad := EnergyModel{ClientComputeW: -1}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative power accepted")
	}
}

func TestEnergyAdditiveUnderMerge(t *testing.T) {
	m := DefaultEnergyModel()
	var a, b Ledger
	a.Add(Uplink, 2)
	a.Add(ClientCompute, 1)
	b.Add(Downlink, 3)
	b.Add(ServerCompute, 0.5)
	ea := m.ClientEnergyJ(&a) + m.ServerEnergyJ(&a)
	eb := m.ClientEnergyJ(&b) + m.ServerEnergyJ(&b)
	a.Merge(&b)
	if got := m.ClientEnergyJ(&a) + m.ServerEnergyJ(&a); math.Abs(got-(ea+eb)) > 1e-12 {
		t.Fatalf("energy not additive: %v vs %v", got, ea+eb)
	}
}
