package simnet

import "fmt"

// EnergyModel converts a latency ledger into energy estimates — the
// second resource that "resource-limited" wireless clients actually run
// out of. Power draws are average device-level figures; energy is simply
// power × time per component, attributed to whoever burns it:
//
//   - client energy: local compute at ClientComputeW, uplink transmission
//     at ClientTxW, downlink reception at ClientRxW, relays at the mean of
//     tx/rx (each relay is one upload by one client and one download by
//     another);
//   - server energy: server compute and aggregation at ServerComputeW.
type EnergyModel struct {
	ClientComputeW float64
	ClientTxW      float64
	ClientRxW      float64
	ServerComputeW float64
}

// DefaultEnergyModel uses mobile-SoC-class figures: ~2 W sustained CNN
// compute, ~1.2 W radio transmit (23 dBm PA plus chain), ~0.8 W receive,
// and a 150 W edge-server accelerator.
func DefaultEnergyModel() EnergyModel {
	return EnergyModel{
		ClientComputeW: 2.0,
		ClientTxW:      1.2,
		ClientRxW:      0.8,
		ServerComputeW: 150,
	}
}

// Validate reports non-physical configurations.
func (m EnergyModel) Validate() error {
	if m.ClientComputeW < 0 || m.ClientTxW < 0 || m.ClientRxW < 0 || m.ServerComputeW < 0 {
		return fmt.Errorf("simnet: negative power in energy model %+v", m)
	}
	return nil
}

// ClientEnergyJ estimates total client-side energy for the ledger.
func (m EnergyModel) ClientEnergyJ(l *Ledger) float64 {
	relayW := (m.ClientTxW + m.ClientRxW) / 2
	return float64(l.Get(ClientCompute)*m.ClientComputeW) +
		float64(l.Get(Uplink)*m.ClientTxW) +
		float64(l.Get(Downlink)*m.ClientRxW) +
		float64(l.Get(Relay)*relayW)
}

// ServerEnergyJ estimates total edge-server energy for the ledger.
func (m EnergyModel) ServerEnergyJ(l *Ledger) float64 {
	return (l.Get(ServerCompute) + l.Get(Aggregation)) * m.ServerComputeW
}
