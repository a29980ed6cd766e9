package env

import (
	"gsfl/internal/transport"
)

// This file re-exports the real-network deployment facade: the same
// GSFL protocol the simulator prices virtually, executed over TCP
// sockets by an access-point process and client processes. It lives in
// the environment API because the AP and its clients are the physical
// counterpart of the simulated world Build constructs — the demos
// (cmd/gsfl-ap, cmd/gsfl-client, examples/network_deployment) assemble
// both from the same vocabulary: a registered architecture, a dataset
// source, and a grouping.

type (
	// AP is the access-point / edge-server side of the deployment: it
	// listens for clients, drives training rounds, and evaluates.
	AP = transport.AP
	// APConfig configures an AP (architecture, cut, groups, test set,
	// server-side hyperparameters, round deadline, straggler policy,
	// metrics endpoint).
	APConfig = transport.APConfig
	// Client is one client node serving training turns.
	Client = transport.Client
	// ClientConfig configures a client (id, architecture, cut, private
	// shard, client-side hyperparameters).
	ClientConfig = transport.ClientConfig
	// RoundStats reports what one network round did: participants,
	// stragglers, skipped and refilled slots, wall-clock duration.
	RoundStats = transport.RoundStats
	// TurnState is the client-side model + optimizer state a straggler
	// policy patches into a group's relay chain.
	TurnState = transport.TurnState
	// StragglerPolicy decides how a relay chain proceeds past a client
	// that missed the round deadline or died mid-turn.
	StragglerPolicy = transport.StragglerPolicy
	// LoadGenConfig sizes a synthetic-fleet load run against one AP.
	LoadGenConfig = transport.LoadGenConfig
	// LoadGenReport is a load run's outcome (gsfl-loadgen's JSON report).
	LoadGenReport = transport.LoadGenReport
)

// ErrShutdown is returned by AP.Round after Shutdown.
var ErrShutdown = transport.ErrShutdown

// NewAP starts an access point listening on addr.
func NewAP(addr string, cfg APConfig) (*AP, error) { return transport.NewAP(addr, cfg) }

// Dial connects a client node to an AP and registers it.
func Dial(addr string, cfg ClientConfig) (*Client, error) { return transport.Dial(addr, cfg) }

// RegisterStragglerPolicy adds a named straggler fallback policy,
// selectable through APConfig.Straggler — the extension hook matching
// the scheme/architecture/datasource registries.
func RegisterStragglerPolicy(name string, p StragglerPolicy) {
	transport.RegisterStragglerPolicy(name, p)
}

// StragglerPolicies lists the registered straggler policy names.
func StragglerPolicies() []string { return transport.StragglerPolicies() }

// RunLoadGen drives one AP plus a synthetic client fleet over loopback
// TCP and reports the sustained round throughput.
func RunLoadGen(cfg LoadGenConfig) (*LoadGenReport, error) { return transport.RunLoadGen(cfg) }
