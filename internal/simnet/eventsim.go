package simnet

import (
	"fmt"
	"math"
)

// This file implements an event-driven execution model for chains of
// compute and transfer tasks sharing wireless links — a finer-grained
// alternative to the position-synchronized bandwidth split the analytic
// GSFL latency model uses.
//
// In the analytic model, the M groups are assumed to advance in
// lockstep: while every group trains its p-th client, those M clients
// split the spectrum evenly for the whole position. In reality groups
// desynchronize (a fast group reaches its uplink while a slow one is
// still computing), so the number of concurrent transfers fluctuates and
// the spectrum is re-divided whenever it changes. EventSim models exactly
// that: transfers progress under processor sharing — at any instant the k
// active same-direction transfers each get budget/k Hz, converted to a
// rate by the caller's RateFunc — and every task completion re-triggers
// rate recomputation. Experiment V (docs/ARCHITECTURE.md, "The
// group-parallel latency model") replays the chains the analytic model
// priced through it to quantify that model's approximation error.

// TaskKind distinguishes chain task types.
type TaskKind int

const (
	// TaskCompute runs for a fixed duration on a dedicated resource.
	TaskCompute TaskKind = iota
	// TaskUplink moves bytes over the shared uplink.
	TaskUplink
	// TaskDownlink moves bytes over the shared downlink.
	TaskDownlink
)

// Task is one stage in a chain.
type Task struct {
	Kind TaskKind
	// Seconds is the duration of a compute task (ignored for transfers).
	Seconds float64
	// Bytes is the transfer size (ignored for compute).
	Bytes int64
	// Client identifies whose radio the transfer uses (rate lookup).
	Client int
	// Component attributes the task's elapsed time in the ledger.
	Component Component
	// Charged is the analytic seconds Ledger.Charge priced the task at
	// (RunChains ignores it).
	Charged float64
}

// RateFunc returns the achievable rate in bits/s for a client granted
// wHz of bandwidth in the given direction. It must be positive for
// positive wHz. Pass (*wireless.Channel).MeanRate-backed closures.
type RateFunc func(client int, wHz float64, uplink bool) float64

// EventResult reports an event-driven execution.
type EventResult struct {
	// Makespan is when the last chain finished.
	Makespan float64
	// ChainFinish holds each chain's completion time.
	ChainFinish []float64
	// Ledgers attributes each chain's elapsed time per component.
	Ledgers []*Ledger
}

// RunChains executes the chains concurrently under processor sharing of
// the uplink and downlink budgets and returns completion times. Chains
// execute their tasks strictly in order; compute tasks of different
// chains never contend (each client/server replica is its own resource,
// matching the GSFL architecture).
func RunChains(chains [][]Task, upHz, downHz float64, rate RateFunc) (EventResult, error) {
	if upHz <= 0 || downHz <= 0 {
		return EventResult{}, fmt.Errorf("simnet: budgets must be positive (up %v, down %v)", upHz, downHz)
	}
	n := len(chains)
	res := EventResult{
		ChainFinish: make([]float64, n),
		Ledgers:     make([]*Ledger, n),
	}
	type state struct {
		idx       int     // current task index
		remaining float64 // seconds (compute) or bits (transfer)
	}
	st := make([]state, n)
	active := 0
	for i, ch := range chains {
		res.Ledgers[i] = &Ledger{}
		for ti, task := range ch {
			if err := validateTask(task); err != nil {
				return EventResult{}, fmt.Errorf("simnet: chain %d task %d: %w", i, ti, err)
			}
		}
		if len(ch) > 0 {
			st[i].remaining = taskBudget(ch[0])
			active++
		}
	}

	now := 0.0
	const eps = 1e-12
	// Each iteration advances to the next task completion. Every
	// iteration completes at least one task, so the loop is bounded by
	// the total task count.
	maxIter := 1
	for _, ch := range chains {
		maxIter += len(ch) + 1
	}
	for iter := 0; active > 0; iter++ {
		if iter > maxIter {
			return EventResult{}, fmt.Errorf("simnet: event loop exceeded %d iterations (internal bug)", maxIter)
		}
		// Count concurrent transfers per direction to derive shares.
		upActive, downActive := 0, 0
		for i := range st {
			if st[i].idx >= len(chains[i]) {
				continue
			}
			switch chains[i][st[i].idx].Kind {
			case TaskUplink:
				upActive++
			case TaskDownlink:
				downActive++
			}
		}
		// Progress speed of each chain's current task (units/sec in the
		// task's own budget currency).
		speed := make([]float64, n)
		dt := math.Inf(1)
		for i := range st {
			if st[i].idx >= len(chains[i]) {
				continue
			}
			task := chains[i][st[i].idx]
			switch task.Kind {
			case TaskCompute:
				speed[i] = 1
			case TaskUplink:
				speed[i] = rate(task.Client, upHz/float64(upActive), true)
			case TaskDownlink:
				speed[i] = rate(task.Client, downHz/float64(downActive), false)
			}
			if speed[i] <= 0 {
				return EventResult{}, fmt.Errorf("simnet: non-positive rate for chain %d task %d", i, st[i].idx)
			}
			if t := st[i].remaining / speed[i]; t < dt {
				dt = t
			}
		}
		if math.IsInf(dt, 1) {
			break // nothing active (defensive; active>0 should prevent this)
		}
		now += dt
		// Advance every active task and complete those that finish.
		for i := range st {
			if st[i].idx >= len(chains[i]) {
				continue
			}
			task := chains[i][st[i].idx]
			res.Ledgers[i].Add(task.Component, dt)
			st[i].remaining -= float64(dt * speed[i])
			if st[i].remaining <= eps*math.Max(1, taskBudget(task)) {
				st[i].idx++
				if st[i].idx >= len(chains[i]) {
					res.ChainFinish[i] = now
					active--
				} else {
					st[i].remaining = taskBudget(chains[i][st[i].idx])
				}
			}
		}
	}
	res.Makespan = now
	return res, nil
}

func taskBudget(t Task) float64 {
	if t.Kind == TaskCompute {
		return t.Seconds
	}
	return float64(t.Bytes) * 8
}

func validateTask(t Task) error {
	switch t.Kind {
	case TaskCompute:
		if t.Seconds < 0 {
			return fmt.Errorf("negative compute duration %v", t.Seconds)
		}
	case TaskUplink, TaskDownlink:
		if t.Bytes < 0 {
			return fmt.Errorf("negative transfer size %d", t.Bytes)
		}
	default:
		return fmt.Errorf("unknown task kind %d", int(t.Kind))
	}
	return nil
}
