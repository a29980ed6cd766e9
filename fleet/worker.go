package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gsfl/internal/transport"
	"gsfl/sweep"
)

// WorkerConfig parameterizes RunWorker.
type WorkerConfig struct {
	// Addr is the coordinator's address.
	Addr string
	// Name is the worker's display name (default "worker-<pid>"). Names
	// label events, metrics lanes, and logs; the coordinator fences
	// leases by connection, not by name.
	Name string
	// ScratchDir stages the checkpoint a resumed lease arrived with, for
	// the length of that job (default: a fresh temp directory, removed on
	// exit). Nothing is written there per round: a lease's checkpoints go
	// into the wire.
	ScratchDir string
	// Logf, when non-nil, receives one line per lifecycle step.
	Logf func(format string, args ...any)
}

const (
	// dialRetry is the reconnect backoff after a lost coordinator
	// connection.
	dialRetry = 500 * time.Millisecond
	// dialAttempts bounds consecutive failed dials before giving up.
	dialAttempts = 20
)

// errDrain reports the coordinator declared the sweep complete.
var errDrain = errors.New("fleet: drained")

// errLeaseLost reports the coordinator fenced this worker off a job.
var errLeaseLost = errors.New("fleet: lease lost")

// errBadWelcome marks a coordinator welcome this worker cannot follow.
// Reconnecting would only fetch the same welcome again, so it ends
// RunWorker.
var errBadWelcome = errors.New("fleet: unusable coordinator welcome")

// RunWorker runs the pull-based worker loop against a coordinator:
// request a lease, execute the job (resuming from the handoff
// checkpoint when one rides along), stream checkpoints back, report
// the result, repeat — until the coordinator drains it or ctx ends.
// A lost connection reconnects with backoff; a lost lease abandons the
// job (some other worker owns it now) and asks for the next one. A
// welcome the worker cannot decode is returned as an error.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	scratch := cfg.ScratchDir
	if scratch == "" {
		dir, err := os.MkdirTemp("", "gsfl-fleet-*")
		if err != nil {
			return fmt.Errorf("fleet: creating scratch dir: %w", err)
		}
		defer os.RemoveAll(dir)
		scratch = dir
	}

	fails := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", cfg.Addr)
		if err != nil {
			fails++
			if fails >= dialAttempts {
				return fmt.Errorf("fleet: dialing coordinator %s: %w", cfg.Addr, err)
			}
			logf("dial %s failed (%v), retrying", cfg.Addr, err)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(dialRetry):
			}
			continue
		}
		fails = 0
		err = workerSession(ctx, conn, cfg, scratch, logf)
		conn.Close()
		switch {
		case errors.Is(err, errDrain):
			logf("drained: sweep complete")
			return nil
		case errors.Is(err, errBadWelcome):
			return err
		case ctx.Err() != nil:
			return ctx.Err()
		default:
			// Connection-level failure: reconnect and carry on. Any job in
			// flight was abandoned; its lease will expire and reassign.
			logf("session ended (%v), reconnecting", err)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(dialRetry):
			}
		}
	}
}

// workerConn serializes request/response pairs on one coordinator
// connection: the training goroutine's checkpoint uploads and the
// heartbeat goroutine must not interleave their frames.
type workerConn struct {
	mu sync.Mutex
	fc *transport.FleetConn
}

// roundTripAck writes one frame and reads the coordinator's ack.
func (w *workerConn) roundTripAck(write func(fc *transport.FleetConn) error) (transport.FleetAck, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := write(w.fc); err != nil {
		return transport.FleetAck{}, err
	}
	kind, payload, err := w.fc.ReadFrame()
	if err != nil {
		return transport.FleetAck{}, err
	}
	if kind != transport.FrameFleetHeartbeat {
		return transport.FleetAck{}, fmt.Errorf("fleet: expected ack, got frame kind %d", kind)
	}
	return transport.DecodeFleetAck(payload)
}

// workerSession runs one connection: handshake, then the lease loop.
func workerSession(ctx context.Context, conn net.Conn, cfg WorkerConfig, scratch string, logf func(string, ...any)) error {
	wc := &workerConn{fc: transport.NewFleetConn(conn, transport.DefaultMaxFrameBytes)}
	if err := wc.fc.WriteHello(transport.FleetHello{Worker: cfg.Name, PID: uint64(os.Getpid())}); err != nil {
		return err
	}
	kind, payload, err := wc.fc.ReadFrame()
	if err != nil {
		return err
	}
	if kind != transport.FrameFleetHello {
		return fmt.Errorf("fleet: expected welcome, got frame kind %d", kind)
	}
	welcome, err := transport.DecodeFleetWelcome(payload)
	if err != nil {
		return fmt.Errorf("%w from %s: %w", errBadWelcome, cfg.Addr, err)
	}
	logf("joined %s: %d jobs, grid %016x, lease %dms, checkpoint every %d rounds",
		cfg.Addr, welcome.Jobs, welcome.Fingerprint, welcome.LeaseMillis, welcome.CheckpointEvery)

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		wc.mu.Lock()
		err := wc.fc.WriteLeaseRequest()
		var lease transport.FleetLease
		if err == nil {
			var kind byte
			var payload []byte
			if kind, payload, err = wc.fc.ReadFrame(); err == nil {
				if kind != transport.FrameFleetLease {
					err = fmt.Errorf("fleet: expected lease reply, got frame kind %d", kind)
				} else {
					lease, err = transport.DecodeFleetLease(payload)
				}
			}
		}
		wc.mu.Unlock()
		if err != nil {
			return err
		}
		switch lease.Status {
		case transport.LeaseDrain:
			return errDrain
		case transport.LeaseWait:
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(time.Duration(lease.RetryMillis) * time.Millisecond):
			}
		case transport.LeaseGrant:
			if err := runLeasedJob(ctx, wc, welcome, lease, scratch, logf); err != nil {
				return err
			}
		default:
			return fmt.Errorf("fleet: lease reply with status %d", lease.Status)
		}
	}
}

// runLeasedJob executes one granted job end to end. Connection-level
// errors propagate (the session reconnects); a lost lease or a
// coordinator-reported rejection returns nil — the worker just moves
// on to its next lease request.
func runLeasedJob(ctx context.Context, wc *workerConn, welcome transport.FleetWelcome, lease transport.FleetLease, scratch string, logf func(string, ...any)) error {
	j, err := sweep.UnmarshalJobWire(lease.Job)
	if err != nil {
		// A job that fails integrity checks must not execute; report it
		// so the coordinator aborts loudly instead of spinning the grant.
		logf("rejecting job %s: %v", lease.JobID, err)
		return sendResult(wc, transport.FleetResult{JobID: lease.JobID, Failed: true, Body: []byte(err.Error())})
	}
	var handoff *sweep.LeaseCheckpoint
	if len(lease.Ckpt) > 0 {
		var p sweep.Progress
		if json.Unmarshal(lease.Progress, &p) == nil {
			handoff = &sweep.LeaseCheckpoint{Progress: p, Ckpt: lease.Ckpt}
		}
	}

	jctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		round   atomic.Int64 // latest completed round, for heartbeats
		lost    atomic.Bool  // coordinator fenced us off the job
		connErr atomic.Value // first connection-level error
		hbDone  = make(chan struct{})
		hbStop  = make(chan struct{})
	)
	failConn := func(err error) {
		connErr.CompareAndSwap(nil, err)
		cancel()
	}

	// Heartbeats keep the lease alive between checkpoint uploads. An
	// ack with OK=false means the lease is gone: abandon the job.
	ttl := time.Duration(welcome.LeaseMillis) * time.Millisecond
	go func() {
		defer close(hbDone)
		tick := time.NewTicker(ttl / 3)
		defer tick.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-jctx.Done():
				return
			case <-tick.C:
				ack, err := wc.roundTripAck(func(fc *transport.FleetConn) error {
					return fc.WriteHeartbeat(transport.FleetHeartbeat{JobID: j.ID, Round: int(round.Load())})
				})
				if err != nil {
					failConn(err)
					return
				}
				if !ack.OK {
					lost.Store(true)
					cancel()
					return
				}
			}
		}
	}()

	if handoff != nil {
		logf("leased %s (resume after round %d)", j.Name, handoff.Progress.Round)
	} else {
		logf("leased %s", j.Name)
	}
	start := time.Now()
	res, runErr := sweep.RunLeased(jctx, j, scratch, welcome.CheckpointEvery, handoff, sweep.LeaseCallbacks{
		OnRound: func(r, rounds int, hostSeconds float64) { round.Store(int64(r)) },
		OnCheckpoint: func(p sweep.Progress, ckpt []byte) error {
			buf, err := json.Marshal(p)
			if err != nil {
				return err
			}
			ack, err := wc.roundTripAck(func(fc *transport.FleetConn) error {
				return fc.WriteProgress(transport.FleetProgress{
					JobID: j.ID, Round: p.Round, HostSeconds: time.Since(start).Seconds(),
					Progress: buf, Ckpt: ckpt,
				})
			})
			if err != nil {
				failConn(err)
				return err
			}
			if !ack.OK {
				lost.Store(true)
				return errLeaseLost
			}
			return nil
		},
	})
	// Quiesce the heartbeat goroutine before touching the connection
	// again: its in-flight round trip must finish first.
	close(hbStop)
	cancel()
	<-hbDone

	if err, ok := connErr.Load().(error); ok && err != nil {
		return err // reconnect; the job reassigns via lease expiry
	}
	if lost.Load() {
		logf("lease lost on %s after round %d, abandoning", j.Name, round.Load())
		return nil
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if runErr != nil {
		logf("job %s failed: %v", j.Name, runErr)
		return sendResult(wc, transport.FleetResult{
			JobID: j.ID, Failed: true,
			HostSeconds: time.Since(start).Seconds(),
			Body:        []byte(runErr.Error()),
		})
	}
	body, err := json.Marshal(sweep.PartsOf(res))
	if err != nil {
		return sendResult(wc, transport.FleetResult{JobID: j.ID, Failed: true, Body: []byte(err.Error())})
	}
	logf("done %s in %.2fs", j.Name, time.Since(start).Seconds())
	return sendResult(wc, transport.FleetResult{
		JobID: j.ID, HostSeconds: time.Since(start).Seconds(), Body: body,
	})
}

// sendResult ships a result and waits for the ack. OK=false (a fenced
// zombie's rejected result) is not an error — the job belongs to
// someone else now.
func sendResult(wc *workerConn, msg transport.FleetResult) error {
	_, err := wc.roundTripAck(func(fc *transport.FleetConn) error { return fc.WriteResult(msg) })
	return err
}
