package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"os"
	"sync"
	"syscall"
	"time"

	"gsfl/internal/metrics"
	"gsfl/internal/transport"
	"gsfl/obs"
	"gsfl/sim"
	"gsfl/sweep"
)

// Config parameterizes a coordinator. The zero value of every field is
// usable.
type Config struct {
	// LeaseTTL bounds each wait for a worker's next frame and each
	// reply to it (default DefaultLeaseTTL): a worker silent that long
	// loses its connection and, with it, its leases.
	LeaseTTL time.Duration
	// CheckpointEvery is the mid-job checkpoint cadence, in rounds,
	// every worker must follow (0 disables mid-job handoff; a killed
	// job then restarts from scratch on its next worker).
	CheckpointEvery int
	// Observers receive coordinator events.
	Observers []Observer
	// Tracer, when non-nil, records one wall-clock track per worker
	// (lane "fleet"/<worker>): a span per leased job plus instants for
	// joins, reassignments, and failures. Nil disables tracing.
	Tracer *obs.Tracer
}

// jobState tracks one unique job through the lease lifecycle.
type jobState struct {
	job  sweep.Job
	done bool

	leased    bool
	worker    string // display name of the leaseholder
	connID    uint64 // fencing: which connection holds the lease
	grantedAt time.Time
	round     int // last checkpointed round
}

// Coordinator owns the sweep store and leases jobs to fleet workers.
// Create one with Serve; it accepts connections until Close.
type Coordinator struct {
	cfg     Config
	store   *sweep.Store
	jobs    []sweep.Job // the caller's list, duplicates included
	unique  []sweep.Job
	fp      uint64
	addr    net.Addr
	greeter *transport.Greeter

	reg           *metrics.Registry
	mWorkers      *metrics.Gauge
	mPending      *metrics.Gauge
	mLeased       *metrics.Gauge
	mDone         *metrics.Gauge
	mGranted      *metrics.Counter
	mReassigned   *metrics.Counter
	mResults      *metrics.Counter
	mStale        *metrics.Counter
	mLeaseSeconds *metrics.Histogram
	mCkptBytes    *metrics.Histogram

	mu       sync.Mutex
	states   []*jobState
	byID     map[string]*jobState
	conns    map[uint64]net.Conn // admitted worker connections, for Close
	doneN    int
	workers  int
	nextConn uint64
	firstErr error
	finished bool // results recorded + store compacted (or sweep failed)
	doneCh   chan struct{}
	closed   bool
	changed  *sync.Cond // broadcast when a lease is released or the sweep ends
}

// Serve starts a coordinator listening on addr ("host:port"; port 0
// picks a free one — see Addr). The store must be open and exclusive to
// this process; jobs are deduplicated by content ID exactly like the
// in-process Scheduler, and already-recorded jobs count as done
// immediately.
func Serve(addr string, jobs []sweep.Job, store *sweep.Store, cfg Config) (*Coordinator, error) {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	// The welcome carries the TTL in whole milliseconds, and a worker
	// refuses a zero one: a shorter lease is one no worker could hold.
	if cfg.LeaseTTL < time.Millisecond {
		return nil, fmt.Errorf("fleet: lease TTL %v is under the 1ms the wire can carry", cfg.LeaseTTL)
	}
	c := &Coordinator{
		cfg:    cfg,
		store:  store,
		jobs:   jobs,
		byID:   map[string]*jobState{},
		conns:  map[uint64]net.Conn{},
		doneCh: make(chan struct{}),
		reg:    metrics.NewRegistry(),
	}
	c.changed = sync.NewCond(&c.mu)
	for _, j := range jobs {
		if j.ID == "" {
			return nil, fmt.Errorf("fleet: job %q has no ID (expand jobs via Grid.Jobs)", j.Name)
		}
		if _, ok := c.byID[j.ID]; ok {
			continue
		}
		st := &jobState{job: j}
		c.unique = append(c.unique, j)
		c.states = append(c.states, st)
		c.byID[j.ID] = st
	}
	// Resume: anything already in the manifest is done.
	for _, st := range c.states {
		if _, ok := store.Lookup(st.job.ID); ok {
			st.done = true
			c.doneN++
		}
	}
	h := fnv.New64a()
	for _, j := range c.unique {
		_, _ = h.Write([]byte(j.ID))
	}
	c.fp = h.Sum64()

	c.mWorkers = c.reg.Gauge("gsfl_fleet_workers", "Connected fleet workers.")
	c.mPending = c.reg.Gauge("gsfl_fleet_jobs_pending", "Unique jobs not yet leased or done.")
	c.mLeased = c.reg.Gauge("gsfl_fleet_jobs_leased", "Unique jobs currently leased to workers.")
	c.mDone = c.reg.Gauge("gsfl_fleet_jobs_done", "Unique jobs recorded in the store.")
	c.mGranted = c.reg.Counter("gsfl_fleet_leases_granted_total", "Job leases granted to workers.")
	c.mReassigned = c.reg.Counter("gsfl_fleet_leases_reassigned_total", "Leases revoked after expiry or worker disconnect.")
	c.mResults = c.reg.Counter("gsfl_fleet_results_total", "Job results accepted and recorded.")
	c.mStale = c.reg.Counter("gsfl_fleet_stale_messages_total", "Messages from a connection that no longer holds the lease they name.")
	c.mLeaseSeconds = c.reg.Histogram("gsfl_fleet_lease_seconds", "Wall-clock from lease grant to recorded result.", metrics.DefSecondsBuckets)
	c.mCkptBytes = c.reg.Histogram("gsfl_fleet_checkpoint_bytes", "Checkpoint payload sizes uploaded by workers.", metrics.DefBytesBuckets)
	c.gaugesLocked()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fleet: listen %s: %w", addr, err)
	}
	c.addr = ln.Addr()
	// A sweep that is already fully recorded needs no workers.
	c.mu.Lock()
	c.maybeFinishLocked()
	c.mu.Unlock()

	c.greeter = transport.Greet(ln, c.handle)
	return c, nil
}

// Addr returns the coordinator's bound listen address.
func (c *Coordinator) Addr() net.Addr { return c.addr }

// MetricsHandler exposes the fleet registry in Prometheus text format.
func (c *Coordinator) MetricsHandler() http.Handler { return c.reg.Handler() }

// Wait blocks until every unique job is recorded and the store
// compacted (returning results fanned out to the caller's job order,
// like Scheduler.Run), the sweep fails, or ctx is cancelled.
func (c *Coordinator) Wait(ctx context.Context) ([]sweep.JobResult, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-c.doneCh:
	}
	c.mu.Lock()
	err := c.firstErr
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	out := make([]sweep.JobResult, len(c.jobs))
	for i, j := range c.jobs {
		res, ok := c.store.Result(j)
		if !ok {
			return nil, fmt.Errorf("fleet: job %s completed but missing from store", j.Name)
		}
		out[i] = res
	}
	return out, nil
}

// Close stops accepting and tears down every connection: peers that
// have not yet said hello at once, workers after a short grace period
// to pull their drain reply and disconnect themselves — a worker that
// outlives a completed sweep should exit cleanly, not with a dial
// error. Safe to call more than once.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	already := c.closed
	c.closed = true
	if c.firstErr == nil && !c.finished {
		c.firstErr = errors.New("fleet: coordinator closed before sweep completed")
	}
	c.finishLocked()
	c.mu.Unlock()
	if already {
		return nil
	}
	err := c.greeter.Stop()
	// After the grace, close what remains: that unblocks its handler's
	// ReadFrame, or the Wait below never returns.
	grace := time.AfterFunc(2*time.Second, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		for _, conn := range c.conns {
			conn.Close()
		}
	})
	c.greeter.Wait()
	grace.Stop()
	return err
}

// gaugesLocked refreshes the job gauges from the lease table.
func (c *Coordinator) gaugesLocked() {
	var pending, leased int64
	for _, st := range c.states {
		switch {
		case st.done:
		case st.leased:
			leased++
		default:
			pending++
		}
	}
	c.mPending.Set(pending)
	c.mLeased.Set(leased)
	c.mDone.Set(int64(c.doneN))
}

func (c *Coordinator) emitLocked(e Event) {
	e.Done, e.Total = c.doneN, len(c.unique)
	for _, o := range c.cfg.Observers {
		o.OnEvent(e)
	}
}

// finishLocked closes doneCh exactly once and drains every parked
// lease request.
func (c *Coordinator) finishLocked() {
	c.changed.Broadcast()
	select {
	case <-c.doneCh:
	default:
		close(c.doneCh)
	}
}

// maybeFinishLocked compacts and completes when the last job lands.
func (c *Coordinator) maybeFinishLocked() {
	if c.finished || c.firstErr != nil || c.doneN != len(c.unique) {
		return
	}
	if err := c.store.Compact(c.unique); err != nil {
		c.firstErr = err
	}
	c.finished = true
	c.emitLocked(Event{Kind: SweepCompleted})
	c.finishLocked()
}

func (c *Coordinator) failLocked(err error) {
	if c.firstErr == nil {
		c.firstErr = err
	}
	c.finished = true
	c.finishLocked()
}

// releaseLocked returns a leased job to the pending pool. Clearing
// leased fences every in-flight message from the old holder
// (leaseOfLocked).
func (c *Coordinator) releaseLocked(st *jobState, why string) {
	if !st.leased {
		return
	}
	st.leased = false
	c.changed.Broadcast()
	c.mReassigned.Inc()
	if tk := c.cfg.Tracer.Lane("fleet", st.worker); tk.On() {
		tk.WallInstant("reassign "+st.job.Name, "lease", why)
	}
	c.emitLocked(Event{Kind: JobReassigned, Worker: st.worker, Job: st.job, Round: st.round})
}

// handle runs one worker connection to completion, under the greeter:
// until admit the connection is the greeter's to abort, afterwards it
// sits in c.conns. The connection is the lease: however it ends, its
// leases are released.
func (c *Coordinator) handle(conn net.Conn, admit func() bool) {
	defer conn.Close()
	fc := transport.NewFleetConn(conn, transport.DefaultMaxFrameBytes)

	// Handshake: the first frame must be a worker hello.
	kind, payload, err := fc.ReadFrame()
	if err != nil || kind != transport.FrameFleetHello {
		return
	}
	hello, err := transport.DecodeFleetHello(payload)
	if err != nil || !admit() {
		return
	}
	// Worker display names need not be unique; fencing uses connID.
	// Track emission for this worker's obs lane is serialized under
	// c.mu, because other connections may also stamp it.
	worker := hello.Worker
	tk := c.cfg.Tracer.Lane("fleet", worker)
	c.mu.Lock()
	c.nextConn++
	connID := c.nextConn
	c.conns[connID] = conn
	c.workers++
	c.mWorkers.Set(int64(c.workers))
	closed := c.closed
	if tk.On() {
		tk.WallInstant("join", "worker", fmt.Sprintf("pid %d", hello.PID))
	}
	c.emitLocked(Event{Kind: WorkerJoined, Worker: worker})
	c.mu.Unlock()

	defer func() {
		why := "worker disconnected"
		if errors.Is(err, os.ErrDeadlineExceeded) {
			why = "lease expired"
		}
		c.mu.Lock()
		delete(c.conns, connID)
		c.workers--
		c.mWorkers.Set(int64(c.workers))
		for _, st := range c.states {
			if st.leased && !st.done && st.connID == connID {
				c.releaseLocked(st, why)
			}
		}
		c.gaugesLocked()
		c.emitLocked(Event{Kind: WorkerLeft, Worker: worker})
		c.mu.Unlock()
	}()
	if !closed {
		err = c.converse(conn, fc, tk, worker, connID) // its error names the release
	}
}

// converse answers an admitted worker until its connection ends, and
// returns why. Each wait for a frame and each reply is bounded by the
// TTL on its own, so only the worker's silence counts: neither a park
// nor the coordinator's work before a reply (an fsync under c.mu) does.
func (c *Coordinator) converse(conn net.Conn, fc *transport.FleetConn, tk *obs.Track, worker string, connID uint64) error {
	// A deadline fails to set only on a closed connection, whose next
	// read or write fails anyway.
	ttl := c.cfg.LeaseTTL
	conn.SetWriteDeadline(time.Now().Add(ttl))
	if err := fc.WriteWelcome(transport.FleetWelcome{
		Fingerprint:     c.fp,
		Jobs:            len(c.unique),
		LeaseMillis:     int(ttl / time.Millisecond),
		CheckpointEvery: c.cfg.CheckpointEvery,
	}); err != nil {
		return err
	}

	for {
		conn.SetReadDeadline(time.Now().Add(ttl))
		kind, payload, err := fc.ReadFrame()
		if err != nil {
			return err
		}
		var ok bool
		switch kind {
		case transport.FrameFleetLease:
			if _, err := transport.DecodeFleetLease(payload); err != nil {
				return err
			}
			lease, err := c.grantLease(conn, tk, worker, connID)
			if err != nil {
				return err
			}
			conn.SetWriteDeadline(time.Now().Add(ttl))
			if err := fc.WriteLease(lease); err != nil {
				return err
			}
			continue
		case transport.FrameFleetHeartbeat:
			// Reading it was the renewal; nothing is answered.
			msg, err := transport.DecodeFleetHeartbeat(payload)
			if err != nil {
				return err
			}
			c.mu.Lock()
			stale := c.leaseOfLocked(connID, msg.JobID) == nil
			c.mu.Unlock()
			if stale {
				return fmt.Errorf("fleet: heartbeat from %s for a job it does not hold", worker)
			}
			continue
		case transport.FrameFleetProgress:
			msg, err := transport.DecodeFleetProgress(payload)
			if err != nil {
				return err
			}
			if ok, err = c.applyProgress(worker, connID, msg); err != nil {
				return err
			}
		case transport.FrameFleetResult:
			msg, err := transport.DecodeFleetResult(payload)
			if err != nil {
				return err
			}
			ok = c.applyResult(tk, worker, connID, msg)
		default:
			return fmt.Errorf("fleet: frame kind %d from worker %s", kind, worker)
		}
		conn.SetWriteDeadline(time.Now().Add(ttl))
		if err := fc.WriteAck(transport.FleetAck{OK: ok}); err != nil {
			return err
		}
	}
}

// grantLease answers one lease request: a job grant (with checkpoint
// handoff when a usable one exists) or a drain. While every remaining
// job is leased the request parks here, unanswered, and a worker that
// drops meanwhile is answered nothing (an error).
func (c *Coordinator) grantLease(conn net.Conn, tk *obs.Track, worker string, connID uint64) (transport.FleetLease, error) {
	drain := transport.FleetLease{Status: transport.LeaseDrain}
	c.mu.Lock()
	defer c.mu.Unlock()
	st, err := c.awaitJobLocked(tk, conn)
	if st == nil {
		return drain, err
	}

	// Checkpoint handoff: attach the previous holder's uploaded state
	// when the store vouches for it (LoadBoundary applies the one
	// resume-soundness rule, to the checkpoint's header; the worker's
	// sink applies it again to the bytes that arrive), as the bytes
	// LoadBoundary read.
	j := st.job
	var h sweep.Handoff
	if c.cfg.CheckpointEvery > 0 {
		h, _ = c.store.LoadBoundary(j)
	}

	jobJSON, err := sweep.MarshalJobWire(j)
	if err != nil {
		c.failLocked(fmt.Errorf("fleet: encoding job %s: %w", j.Name, err))
		return drain, nil
	}
	st.leased = true
	st.worker = worker
	st.connID = connID
	st.grantedAt = time.Now()
	st.round = h.Round
	c.mGranted.Inc()
	c.gaugesLocked()
	tk.WallInstant("lease "+j.Name, "lease", fmt.Sprintf("from round %d", h.Round))
	c.emitLocked(Event{Kind: JobLeased, Worker: worker, Job: j, Round: h.Round})
	return transport.FleetLease{
		Status: transport.LeaseGrant,
		JobID:  j.ID,
		Job:    jobJSON,
		Ckpt:   h.Ckpt,
	}, nil
}

// awaitJobLocked returns the first pending job, parked on c.changed
// while every remaining job is leased, or nil once the sweep is over.
// A park ends in a "parked" span on the worker's lane. A parked worker
// sends nothing, so one found hung up, or with bytes waiting, on a wake
// is gone: an error, and it is granted nothing.
func (c *Coordinator) awaitJobLocked(tk *obs.Track, conn net.Conn) (*jobState, error) {
	var parked time.Time // stays zero untraced
	defer func() {
		if !parked.IsZero() {
			tk.WallSpanAt("parked", "lease", parked, time.Since(parked))
		}
	}()
	for !c.finished && c.firstErr == nil && !c.closed {
		for _, st := range c.states {
			if !st.done && !st.leased {
				return st, nil
			}
		}
		if tk.On() && parked.IsZero() {
			parked = time.Now()
		}
		c.changed.Wait()
		if workerGone(conn) {
			return nil, errors.New("fleet: worker gone while parked")
		}
	}
	return nil, nil
}

// workerGone peeks at conn without blocking (it runs under c.mu) and
// reports whether the peer hung up or sent a byte. It clears the read
// deadline first: the one armed before the request may have passed
// during the park, and RawConn.Read fails at once on an expired one.
func workerGone(conn net.Conn) bool {
	raw, err := conn.(syscall.Conn).SyscallConn() // the listener is TCP
	if err != nil || conn.SetReadDeadline(time.Time{}) != nil {
		return true
	}
	var peek error
	err = raw.Read(func(fd uintptr) bool {
		_, _, peek = syscall.Recvfrom(int(fd), make([]byte, 1), syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		return true // never wait for readability
	})
	return err != nil || peek != syscall.EAGAIN
}

// leaseOfLocked returns the job state iff connID currently holds its
// lease. Stale holders (expired, reassigned, or already-done jobs) get
// nil, and count in mStale — their messages are fenced, not applied.
// The connection and the leased flag are the whole fence; the package
// comment says why no per-grant token is needed.
func (c *Coordinator) leaseOfLocked(connID uint64, jobID string) *jobState {
	st, ok := c.byID[jobID]
	if !ok || st.done || !st.leased || st.connID != connID {
		c.mStale.Inc()
		return nil
	}
	return st
}

// applyProgress persists a checkpoint upload. msg's checkpoint is a
// view into the frame just read: SaveBoundary writes it into the slot
// and keeps nothing, so it is done with before the connection's next
// read. ok=false means the sender no longer holds the lease, and only
// that. An error ends the connection: a checkpoint whose header
// contradicts its frame (another scheme, another round, or no header),
// or a store that cannot take the upload, which has already failed the
// sweep — acked as a lost lease it would have the worker abandon the
// job and the next holder fail at the same write, forever.
func (c *Coordinator) applyProgress(worker string, connID uint64, msg transport.FleetProgress) (ok bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.leaseOfLocked(connID, msg.JobID)
	if st == nil {
		return false, nil
	}
	if scheme, round, err := sim.DecodeCheckpointHeader(msg.Ckpt); err != nil || scheme != st.job.Scheme || round != msg.Round {
		return false, fmt.Errorf("fleet: malformed checkpoint for round %d of job %s", msg.Round, st.job.Name)
	}
	if err := c.store.SaveBoundary(st.job, msg.Ckpt); err != nil {
		err = fmt.Errorf("fleet: persisting round %d of job %s: %w", msg.Round, st.job.Name, err)
		c.emitLocked(Event{Kind: JobFailed, Worker: worker, Job: st.job, Round: msg.Round, Err: err})
		c.failLocked(err)
		return false, err
	}
	st.round = msg.Round
	c.mCkptBytes.Observe(float64(len(msg.Ckpt)))
	c.emitLocked(Event{Kind: JobProgressed, Worker: worker, Job: st.job, Round: msg.Round})
	return true, nil
}

// applyResult records a completed job (or aborts the sweep on a worker
// failure). Results are accepted from any current leaseholder; a
// zombie's duplicate result for an already-done job is acked OK —
// results are bit-identical by contract, so the first write stands.
func (c *Coordinator) applyResult(tk *obs.Track, worker string, connID uint64, msg transport.FleetResult) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.byID[msg.JobID]; st != nil && st.done {
		return true // duplicate finish from a fenced zombie
	}
	st := c.leaseOfLocked(connID, msg.JobID)
	if st == nil {
		return false
	}
	if msg.Failed {
		err := fmt.Errorf("fleet: job %s failed on %s: %s", st.job.Name, worker, msg.Body)
		c.emitLocked(Event{Kind: JobFailed, Worker: worker, Job: st.job, Err: err})
		c.failLocked(err)
		return true
	}
	var parts sweep.ResultParts
	if err := json.Unmarshal(msg.Body, &parts); err != nil {
		c.failLocked(fmt.Errorf("fleet: decoding result for %s: %w", st.job.Name, err))
		return false
	}
	if err := c.store.Record(sweep.ResultFrom(st.job, parts)); err != nil {
		c.failLocked(err)
		return false
	}
	_ = c.store.RecordTiming(st.job.ID, msg.HostSeconds)
	st.done = true
	st.leased = false
	c.doneN++
	c.mResults.Inc()
	c.mLeaseSeconds.Observe(time.Since(st.grantedAt).Seconds())
	tk.WallSpanAt(st.job.Name, "job", st.grantedAt, time.Since(st.grantedAt))
	c.gaugesLocked()
	c.emitLocked(Event{Kind: JobRecorded, Worker: worker, Job: st.job})
	c.maybeFinishLocked()
	return true
}
