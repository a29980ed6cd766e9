package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gsfl/env"
	"gsfl/fleet"
	"gsfl/internal/testutil"
	"gsfl/internal/transport"
	"gsfl/obs"
	"gsfl/sweep"
)

const (
	workerEnvAddr = "GSFL_FLEET_TEST_WORKER"
	workerEnvName = "GSFL_FLEET_TEST_NAME"
)

// TestMain doubles as the worker entry point for the multi-process
// tests: when workerEnvAddr names a coordinator, the re-exec'd test
// binary runs a fleet worker to completion instead of the test suite.
func TestMain(m *testing.M) {
	if addr := os.Getenv(workerEnvAddr); addr != "" {
		err := fleet.RunWorker(context.Background(), fleet.WorkerConfig{
			Addr: addr,
			Name: os.Getenv(workerEnvName),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "fleet test worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// testGrid is a small 2x2 grid over the CI spec: 4 jobs, 3 rounds each.
func testGrid() sweep.Grid {
	return sweep.Grid{
		Name: "t", Base: env.TestSpec(), Rounds: 3, EvalEvery: 1,
		Axes: sweep.Axes{
			Groups:  []int{1, 2},
			Schemes: []string{"gsfl", "sl"},
		},
	}
}

func jobsOf(t testing.TB, g sweep.Grid) []sweep.Job {
	t.Helper()
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// referenceTree runs the grid through the in-process Scheduler at
// Jobs=1 — the determinism contract's ground truth — and returns the
// resulting store as path->content.
func referenceTree(t *testing.T, jobs []sweep.Job) map[string]string {
	t.Helper()
	dir := t.TempDir()
	store, err := sweep.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	sched := &sweep.Scheduler{Jobs: 1, CheckpointEvery: 1}
	if _, err := sched.Run(context.Background(), jobs, store); err != nil {
		t.Fatal(err)
	}
	return readTree(t, dir)
}

// readTree returns path->content for every file under dir.
func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		out[rel] = string(buf)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func requireSameTree(t *testing.T, want, got map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("store file counts differ: got %d, want %d (got %v)", len(got), len(want), keys(got))
	}
	for path, body := range want {
		if got[path] != body {
			t.Fatalf("store file %s differs from the single-process reference", path)
		}
	}
}

func keys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// workerOK filters the expected shutdown paths of an in-process worker:
// a drained worker returns nil, a cancelled one its context error.
func workerOK(err error) bool {
	return err == nil || errors.Is(err, context.Canceled)
}

// TestFleetByteIdenticalToSingleProcess is the distributed half of the
// determinism contract: a grid swept by a coordinator and two
// in-process workers leaves a store byte-identical to a Jobs=1
// single-process run, and Wait fans results out to the caller's job
// order just like Scheduler.Run.
func TestFleetByteIdenticalToSingleProcess(t *testing.T) {
	jobs := jobsOf(t, testGrid())
	want := referenceTree(t, jobs)

	dir := t.TempDir()
	store, err := sweep.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	c, err := fleet.Serve("127.0.0.1:0", jobs, store, fleet.Config{CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fleet.RunWorker(ctx, fleet.WorkerConfig{
				Addr: c.Addr().String(), Name: fmt.Sprintf("w%d", i),
			})
		}(i)
	}

	wctx, wcancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer wcancel()
	results, err := c.Wait(wctx)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	wg.Wait()
	for i, werr := range errs {
		if !workerOK(werr) {
			t.Fatalf("worker %d: %v", i, werr)
		}
	}

	if len(results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(results), len(jobs))
	}
	for i, res := range results {
		if res.Job.ID != jobs[i].ID {
			t.Fatalf("result %d is job %s, want %s", i, res.Job.ID, jobs[i].ID)
		}
	}
	requireSameTree(t, want, readTree(t, dir))
}

func workerCmd(addr, name string) *exec.Cmd {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), workerEnvAddr+"="+addr, workerEnvName+"="+name)
	cmd.Stderr = os.Stderr
	return cmd
}

// TestFleetKillAndRejoinByteIdentical is the acceptance test: a worker
// process is SIGKILLed mid-job (deterministically — coordinator events
// fire before the ack frame, so the kill lands while the worker blocks
// on its first checkpoint upload), a replacement process joins, resumes
// the orphaned job from its uploaded checkpoint, and the final store is
// byte-identical to an uninterrupted single-process run.
func TestFleetKillAndRejoinByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	jobs := jobsOf(t, testGrid())
	want := referenceTree(t, jobs)

	dir := t.TempDir()
	store, err := sweep.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	var (
		mu       sync.Mutex
		victim   *os.Process
		killOnce sync.Once
		killed   = make(chan struct{})
		handoffs int
	)
	observer := fleet.ObserverFunc(func(e fleet.Event) {
		switch e.Kind {
		case fleet.JobProgressed:
			// First checkpoint persisted: kill its worker before the ack
			// goes out. The worker dies mid-job, every time.
			killOnce.Do(func() {
				mu.Lock()
				p := victim
				mu.Unlock()
				if p != nil {
					p.Kill()
				}
				close(killed)
			})
		case fleet.JobLeased:
			if e.Round > 0 {
				mu.Lock()
				handoffs++
				mu.Unlock()
			}
		}
	})

	c, err := fleet.Serve("127.0.0.1:0", jobs, store, fleet.Config{
		LeaseTTL:        10 * time.Second,
		CheckpointEvery: 1,
		Observers:       []fleet.Observer{observer},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	w1 := workerCmd(c.Addr().String(), "victim")
	if err := w1.Start(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	victim = w1.Process
	mu.Unlock()

	select {
	case <-killed:
	case <-time.After(2 * time.Minute):
		t.Fatal("no checkpoint upload arrived; worker never progressed")
	}
	_ = w1.Wait() // reap; a SIGKILLed process reports an error by design

	w2 := workerCmd(c.Addr().String(), "rejoin")
	if err := w2.Start(); err != nil {
		t.Fatal(err)
	}

	wctx, wcancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer wcancel()
	results, err := c.Wait(wctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Wait(); err != nil {
		t.Fatalf("rejoined worker exited abnormally: %v", err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(results), len(jobs))
	}
	mu.Lock()
	resumed := handoffs
	mu.Unlock()
	if resumed == 0 {
		t.Fatal("no lease carried a checkpoint handoff — the killed job was not resumed mid-flight")
	}
	requireSameTree(t, want, readTree(t, dir))
}

// TestFleetLeaseExpiryReassigns covers the silent-failure path the
// kill test cannot: a worker that holds its connection open but sends
// nothing (a hung process, a one-way partition). Once the TTL has
// passed, the coordinator must close that connection and reassign its
// job, and a heartbeat naming the revoked lease must end the connection
// it arrives on and count as stale.
func TestFleetLeaseExpiryReassigns(t *testing.T) {
	jobs := jobsOf(t, testGrid())
	dir := t.TempDir()
	store, err := sweep.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	reassigned := make(chan struct{}, len(jobs))
	observer := fleet.ObserverFunc(func(e fleet.Event) {
		if e.Kind == fleet.JobReassigned {
			select {
			case reassigned <- struct{}{}:
			default:
			}
		}
	})
	const ttl = 250 * time.Millisecond
	c, err := fleet.Serve("127.0.0.1:0", jobs, store, fleet.Config{
		LeaseTTL:        ttl,
		CheckpointEvery: 1,
		Observers:       []fleet.Observer{observer},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The zombie: takes a lease, then goes silent without disconnecting.
	conn, fc := rawWorker(t, c, "zombie")
	lease := takeLease(t, fc)
	granted := time.Now()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, _, err := fc.ReadFrame(); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("silent worker's connection: read %v, want it closed by the coordinator", err)
	}
	if d := time.Since(granted); d < ttl {
		t.Fatalf("silent worker's connection closed %v after its grant, inside the %v TTL", d, ttl)
	}
	select {
	case <-reassigned:
	case <-time.After(10 * time.Second):
		t.Fatal("silent worker's job was never reassigned")
	}

	// The fence: on a new connection, a heartbeat for the revoked lease
	// ends that connection, unanswered, and counts as stale.
	stale := metric(t, c, "gsfl_fleet_stale_messages_total")
	conn, fc = rawWorker(t, c, "zombie")
	if err := fc.WriteHeartbeat(transport.FleetHeartbeat{JobID: lease.JobID, Round: 1}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if kind, _, err := fc.ReadFrame(); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("heartbeat on a revoked lease: got frame kind %d (err %v), want the connection closed", kind, err)
	}
	if got := metric(t, c, "gsfl_fleet_stale_messages_total"); got != stale+1 {
		t.Fatalf("stale messages %v after the revoked heartbeat, want %v", got, stale+1)
	}
	conn.Close()

	// A live worker finishes the sweep, the zombie's job included.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- fleet.RunWorker(ctx, fleet.WorkerConfig{Addr: c.Addr().String(), Name: "live"})
	}()
	wctx, wcancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer wcancel()
	results, err := c.Wait(wctx)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if werr := <-done; !workerOK(werr) {
		t.Fatalf("live worker: %v", werr)
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(results), len(jobs))
	}
}

// TestFleetHeartbeatsHoldLease: heartbeats alone keep a lease for many
// TTLs. A worker that never uploads a checkpoint but heartbeats every
// TTL/3 holds its job for five TTLs, and its result is then accepted.
func TestFleetHeartbeatsHoldLease(t *testing.T) {
	const ttl = 200 * time.Millisecond
	c, job, events := serveOneJob(t, fleet.Config{LeaseTTL: ttl})
	result := resultOf(t, job)
	_, a := rawWorker(t, c, "A")
	takeLease(t, a)
	for start := time.Now(); time.Since(start) < 5*ttl; time.Sleep(ttl / 3) {
		if err := a.WriteHeartbeat(transport.FleetHeartbeat{JobID: job.ID, Round: 0}); err != nil {
			t.Fatal(err)
		}
	}
	sendResult(t, a, result)
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	if _, err := c.Wait(wctx); err != nil {
		t.Fatal(err)
	}
	for len(events) > 0 {
		if e := <-events; e.Kind == fleet.JobReassigned {
			t.Fatalf("the heartbeating worker's lease was reassigned at %v", e.at)
		}
	}
	if got := metric(t, c, "gsfl_fleet_leases_granted_total"); got != 1 {
		t.Fatalf("leases granted %v, want 1", got)
	}
}

// TestFleetResumesCompletedStore: serving a grid over a store that
// already holds every result completes immediately, without workers.
func TestFleetResumesCompletedStore(t *testing.T) {
	jobs := jobsOf(t, testGrid())
	dir := t.TempDir()
	store, err := sweep.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&sweep.Scheduler{Jobs: 2}).Run(context.Background(), jobs, store); err != nil {
		t.Fatal(err)
	}
	store.Close()

	store2, err := sweep.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	c, err := fleet.Serve("127.0.0.1:0", jobs, store2, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	wctx, wcancel := context.WithTimeout(context.Background(), time.Minute)
	defer wcancel()
	results, err := c.Wait(wctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(results), len(jobs))
	}
}

// TestFleetCloseWithSilentPeer: a peer that connects and never sends
// its hello must not keep Close from returning, nor leave a handler
// goroutine behind.
func TestFleetCloseWithSilentPeer(t *testing.T) {
	store, err := sweep.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	c, err := fleet.Serve("127.0.0.1:0", jobsOf(t, testGrid()), store, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	silent, err := net.Dial("tcp", c.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	// Connections are accepted in order, so once a later peer has its
	// welcome the silent one is inside the coordinator.
	conn, _ := rawWorker(t, c, "prompt")
	conn.Close()

	closed := make(chan struct{})
	go func() {
		defer close(closed)
		c.Close()
	}()
	select {
	case <-closed:
	case <-time.After(8 * time.Second): // under the 10 s hello deadline
		t.Fatal("Close hung on a peer that never sent its hello")
	}
	testutil.ExpectNoGoroutines(t, "gsfl/fleet.(*Coordinator)")
}

// TestFleetWorkerWritesNothingPerRound: a lease checkpoints into the
// wire and resumes from the bytes it arrived with, never from a file.
// Listed while the worker blocks on each upload's ack, the (deprecated,
// ignored) scratch directory holds nothing, for a job leased fresh and
// for one that resumed alike.
func TestFleetWorkerWritesNothingPerRound(t *testing.T) {
	jobs := jobsOf(t, testGrid())
	store, err := sweep.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	// What a worker that died after its first upload leaves behind.
	resumed := jobs[0]
	errStop := errors.New("stop after the first checkpoint")
	_, err = sweep.RunLeased(context.Background(), resumed, 1, nil, sweep.LeaseCallbacks{
		OnCheckpoint: func(p sweep.Progress, ckpt []byte) error {
			if err := store.SaveBoundary(resumed, p, ckpt); err != nil {
				return err
			}
			return errStop
		},
	})
	if !errors.Is(err, errStop) {
		t.Fatalf("seeding the handoff: %v", err)
	}

	scratch := t.TempDir()
	var (
		mu      sync.Mutex
		handoff = map[string]bool{} // job ID -> leased with a checkpoint
		uploads int
	)
	observer := fleet.ObserverFunc(func(e fleet.Event) {
		mu.Lock()
		defer mu.Unlock()
		switch e.Kind {
		case fleet.JobLeased:
			handoff[e.Job.ID] = e.Round > 0
		case fleet.JobProgressed:
			uploads++
			entries, err := os.ReadDir(scratch)
			if err != nil {
				t.Error(err)
			}
			var names []string
			for _, ent := range entries {
				names = append(names, ent.Name())
			}
			if len(names) != 0 {
				t.Errorf("scratch holds %v at round %d of %s (handoff %v), want nothing",
					names, e.Round, e.Job.Name, handoff[e.Job.ID])
			}
		}
	})
	c, err := fleet.Serve("127.0.0.1:0", jobs, store, fleet.Config{
		CheckpointEvery: 1,
		Observers:       []fleet.Observer{observer},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- fleet.RunWorker(ctx, fleet.WorkerConfig{Addr: c.Addr().String(), Name: "w", ScratchDir: scratch})
	}()
	wctx, wcancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer wcancel()
	if _, err := c.Wait(wctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	if werr := <-done; !workerOK(werr) {
		t.Fatalf("worker: %v", werr)
	}
	mu.Lock()
	defer mu.Unlock()
	if !handoff[resumed.ID] {
		t.Fatalf("%s was not leased with its handoff", resumed.Name)
	}
	// Every round but the last of the fresh jobs, and not the first
	// either of the resumed one.
	if want := len(jobs)*(testGrid().Rounds-1) - 1; uploads != want {
		t.Fatalf("saw %d checkpoint uploads, want %d", uploads, want)
	}
	if entries, err := os.ReadDir(scratch); err != nil || len(entries) != 0 {
		t.Fatalf("scratch after the sweep: %v, %v", entries, err)
	}
}

// TestFleetPersistenceFailureFailsTheSweep: a store that cannot take a
// worker's checkpoint is the coordinator's failure, not the worker's
// lost lease. Acked as one, the worker abandons the job, the lease
// expires, the next grant fails at the same write, and the sweep never
// ends nor reports why; instead the first failed write must come out of
// Wait naming the job, the round and the file, with the job never
// leased again.
func TestFleetPersistenceFailureFailsTheSweep(t *testing.T) {
	jobs := jobsOf(t, testGrid())[:1]
	dir := t.TempDir()
	store, err := sweep.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	// A regular file where the directory should be refuses every write
	// below it, for root too.
	ckpt := filepath.Join(dir, "ckpt")
	if err := os.Remove(ckpt); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	var (
		mu     sync.Mutex
		leases int
	)
	c, err := fleet.Serve("127.0.0.1:0", jobs, store, fleet.Config{
		LeaseTTL:        200 * time.Millisecond,
		CheckpointEvery: 1,
		Observers: []fleet.Observer{fleet.ObserverFunc(func(e fleet.Event) {
			if e.Kind == fleet.JobLeased {
				mu.Lock()
				leases++
				mu.Unlock()
			}
		})},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- fleet.RunWorker(ctx, fleet.WorkerConfig{Addr: c.Addr().String(), Name: "w"})
	}()
	wctx, wcancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer wcancel()
	_, err = c.Wait(wctx)
	if err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait = %v, want the store's write error", err)
	}
	for _, part := range []string{jobs[0].Name, "round 1", ckpt} {
		if !strings.Contains(err.Error(), part) {
			t.Errorf("error %q does not name %q", err, part)
		}
	}
	// The worker is told the sweep is over, not that its lease is lost.
	if werr := <-done; !workerOK(werr) {
		t.Fatalf("worker: %v", werr)
	}
	mu.Lock()
	defer mu.Unlock()
	if leases != 1 {
		t.Fatalf("the job was leased %d times, want once", leases)
	}
}

// TestFleetRefusesSubMillisecondLease: the welcome carries the lease TTL
// in whole milliseconds, so Serve refuses one under a millisecond. 500µs
// or 2ns would reach every worker as a zero it rejects.
func TestFleetRefusesSubMillisecondLease(t *testing.T) {
	store, err := sweep.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for _, ttl := range []time.Duration{500 * time.Microsecond, 2 * time.Nanosecond} {
		c, err := fleet.Serve("127.0.0.1:0", jobsOf(t, testGrid()), store, fleet.Config{LeaseTTL: ttl})
		if err == nil {
			c.Close()
			t.Fatalf("Serve accepted a %v lease TTL", ttl)
		}
		if !strings.Contains(err.Error(), ttl.String()) {
			t.Fatalf("Serve error %q does not name the %v TTL", err, ttl)
		}
	}
}

// TestFleetWorkerStopsOnUnusableWelcome: a worker whose coordinator
// welcome fails to decode returns that error after one connection. It
// used to treat it as a dropped session and redial every 500ms for as
// long as the coordinator listened.
func TestFleetWorkerStopsOnUnusableWelcome(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var mu sync.Mutex
	accepted := 0
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			accepted++
			mu.Unlock()
			fc := transport.NewFleetConn(conn, 0)
			if _, _, err := fc.ReadFrame(); err == nil {
				_ = fc.WriteWelcome(transport.FleetWelcome{Jobs: 1, LeaseMillis: 0})
			}
			go func() { // hold the connection until the worker drops it
				_, _, _ = fc.ReadFrame()
				conn.Close()
			}()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err = fleet.RunWorker(ctx, fleet.WorkerConfig{Addr: ln.Addr().String(), Name: "w"})
	if err == nil || ctx.Err() != nil || !strings.Contains(err.Error(), "lease 0ms") {
		t.Fatalf("RunWorker returned %v (context: %v), want the welcome's decode error", err, ctx.Err())
	}
	mu.Lock()
	defer mu.Unlock()
	if accepted != 1 {
		t.Fatalf("worker connected %d times, want once", accepted)
	}
}

// rawWorker joins c as a hand-driven worker: hello sent, welcome read.
func rawWorker(t *testing.T, c *fleet.Coordinator, name string) (net.Conn, *transport.FleetConn) {
	t.Helper()
	conn, err := net.Dial("tcp", c.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	fc := transport.NewFleetConn(conn, 0)
	if err := fc.WriteHello(transport.FleetHello{Worker: name, PID: 1}); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := fc.ReadFrame()
	if err != nil || kind != transport.FrameFleetHello {
		t.Fatalf("welcome: kind %d err %v", kind, err)
	}
	if _, err := transport.DecodeFleetWelcome(payload); err != nil {
		t.Fatal(err)
	}
	return conn, fc
}

// takeLease asks for a lease on fc and requires a grant.
func takeLease(t *testing.T, fc *transport.FleetConn) transport.FleetLease {
	t.Helper()
	if err := fc.WriteLeaseRequest(); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := fc.ReadFrame()
	if err != nil || kind != transport.FrameFleetLease {
		t.Fatalf("lease reply: kind %d err %v", kind, err)
	}
	lease, err := transport.DecodeFleetLease(payload)
	if err != nil {
		t.Fatal(err)
	}
	if lease.Status != transport.LeaseGrant {
		t.Fatalf("lease status %d, want grant", lease.Status)
	}
	return lease
}

// metric reads one unlabelled counter or gauge from c's metrics page.
func metric(t *testing.T, c *fleet.Coordinator, name string) float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	c.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("no %s on the metrics page", name)
	return 0
}

// stampedEvent is a coordinator event with the moment it was emitted.
type stampedEvent struct {
	fleet.Event
	at time.Time
}

// serveOneJob serves the first job of the test grid under cfg and
// streams every coordinator event, stamped, to the returned channel.
func serveOneJob(t *testing.T, cfg fleet.Config) (*fleet.Coordinator, sweep.Job, <-chan stampedEvent) {
	t.Helper()
	job := jobsOf(t, testGrid())[0]
	store, err := sweep.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	// The observer runs under the coordinator's lock and must never
	// block: 64 is well above the events one of these tests emits.
	events := make(chan stampedEvent, 64)
	cfg.Observers = []fleet.Observer{fleet.ObserverFunc(func(e fleet.Event) {
		events <- stampedEvent{e, time.Now()}
	})}
	c, err := fleet.Serve("127.0.0.1:0", []sweep.Job{job}, store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, job, events
}

// awaitEvent skips events until worker's next one of kind and returns
// the moment it was emitted.
func awaitEvent(t *testing.T, events <-chan stampedEvent, kind fleet.EventKind, worker string, within time.Duration) time.Time {
	t.Helper()
	timeout := time.After(within)
	for {
		select {
		case e := <-events:
			if e.Kind == kind && e.Worker == worker {
				return e.at
			}
		case <-timeout:
			t.Fatalf("no %v event from %s within %v", kind, worker, within)
		}
	}
}

// resultOf runs j in process and returns the result frame its holder
// would send.
func resultOf(t *testing.T, j sweep.Job) transport.FleetResult {
	t.Helper()
	res, err := sweep.RunLeased(context.Background(), j, 0, nil, sweep.LeaseCallbacks{})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(sweep.PartsOf(res))
	if err != nil {
		t.Fatal(err)
	}
	return transport.FleetResult{JobID: j.ID, Body: body}
}

// sendResult ships msg on fc and requires an OK ack.
func sendResult(t *testing.T, fc *transport.FleetConn, msg transport.FleetResult) {
	t.Helper()
	if err := fc.WriteResult(msg); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := fc.ReadFrame()
	if err != nil || kind != transport.FrameFleetHeartbeat {
		t.Fatalf("result ack: kind %d err %v", kind, err)
	}
	if ack, err := transport.DecodeFleetAck(payload); err != nil || !ack.OK {
		t.Fatalf("result ack %+v, %v", ack, err)
	}
}

// startWorker runs a worker named name against c until ctx ends; its
// RunWorker error arrives on the returned channel.
func startWorker(t *testing.T, ctx context.Context, c *fleet.Coordinator, name string) <-chan error {
	done := make(chan error, 1)
	cfg := fleet.WorkerConfig{Addr: c.Addr().String(), Name: name}
	go func() { done <- fleet.RunWorker(ctx, cfg) }()
	return done
}

// parkDelay is how long after joining a worker's first lease request is
// surely in: parked at the coordinator, where a polling one would have
// answered it with a wait and had the worker sleep out its retry.
const parkDelay = 50 * time.Millisecond

// TestFleetParkedRequestGrantedOnRelease: a worker whose request found
// every job leased is granted the job the moment it is released — its
// holder dropped, or went silent past the TTL — not after a retry
// sleep. A park does not count against the parked worker: in long-park
// the holder heartbeats for two TTLs before it drops, and the worker
// parked all that time is still the one granted. The release's trace
// note tells a silence from a drop.
func TestFleetParkedRequestGrantedOnRelease(t *testing.T) {
	for release, note := range map[string]string{
		"drop":      "worker disconnected",
		"expiry":    "lease expired",
		"long-park": "worker disconnected",
	} {
		t.Run(release, func(t *testing.T) {
			tr := obs.New(obs.ClockWall)
			cfg := fleet.Config{Tracer: tr}
			if release != "drop" {
				cfg.LeaseTTL = 200 * time.Millisecond
			}
			c, job, events := serveOneJob(t, cfg)
			connA, a := rawWorker(t, c, "A")
			takeLease(t, a)

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := startWorker(t, ctx, c, "B")
			awaitEvent(t, events, fleet.WorkerJoined, "B", 5*time.Second)
			time.Sleep(parkDelay)

			released := time.Now()
			switch release {
			case "drop":
				connA.Close()
			case "expiry":
				released = awaitEvent(t, events, fleet.JobReassigned, "A", 5*time.Second)
			case "long-park":
				for start := time.Now(); time.Since(start) < 2*cfg.LeaseTTL; time.Sleep(cfg.LeaseTTL / 3) {
					if err := a.WriteHeartbeat(transport.FleetHeartbeat{JobID: job.ID}); err != nil {
						t.Fatal(err)
					}
				}
				released = time.Now()
				connA.Close()
			}
			if d := awaitEvent(t, events, fleet.JobLeased, "B", 5*time.Second).Sub(released); d > 100*time.Millisecond {
				t.Fatalf("B was granted the released job %v after A lost it, want under 100ms", d)
			}
			wctx, wcancel := context.WithTimeout(context.Background(), time.Minute)
			defer wcancel()
			if _, err := c.Wait(wctx); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatalf("B: %v, want drained", err)
			}
			var notes []any
			for _, e := range traceEvents(t, tr) {
				if strings.HasPrefix(e.Name, "reassign ") {
					notes = append(notes, e.Args["note"])
				}
			}
			if len(notes) != 1 || notes[0] != note {
				t.Fatalf("release notes %v, want [%s]", notes, note)
			}
		})
	}
}

// TestFleetParkedRequestDrainsOnFinish: a worker parked when another's
// result completes the sweep is drained at once, so Close need not
// wait for it. The park shows as one "parked" span on its lane.
func TestFleetParkedRequestDrainsOnFinish(t *testing.T) {
	tr := obs.New(obs.ClockWall)
	c, job, events := serveOneJob(t, fleet.Config{Tracer: tr})
	result := resultOf(t, job)
	connA, a := rawWorker(t, c, "A")
	takeLease(t, a)

	done := startWorker(t, context.Background(), c, "B")
	awaitEvent(t, events, fleet.WorkerJoined, "B", 5*time.Second)
	time.Sleep(parkDelay)

	sendResult(t, a, result)
	connA.Close()
	start := time.Now()
	c.Close()
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("Close took %v after the sweep finished, want under 100ms", d)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("B: %v, want drained", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("B never returned")
	}

	lanes := map[int]any{} // tid -> thread name
	var parked []int
	for _, e := range traceEvents(t, tr) {
		switch {
		case e.Ph == "M" && e.Name == "thread_name":
			lanes[e.Tid] = e.Args["name"]
		case e.Name == "parked":
			parked = append(parked, e.Tid)
		}
	}
	if len(parked) != 1 || lanes[parked[0]] != "B" {
		t.Fatalf("parked spans on lanes %v (names %v), want one on B", parked, lanes)
	}
}

// traceEvent is one event of a Chrome trace, as far as the tests read it.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// traceEvents renders tr and returns its events.
func traceEvents(t *testing.T, tr *obs.Tracer) []traceEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	return file.TraceEvents
}

// TestFleetParkedWorkerStopsOnCancel: a worker parked behind another
// worker's running job returns its context's error as soon as it is
// cancelled, leaving no goroutine behind.
func TestFleetParkedWorkerStopsOnCancel(t *testing.T) {
	c, _, events := serveOneJob(t, fleet.Config{})
	connA, a := rawWorker(t, c, "A")
	takeLease(t, a)

	ctx, cancel := context.WithCancel(context.Background())
	done := startWorker(t, ctx, c, "B")
	awaitEvent(t, events, fleet.WorkerJoined, "B", 5*time.Second)
	time.Sleep(parkDelay)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("B: %v, want %v", err, context.Canceled)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled parked worker did not return within 1s")
	}
	connA.Close()
	c.Close()
	testutil.ExpectNoGoroutines(t, "gsfl/fleet.")
}

// TestFleetParkedHandlerEndsWithDroppedWorker: a parked handler learns
// that its worker dropped when it wakes, at the next release, at the
// sweep's finish or at Close, and ends well inside Close's grace
// period. It answers nothing: the job released at the wake is not
// granted to the dead connection, so neither a lease to B nor a second
// reassignment shows.
func TestFleetParkedHandlerEndsWithDroppedWorker(t *testing.T) {
	for _, wake := range []string{"release", "finish", "close"} {
		t.Run(wake, func(t *testing.T) {
			c, job, events := serveOneJob(t, fleet.Config{})
			result := resultOf(t, job)
			connA, a := rawWorker(t, c, "A")
			takeLease(t, a)
			connB, b := rawWorker(t, c, "B")
			if err := b.WriteLeaseRequest(); err != nil {
				t.Fatal(err)
			}
			time.Sleep(parkDelay)
			connB.Close()

			closed := make(chan struct{})
			switch wake {
			case "release":
				connA.Close()
			case "finish":
				sendResult(t, a, result)
			case "close":
				go func() {
					defer close(closed)
					c.Close()
				}()
			}
			var log []string
			for timeout := time.After(time.Second); !slices.Contains(log, "worker-left B"); {
				select {
				case e := <-events:
					log = append(log, e.Kind.String()+" "+e.Worker)
				case <-timeout:
					t.Fatalf("B never left; events %v", log)
				}
			}
			if slices.Contains(log, "leased B") {
				t.Fatalf("the dropped worker was granted a job: events %v", log)
			}
			if wake == "release" {
				for _, name := range []string{"gsfl_fleet_leases_granted_total", "gsfl_fleet_leases_reassigned_total"} {
					if got := metric(t, c, name); got != 1 {
						t.Fatalf("%s = %v, want 1 (events %v)", name, got, log)
					}
				}
			}
			connA.Close()
			if wake == "close" {
				<-closed
			}
			c.Close()
			testutil.ExpectNoGoroutines(t, "gsfl/fleet.(*Coordinator)")
		})
	}
}

// TestFleetWriteDeadlineReleasesLease: each reply is bounded by the TTL
// as each read is. A worker that asks for a lease and never reads the
// reply — a one-way partition, a hung process — blocks the grant's
// write once the socket buffers are full, and the lease must not wait
// for TCP to give up: the write times out about one TTL in, the handler
// ends, and the lease is released as a silent worker's is. The job is
// resumed from its slot in the store, so the grant carries a checkpoint
// larger than both buffers (Linux lets loopback's send buffer grow to
// 4 MB; the worker shrinks its receive buffer).
func TestFleetWriteDeadlineReleasesLease(t *testing.T) {
	spec := env.TestSpec()
	spec.ImageSize = 96
	spec.TrainPerClient = 8
	spec.TestPerClass = 1
	spec.Hyper.StepsPerClient = 1
	job := jobsOf(t, sweep.Grid{
		Name: "deaf", Base: spec, Rounds: 2, EvalEvery: 2,
		Axes: sweep.Axes{Groups: []int{1}, Schemes: []string{"gsfl"}},
	})[0]
	store, err := sweep.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	// Round 1's boundary in the store, as an earlier holder's upload
	// left it.
	var ckptBytes int
	if _, err := sweep.RunLeased(context.Background(), job, 1, nil, sweep.LeaseCallbacks{
		OnCheckpoint: func(p sweep.Progress, ckpt []byte) error {
			ckptBytes = len(ckpt)
			return store.SaveBoundary(job, p, ckpt)
		},
	}); err != nil {
		t.Fatal(err)
	}
	if ckptBytes < 8<<20 {
		t.Fatalf("a %d-byte checkpoint may fit in the socket buffers", ckptBytes)
	}

	const ttl = 400 * time.Millisecond
	events := make(chan stampedEvent, 64)
	c, err := fleet.Serve("127.0.0.1:0", []sweep.Job{job}, store, fleet.Config{
		LeaseTTL:        ttl,
		CheckpointEvery: 1,
		Observers: []fleet.Observer{fleet.ObserverFunc(func(e fleet.Event) {
			events <- stampedEvent{e, time.Now()}
		})},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	conn, fc := rawWorker(t, c, "deaf")
	if err := conn.(*net.TCPConn).SetReadBuffer(1); err != nil {
		t.Fatal(err)
	}
	if err := fc.WriteLeaseRequest(); err != nil {
		t.Fatal(err)
	}
	var leased, released time.Time
	for timeout := time.After(10 * time.Second); released.IsZero(); {
		select {
		case e := <-events:
			switch {
			case e.Kind == fleet.JobLeased && e.Round != 1:
				t.Fatalf("leased from round %d, want the handoff of round 1", e.Round)
			case e.Kind == fleet.JobLeased:
				leased = e.at
			case e.Kind == fleet.JobReassigned:
				released = e.at
			}
		case <-timeout:
			t.Fatal("the deaf worker's lease was never released")
		}
	}
	if d := released.Sub(leased); leased.IsZero() || d < ttl || d > 3*ttl {
		t.Fatalf("lease released %v after the grant, want about one %v TTL", d, ttl)
	}
	for _, name := range []string{"gsfl_fleet_leases_granted_total", "gsfl_fleet_leases_reassigned_total"} {
		if got := metric(t, c, name); got != 1 {
			t.Fatalf("%s = %v, want 1", name, got)
		}
	}
}
