package fleet_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gsfl/env"
	"gsfl/fleet"
	"gsfl/internal/testutil"
	"gsfl/internal/transport"
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

func jobsOf(t *testing.T, g sweep.Grid) []sweep.Job {
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
// kill test cannot: a worker that holds its connection open but stops
// heartbeating (a hung process, a one-way partition). Its lease must
// expire, the job reassign, and every later message from the zombie be
// fenced with a failed ack.
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
	c, err := fleet.Serve("127.0.0.1:0", jobs, store, fleet.Config{
		LeaseTTL:        250 * time.Millisecond,
		CheckpointEvery: 1,
		Observers:       []fleet.Observer{observer},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The zombie: takes a lease, then goes silent without disconnecting.
	conn, err := net.Dial("tcp", c.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fc := transport.NewFleetConn(conn, 0)
	if err := fc.WriteHello(transport.FleetHello{Worker: "zombie", PID: 1}); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := fc.ReadFrame()
	if err != nil || kind != transport.FrameFleetHello {
		t.Fatalf("welcome: kind %d err %v", kind, err)
	}
	if _, err := transport.DecodeFleetWelcome(payload); err != nil {
		t.Fatal(err)
	}
	if err := fc.WriteLeaseRequest(); err != nil {
		t.Fatal(err)
	}
	kind, payload, err = fc.ReadFrame()
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

	select {
	case <-reassigned:
	case <-time.After(10 * time.Second):
		t.Fatal("silent worker's lease never expired")
	}

	// The fence: the zombie's heartbeat for its revoked lease must be
	// answered, but with OK=false.
	if err := fc.WriteHeartbeat(transport.FleetHeartbeat{JobID: lease.JobID, Round: 1}); err != nil {
		t.Fatal(err)
	}
	kind, payload, err = fc.ReadFrame()
	if err != nil || kind != transport.FrameFleetHeartbeat {
		t.Fatalf("heartbeat ack: kind %d err %v", kind, err)
	}
	ack, err := transport.DecodeFleetAck(payload)
	if err != nil {
		t.Fatal(err)
	}
	if ack.OK {
		t.Fatal("heartbeat on an expired lease renewed it")
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
	conn, err := net.Dial("tcp", c.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	fc := transport.NewFleetConn(conn, 0)
	if err := fc.WriteHello(transport.FleetHello{Worker: "prompt", PID: 1}); err != nil {
		t.Fatal(err)
	}
	if kind, _, err := fc.ReadFrame(); err != nil || kind != transport.FrameFleetHello {
		t.Fatalf("welcome: kind %d err %v", kind, err)
	}
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
// wire, not into the worker's scratch directory. Listed while the worker
// blocks on each upload's ack, the directory holds nothing for a job
// leased fresh and only the staged handoff for one that resumed — whose
// Runner, left alone, would rewrite the file it resumed from.
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
	_, err = sweep.RunLeased(context.Background(), resumed, t.TempDir(), 1, nil, sweep.LeaseCallbacks{
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
			var want []string
			if handoff[e.Job.ID] {
				want = []string{e.Job.ID + ".ckpt"}
			}
			if fmt.Sprint(names) != fmt.Sprint(want) {
				t.Errorf("scratch holds %v at round %d of %s (handoff %v), want %v",
					names, e.Round, e.Job.Name, handoff[e.Job.ID], want)
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
// would reach every worker as a zero it rejects, and 2ns would also stop
// the lease reaper's ticker (TTL/4 = 0) with a panic that kills the
// process.
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
				_ = fc.WriteWelcome(transport.FleetWelcome{Jobs: 1, LeaseMillis: 0, RetryMillis: 100})
			}
			go func() { // hold the connection until the worker drops it
				_, _, _ = fc.ReadFrame()
				conn.Close()
			}()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err = fleet.RunWorker(ctx, fleet.WorkerConfig{Addr: ln.Addr().String(), Name: "w", ScratchDir: t.TempDir()})
	if err == nil || ctx.Err() != nil || !strings.Contains(err.Error(), "lease 0ms") {
		t.Fatalf("RunWorker returned %v (context: %v), want the welcome's decode error", err, ctx.Err())
	}
	mu.Lock()
	defer mu.Unlock()
	if accepted != 1 {
		t.Fatalf("worker connected %d times, want once", accepted)
	}
}
