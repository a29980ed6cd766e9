package transport

import (
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"gsfl/internal/data"
	"gsfl/internal/model"
	"gsfl/internal/nn"
	"gsfl/internal/partition"
	"gsfl/internal/schemes/schemestest"
	"gsfl/internal/testutil"
)

// launchWorld starts an AP plus one goroutine per client on localhost
// and returns the AP, a shutdown func, and an error channel collecting
// client Run results. tweak functions adjust the AP config before it
// launches.
func launchWorld(t *testing.T, nClients, nGroups, steps int, tweak ...func(*APConfig)) (*AP, func(), chan error) {
	t.Helper()
	arch := model.MLP(schemestest.BlobDim, 16, schemestest.BlobClasses)
	cut := model.MLPDefaultCut

	rng := rand.New(rand.NewSource(1))
	pool := schemestest.Blobs(nClients*40, 0.6, rng)
	parts := partition.IID(pool, nClients, rand.New(rand.NewSource(2)))
	test := schemestest.Blobs(200, 0.6, rand.New(rand.NewSource(3)))

	groups := partition.Groups(nClients, nGroups, "round-robin", nil, nil)
	cfg := APConfig{
		Arch:           arch,
		Cut:            cut,
		Groups:         groups,
		StepsPerClient: steps,
		LR:             0.05,
		Momentum:       0.9,
		Test:           test,
		Seed:           7,
	}
	for _, f := range tweak {
		f(&cfg)
	}
	ap, err := NewAP("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}

	errs := make(chan error, nClients)
	var wg sync.WaitGroup
	for ci := 0; ci < nClients; ci++ {
		cl, err := Dial(ap.Addr(), ClientConfig{
			ID:       ci,
			Arch:     arch,
			Cut:      cut,
			Train:    parts[ci],
			Batch:    8,
			LR:       0.05,
			Momentum: 0.9,
			Seed:     7,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- cl.Run()
		}()
	}
	if err := ap.WaitForClients(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	stop := func() {
		if err := ap.Shutdown(); err != nil {
			t.Logf("shutdown: %v", err)
		}
		wg.Wait()
		close(errs)
	}
	return ap, stop, errs
}

func TestNetworkGSFLTrainsEndToEnd(t *testing.T) {
	ap, stop, errs := launchWorld(t, 6, 2, 4)
	_, before := ap.Evaluate()
	for r := 0; r < 10; r++ {
		stats, err := ap.Round()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Participants != 6 || stats.Stragglers != 0 || stats.Groups != 2 {
			t.Fatalf("round %d stats %+v on a healthy fleet", r, stats)
		}
	}
	_, after := ap.Evaluate()
	stop()
	for err := range errs {
		if err != nil {
			t.Fatalf("client error: %v", err)
		}
	}
	if after < 0.7 {
		t.Fatalf("network GSFL accuracy %v after 10 rounds (started at %v)", after, before)
	}
	if after <= before {
		t.Fatalf("accuracy did not improve: %v -> %v", before, after)
	}
}

func TestNetworkGroupsRunConcurrently(t *testing.T) {
	// Smoke test with more groups than CPUs would still pass; here we
	// just verify a multi-group round completes and aggregates.
	ap, stop, errs := launchWorld(t, 8, 4, 2)
	defer func() {
		stop()
		for err := range errs {
			if err != nil {
				t.Fatalf("client error: %v", err)
			}
		}
	}()
	stats, err := ap.Round()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Groups != 4 {
		t.Fatalf("aggregated %d groups, want 4", stats.Groups)
	}
	l, a := ap.Evaluate()
	if l <= 0 || a < 0 || a > 1 {
		t.Fatalf("evaluate returned loss=%v acc=%v", l, a)
	}
}

// TestShutdownLeavesNoGoroutines is the shutdown leak regression test:
// after Shutdown returns, no transport goroutine — accept loop,
// registration, group, or metrics — may still be alive.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	ap, stop, errs := launchWorld(t, 4, 2, 1)
	if _, err := ap.Round(); err != nil {
		t.Fatal(err)
	}
	stop()
	for err := range errs {
		if err != nil {
			t.Fatalf("client error: %v", err)
		}
	}
	if err := ap.Shutdown(); err != nil {
		t.Fatalf("second shutdown errored: %v", err)
	}
	testutil.ExpectNoGoroutines(t, "gsfl/internal/transport")
}

// TestShutdownAbortsPendingRegistration pins the half-registered
// connection path: a connection that never sends hello must not block or
// outlive Shutdown.
func TestShutdownAbortsPendingRegistration(t *testing.T) {
	arch := model.MLP(schemestest.BlobDim, 8, schemestest.BlobClasses)
	test := schemestest.Blobs(20, 0.6, rand.New(rand.NewSource(1)))
	ap, err := NewAP("127.0.0.1:0", APConfig{
		Arch: arch, Cut: model.MLPDefaultCut,
		Groups: [][]int{{0}}, StepsPerClient: 1, LR: 0.1, Test: test,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Dial raw and send nothing: the connection sits in registration.
	conn, err := netDial(ap.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	time.Sleep(20 * time.Millisecond)
	done := make(chan error, 1)
	go func() { done <- ap.Shutdown() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown hung on a pending registration")
	}
	testutil.ExpectNoGoroutines(t, "gsfl/internal/transport.(*AP)")
}

func TestRoundAfterShutdownErrs(t *testing.T) {
	ap, stop, errs := launchWorld(t, 2, 1, 1)
	stop()
	for range errs {
	}
	if _, err := ap.Round(); err != ErrShutdown {
		t.Fatalf("Round after shutdown returned %v, want ErrShutdown", err)
	}
}

func TestWaitForClientsTimeout(t *testing.T) {
	arch := model.MLP(schemestest.BlobDim, 8, schemestest.BlobClasses)
	test := schemestest.Blobs(20, 0.6, rand.New(rand.NewSource(1)))
	ap, err := NewAP("127.0.0.1:0", APConfig{
		Arch:           arch,
		Cut:            model.MLPDefaultCut,
		Groups:         [][]int{{0}},
		StepsPerClient: 1,
		LR:             0.1,
		Test:           test,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ap.Shutdown()
	if err := ap.WaitForClients(50 * time.Millisecond); err == nil {
		t.Fatal("expected timeout with no clients")
	}
}

func TestNewAPValidation(t *testing.T) {
	arch := model.MLP(schemestest.BlobDim, 8, schemestest.BlobClasses)
	test := schemestest.Blobs(20, 0.6, rand.New(rand.NewSource(1)))
	base := APConfig{
		Arch: arch, Cut: model.MLPDefaultCut,
		Groups: [][]int{{0}}, StepsPerClient: 1, LR: 0.1, Test: test,
	}
	cases := []struct {
		name string
		mut  func(*APConfig)
	}{
		{"zero steps", func(c *APConfig) { c.StepsPerClient = 0 }},
		{"zero lr", func(c *APConfig) { c.LR = 0 }},
		{"NaN lr", func(c *APConfig) { c.LR = math.NaN() }},
		{"infinite lr", func(c *APConfig) { c.LR = math.Inf(1) }},
		{"NaN momentum", func(c *APConfig) { c.Momentum = math.NaN() }},
		{"momentum 5", func(c *APConfig) { c.Momentum = 5 }},
		{"negative momentum", func(c *APConfig) { c.Momentum = -0.1 }},
		{"NaN clip", func(c *APConfig) { c.ClipNorm = math.NaN() }},
		{"negative clip", func(c *APConfig) { c.ClipNorm = -1 }},
		{"NaN decay factor", func(c *APConfig) { c.LRDecayFactor, c.LRDecayEvery = math.NaN(), 10 }},
		{"no groups", func(c *APConfig) { c.Groups = nil }},
		{"empty group", func(c *APConfig) { c.Groups = [][]int{{}} }},
		{"duplicate client", func(c *APConfig) { c.Groups = [][]int{{0}, {0}} }},
		{"negative client id", func(c *APConfig) { c.Groups = [][]int{{-1}} }},
		{"no test", func(c *APConfig) { c.Test = nil }},
		{"unknown straggler policy", func(c *APConfig) { c.Straggler = "no-such-policy" }},
		{"cut out of range", func(c *APConfig) { c.Cut = 99 }},
		{"negative cut", func(c *APConfig) { c.Cut = -1 }},
		{"missing arch", func(c *APConfig) { c.Arch = model.Arch{} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			ap, err := NewAP("127.0.0.1:0", cfg)
			if err == nil {
				ap.Shutdown()
				t.Fatal("expected config error")
			}
		})
	}
}

// TestConstructorsBuildOnce counts Arch.Build calls through a wrapping
// Arch: the cut is checked against the stack each constructor trains,
// so a client builds once and the AP once for its initial model and
// once for each group's replica.
func TestConstructorsBuildOnce(t *testing.T) {
	arch := model.MLP(schemestest.BlobDim, 8, schemestest.BlobClasses)
	builds := 0
	counted := arch
	counted.Build = func(rng *rand.Rand) []nn.Layer {
		builds++
		return arch.Build(rng)
	}

	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	go io.Copy(io.Discard, c2) // takes the hello
	train := schemestest.Blobs(10, 0.6, rand.New(rand.NewSource(1)))
	if _, err := NewClientConn(c1, ClientConfig{ID: 0, Arch: counted, Cut: model.MLPDefaultCut, Train: train, Batch: 4, LR: 0.1}); err != nil {
		t.Fatal(err)
	}
	if builds != 1 {
		t.Fatalf("a client built its architecture %d times, want 1", builds)
	}

	builds = 0
	test := schemestest.Blobs(20, 0.6, rand.New(rand.NewSource(2)))
	groups := [][]int{{0}, {1}, {2}}
	ap, err := NewAP("127.0.0.1:0", APConfig{Arch: counted, Cut: model.MLPDefaultCut,
		Groups: groups, StepsPerClient: 1, LR: 0.1, Test: test})
	if err != nil {
		t.Fatal(err)
	}
	ap.Shutdown()
	if want := 1 + len(groups); builds != want {
		t.Fatalf("the AP built its architecture %d times, want %d", builds, want)
	}
}

func TestDialValidation(t *testing.T) {
	arch := model.MLP(schemestest.BlobDim, 8, schemestest.BlobClasses)
	ds := schemestest.Blobs(10, 0.6, rand.New(rand.NewSource(1)))
	cases := []struct {
		name string
		cfg  ClientConfig
	}{
		{"negative id", ClientConfig{ID: -1, Arch: arch, Cut: 2, Train: ds, Batch: 4, LR: 0.1}},
		{"no data", ClientConfig{ID: 0, Arch: arch, Cut: 2, Batch: 4, LR: 0.1}},
		{"zero batch", ClientConfig{ID: 0, Arch: arch, Cut: 2, Train: ds, Batch: 0, LR: 0.1}},
		{"zero lr", ClientConfig{ID: 0, Arch: arch, Cut: 2, Train: ds, Batch: 4, LR: 0}},
		{"NaN lr", ClientConfig{ID: 0, Arch: arch, Cut: 2, Train: ds, Batch: 4, LR: math.NaN()}},
		{"infinite lr", ClientConfig{ID: 0, Arch: arch, Cut: 2, Train: ds, Batch: 4, LR: math.Inf(1)}},
		{"NaN momentum", ClientConfig{ID: 0, Arch: arch, Cut: 2, Train: ds, Batch: 4, LR: 0.1, Momentum: math.NaN()}},
		{"momentum 5", ClientConfig{ID: 0, Arch: arch, Cut: 2, Train: ds, Batch: 4, LR: 0.1, Momentum: 5}},
		{"NaN clip", ClientConfig{ID: 0, Arch: arch, Cut: 2, Train: ds, Batch: 4, LR: 0.1, ClipNorm: math.NaN()}},
		{"negative clip", ClientConfig{ID: 0, Arch: arch, Cut: 2, Train: ds, Batch: 4, LR: 0.1, ClipNorm: -1}},
		{"decay factor 2", ClientConfig{ID: 0, Arch: arch, Cut: 2, Train: ds, Batch: 4, LR: 0.1, LRDecayFactor: 2, LRDecayEvery: 10}},
		{"cut out of range", ClientConfig{ID: 0, Arch: arch, Cut: 99, Train: ds, Batch: 4, LR: 0.1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Through Dial the connect error would mask validation; feed
			// NewClientConn a pipe so the config check itself must fire.
			// Every case is invalid, so it returns before the hello write
			// (which would block on an unread synchronous pipe).
			c1, c2 := net.Pipe()
			defer c1.Close()
			defer c2.Close()
			if _, err := NewClientConn(c1, tc.cfg); err == nil {
				t.Fatal("expected error")
			}
			if _, err := Dial("127.0.0.1:1", tc.cfg); err == nil {
				t.Fatal("expected dial error")
			}
		})
	}
}

func TestQuantizeModeMismatchRejectsRegistration(t *testing.T) {
	arch := model.MLP(schemestest.BlobDim, 8, schemestest.BlobClasses)
	test := schemestest.Blobs(20, 0.6, rand.New(rand.NewSource(1)))
	ds := schemestest.Blobs(10, 0.6, rand.New(rand.NewSource(2)))
	ap, err := NewAP("127.0.0.1:0", APConfig{
		Arch: arch, Cut: model.MLPDefaultCut,
		Groups: [][]int{{0}}, StepsPerClient: 1, LR: 0.1, Test: test,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ap.Shutdown()
	// Quantizing client against a full-precision AP: the hello is
	// rejected, so the client never registers.
	cl, err := Dial(ap.Addr(), ClientConfig{
		ID: 0, Arch: arch, Cut: model.MLPDefaultCut, Train: ds,
		Batch: 4, LR: 0.1, Quantize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	go cl.Run()
	if err := ap.WaitForClients(200 * time.Millisecond); err == nil {
		t.Fatal("mismatched client registered")
	}
}

func TestMetricsEndpointServesCounters(t *testing.T) {
	arch := model.MLP(schemestest.BlobDim, 16, schemestest.BlobClasses)
	cut := model.MLPDefaultCut
	ds := schemestest.Blobs(40, 0.6, rand.New(rand.NewSource(1)))
	test := schemestest.Blobs(40, 0.6, rand.New(rand.NewSource(2)))
	ap, err := NewAP("127.0.0.1:0", APConfig{
		Arch: arch, Cut: cut, Groups: [][]int{{0}},
		StepsPerClient: 1, LR: 0.05, Test: test, Seed: 3,
		MetricsAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ap.Shutdown()
	if ap.MetricsAddr() == "" {
		t.Fatal("metrics endpoint not listening")
	}

	cl, err := Dial(ap.Addr(), ClientConfig{
		ID: 0, Arch: arch, Cut: cut, Train: ds, Batch: 8, LR: 0.05, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cl.Run() }()
	if err := ap.WaitForClients(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := ap.Round(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + ap.MetricsAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"gsfl_rounds_total 1",
		"gsfl_clients_active 1",
		"gsfl_bytes_read_total",
		"gsfl_bytes_written_total",
	} {
		if !containsLine(string(body), want) {
			t.Errorf("metrics output missing %q:\n%s", want, body)
		}
	}
	ap.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("client error: %v", err)
	}
}

func containsLine(body, prefix string) bool {
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, prefix) {
			return true
		}
	}
	return false
}

// Interface conformance: the network world reuses data.Dataset.
var _ data.Dataset = (*data.InMemory)(nil)

func TestNetworkGSFLQuantizedFramesTrain(t *testing.T) {
	arch := model.MLP(schemestest.BlobDim, 16, schemestest.BlobClasses)
	cut := model.MLPDefaultCut
	const nClients = 4

	rng := rand.New(rand.NewSource(21))
	pool := schemestest.Blobs(nClients*40, 0.6, rng)
	parts := partition.IID(pool, nClients, rand.New(rand.NewSource(22)))
	test := schemestest.Blobs(200, 0.6, rand.New(rand.NewSource(23)))
	groups := partition.Groups(nClients, 2, "round-robin", nil, nil)

	ap, err := NewAP("127.0.0.1:0", APConfig{
		Arch: arch, Cut: cut, Groups: groups,
		StepsPerClient: 4, LR: 0.05, Momentum: 0.9,
		Test: test, Seed: 7, Quantize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, nClients)
	var wg sync.WaitGroup
	for ci := 0; ci < nClients; ci++ {
		cl, err := Dial(ap.Addr(), ClientConfig{
			ID: ci, Arch: arch, Cut: cut, Train: parts[ci],
			Batch: 8, LR: 0.05, Momentum: 0.9, Seed: int64(300 + ci),
			Quantize: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- cl.Run()
		}()
	}
	if err := ap.WaitForClients(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 10; r++ {
		if _, err := ap.Round(); err != nil {
			t.Fatal(err)
		}
	}
	_, acc := ap.Evaluate()
	if err := ap.Shutdown(); err != nil {
		t.Logf("shutdown: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("client error: %v", err)
		}
	}
	// 8-bit transfers must still learn the toy task.
	if acc < 0.7 {
		t.Fatalf("quantized network GSFL accuracy %v", acc)
	}
}

// netDial opens a raw TCP connection to the AP, bypassing the client
// handshake — for tests that need a connection stuck in registration.
func netDial(addr string) (net.Conn, error) {
	return net.Dial("tcp", addr)
}
