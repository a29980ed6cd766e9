package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"gsfl/internal/agg"
	"gsfl/internal/data"
	"gsfl/internal/loss"
	"gsfl/internal/metrics"
	"gsfl/internal/model"
	"gsfl/internal/nn"
	"gsfl/internal/optim"
	"gsfl/internal/quantize"
	"gsfl/internal/schemes"
	"gsfl/internal/tensor"
	"gsfl/obs"
)

// ErrShutdown is returned by Round on an AP that has been shut down.
var ErrShutdown = errors.New("transport: ap is shut down")

// APConfig configures the access point / edge server.
type APConfig struct {
	// Arch and Cut define the model and split point.
	Arch model.Arch
	Cut  int
	// Groups assigns client IDs to group slots; clients within a group
	// train sequentially, groups run concurrently. The assignment is the
	// initial one — slots vacated by departed clients are refilled from
	// spare registrations at round boundaries.
	Groups [][]int
	// StepsPerClient is the number of mini-batches per client turn.
	StepsPerClient int
	// LR / Momentum / ClipNorm / LRDecay* configure the server-side
	// optimizers (one per group), mirroring the simulator's
	// hyperparameters so both substrates take identical optimizer steps.
	LR            float64
	Momentum      float64
	ClipNorm      float64
	LRDecayFactor float64
	LRDecayEvery  int
	// Test is the evaluation set held at the AP.
	Test data.Dataset
	// Seed derives model initialization — through the same
	// schemes.DeriveSeed streams the in-process trainer uses, so a
	// fault-free TCP round reproduces the simulator bit-for-bit at equal
	// seeds.
	Seed int64
	// Quantize enables 8-bit quantization of the smashed-data and
	// gradient frames (the model halves still travel at full precision).
	// Clients must be configured identically.
	Quantize bool
	// RoundDeadline bounds every network operation of one round: a
	// client that cannot complete its turn before roundStart+deadline is
	// a straggler — its connection is closed, the configured fallback
	// policy patches the relay chain, and the round continues. It doubles
	// as the backpressure bound: the AP keeps at most one frame in flight
	// per connection, so a stalled receiver blocks its group goroutine at
	// the socket until the deadline fires, never queues unbounded memory.
	// Zero disables deadlines (trusted-network mode).
	RoundDeadline time.Duration
	// Straggler names the registered fallback policy ("drop",
	// "reuse-last", or anything added via RegisterStragglerPolicy).
	// Empty selects "drop".
	Straggler string
	// MetricsAddr, when non-empty, serves the AP's operational counters
	// in Prometheus text format at GET /metrics on this address.
	MetricsAddr string
	// Tracer, when non-nil, records wall-clock execution spans: one lane
	// per group (turn spans wrapping the per-step wire/compute phases),
	// one "rounds" lane, straggler markers. Nil leaves tracing disabled
	// at the cost of one pointer check per span site.
	Tracer *obs.Tracer
}

// Wire-phase names, shared by the trace spans and the latency
// histograms (dashes become underscores in metric names). Constants so
// the hot path never formats strings.
const (
	phaseWriteTrain    = "write-train"
	phaseReadSmashed   = "read-smashed"
	phaseServerCompute = "server-compute"
	phaseWriteGradient = "write-gradient"
	phaseReadReturn    = "read-return"
)

// phaseNames lists the turn phases in wire order — the iteration order
// for quantile summaries and reports.
var phaseNames = []string{
	phaseWriteTrain, phaseReadSmashed, phaseServerCompute,
	phaseWriteGradient, phaseReadReturn,
}

// RoundStats reports what one network round actually did — the
// load-bearing counterpart of the simulator's latency ledger.
type RoundStats struct {
	// Round is the 1-based round index.
	Round int
	// Participants is how many clients contributed a fresh update.
	Participants int
	// Stragglers is how many clients missed the deadline or died
	// mid-turn (their connections are closed).
	Stragglers int
	// Skipped is how many group slots got no turn: no live connection
	// when the turn came, or the round budget was already exhausted by
	// an earlier straggler in the chain (the connection stays open).
	Skipped int
	// Refilled is how many vacated slots were refilled from spare
	// registrations at the round boundary.
	Refilled int
	// Groups is how many groups contributed to aggregation.
	Groups int
	// Duration is the round's wall-clock time.
	Duration time.Duration
}

// clientConn is one registered client's framed connection. During a
// round it is owned exclusively by the goroutine of the group its
// client currently sits in; between rounds nothing touches it.
type clientConn struct {
	id      int
	samples int64
	conn    net.Conn
	fc      *frameConn
	// lastGood is the turn state this client returned on its most recent
	// completed turn — what the reuse-last straggler policy substitutes.
	// It points at last, or is nil before the first completed turn.
	lastGood *TurnState
	last     TurnState
}

// groupRT is one group's training runtime: its server-half replica and
// optimizer, the relayed client-side optimizer state between rounds (a
// copy, owned by the group), and the reusable per-step workspaces (loss
// gradient, the smashed frame's decode targets, quantization buffers,
// the return frame's decode target) that keep steady-state turns
// allocation-free.
type groupRT struct {
	server         *nn.Sequential
	opt            *optim.SGD
	clientOptState optim.SGDState
	ret            TurnState

	lossGrad tensor.Tensor
	acts     tensor.Tensor
	ys       []int
	deq      tensor.Tensor
	qGrad    quantize.Quantized

	// track is the group's trace lane (nil when tracing is disabled),
	// bound at construction so round paths never format lane names.
	track *obs.Track
}

// AP is the listening access point. It owns the global model halves, one
// server-side replica per group, and the client roster.
type AP struct {
	cfg    APConfig
	ln     net.Listener
	policy StragglerPolicy

	globalClient model.Snapshot
	globalServer model.Snapshot
	groupRTs     []*groupRT
	capServer    []model.Snapshot
	evalModel    *model.SplitModel
	smashedShape []int

	reg         *metrics.Registry
	mRounds     *metrics.Counter
	mBytesIn    *metrics.Counter
	mBytesOut   *metrics.Counter
	mStragglers *metrics.Counter
	mJoined     *metrics.Counter
	mLeft       *metrics.Counter
	mActive     *metrics.Gauge
	mLastRound  *metrics.Gauge
	hRound      *metrics.Histogram
	hPhase      map[string]*metrics.Histogram // keyed by phaseNames
	hFrameIn    *metrics.Histogram
	hFrameOut   *metrics.Histogram

	// roundTrack records execution spans (a nil-safe no-op when
	// disabled); flight is the always-on post-mortem ring buffer.
	roundTrack *obs.Track
	flight     *obs.FlightRecorder

	mu       sync.Mutex
	members  [][]int // mutable copy of cfg.Groups, refilled over time
	slotted  map[int]bool
	joined   map[int]*clientConn
	everSeen map[int]bool
	arrived  chan struct{} // signalled on each registration
	closed   bool
	round    int

	greeter *Greeter

	metricsLn   net.Listener
	metricsSrv  *http.Server
	metricsDone chan struct{}
}

// NewAP validates the config, builds the models, and starts listening on
// addr (e.g. "127.0.0.1:0" for an ephemeral test port).
func NewAP(addr string, cfg APConfig) (*AP, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	ap, err := NewAPListener(ln, cfg)
	if err != nil {
		ln.Close()
		return nil, err
	}
	return ap, nil
}

// buildCut builds arch's layers from rng, rejecting a missing
// architecture or an out-of-range cut with an error instead of the
// panic Arch.Split reserves for programmer errors: in the network
// processes the cut comes from a user flag and must fail gracefully.
// The layers it returns are the ones the caller goes on to train.
func buildCut(arch model.Arch, cut int, rng *rand.Rand) ([]nn.Layer, error) {
	if arch.Build == nil {
		return nil, errors.New("transport: missing architecture")
	}
	layers := arch.Build(rng)
	if cut < 0 || cut > len(layers) {
		return nil, fmt.Errorf("transport: cut %d outside [0,%d] for arch %q", cut, len(layers), arch.Name)
	}
	return layers, nil
}

// NewAPListener builds an AP over an existing listener — the injection
// point the fault tests use to interpose faultconn wrappers between the
// AP and its clients.
func NewAPListener(ln net.Listener, cfg APConfig) (*AP, error) {
	// The simulator's own check, so a NaN, a momentum outside [0,1) or a
	// negative clip fails here as it does in a Spec. Batch is the
	// clients' field, set here only to pass.
	hyper := schemes.Hyper{Batch: 1, StepsPerClient: cfg.StepsPerClient,
		LR: cfg.LR, Momentum: cfg.Momentum, ClipNorm: cfg.ClipNorm,
		LRDecayFactor: cfg.LRDecayFactor, LRDecayEvery: cfg.LRDecayEvery}
	if err := hyper.Validate(); err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	if len(cfg.Groups) == 0 {
		return nil, errors.New("transport: no groups configured")
	}
	seen := map[int]bool{}
	for gi, g := range cfg.Groups {
		if len(g) == 0 {
			return nil, fmt.Errorf("transport: group %d is empty", gi)
		}
		for _, ci := range g {
			if ci < 0 {
				return nil, fmt.Errorf("transport: negative client id %d in group %d", ci, gi)
			}
			if seen[ci] {
				return nil, fmt.Errorf("transport: client %d appears in two groups", ci)
			}
			seen[ci] = true
		}
	}
	if cfg.Test == nil || cfg.Test.Len() == 0 {
		return nil, errors.New("transport: missing test set")
	}
	// Model init draws from the same derived stream as the in-process
	// trainer's env.Rng("init", 0) — the root of the byte-identity
	// guarantee between the two substrates.
	initLayers, err := buildCut(cfg.Arch, cfg.Cut, rand.New(rand.NewSource(schemes.DeriveSeed(cfg.Seed, "init", 0))))
	if err != nil {
		return nil, err
	}
	if cfg.Straggler == "" {
		cfg.Straggler = "drop"
	}
	policy, err := stragglerPolicyByName(cfg.Straggler)
	if err != nil {
		return nil, err
	}

	init := cfg.Arch.Split(initLayers, cfg.Cut)
	ap := &AP{
		cfg:          cfg,
		ln:           ln,
		policy:       policy,
		globalClient: model.TakeSnapshot(init.Client),
		globalServer: model.TakeSnapshot(init.Server),
		evalModel:    init,
		smashedShape: init.SmashedShape(),
		reg:          metrics.NewRegistry(),
		slotted:      map[int]bool{},
		joined:       map[int]*clientConn{},
		everSeen:     map[int]bool{},
		arrived:      make(chan struct{}, 1),
	}
	ap.mRounds = ap.reg.Counter("gsfl_rounds_total", "Completed training rounds.")
	ap.mBytesIn = ap.reg.Counter("gsfl_bytes_read_total", "Framed bytes read from clients.")
	ap.mBytesOut = ap.reg.Counter("gsfl_bytes_written_total", "Framed bytes written to clients.")
	ap.mStragglers = ap.reg.Counter("gsfl_stragglers_total", "Clients dropped for missing the round deadline.")
	ap.mJoined = ap.reg.Counter("gsfl_clients_joined_total", "Successful client registrations.")
	ap.mLeft = ap.reg.Counter("gsfl_clients_left_total", "Registered clients whose connections closed.")
	ap.mActive = ap.reg.Gauge("gsfl_clients_active", "Currently registered clients.")
	ap.mLastRound = ap.reg.Gauge("gsfl_round_millis", "Wall-clock duration of the last round in milliseconds.")
	ap.hRound = ap.reg.Histogram("gsfl_round_seconds",
		"Wall-clock round latency.", metrics.DefSecondsBuckets)
	ap.hPhase = make(map[string]*metrics.Histogram, len(phaseNames))
	for _, ph := range phaseNames {
		name := "gsfl_phase_" + strings.ReplaceAll(ph, "-", "_") + "_seconds"
		ap.hPhase[ph] = ap.reg.Histogram(name,
			"Wall-clock latency of the "+ph+" turn phase.", metrics.DefSecondsBuckets)
	}
	ap.hFrameIn = ap.reg.Histogram("gsfl_frame_read_bytes",
		"Size of framed messages read from clients.", metrics.DefBytesBuckets)
	ap.hFrameOut = ap.reg.Histogram("gsfl_frame_write_bytes",
		"Size of framed messages written to clients.", metrics.DefBytesBuckets)
	ap.roundTrack = cfg.Tracer.Lane("ap", "rounds")
	ap.flight = obs.NewFlightRecorder(0)

	ap.members = make([][]int, len(cfg.Groups))
	for g, mem := range cfg.Groups {
		ap.members[g] = append([]int(nil), mem...)
		for _, ci := range mem {
			ap.slotted[ci] = true
		}
	}
	ap.groupRTs = make([]*groupRT, len(cfg.Groups))
	ap.capServer = make([]model.Snapshot, len(cfg.Groups))
	for g := range cfg.Groups {
		rep := cfg.Arch.NewSplit(rand.New(rand.NewSource(schemes.DeriveSeed(cfg.Seed, "replica", g))), cfg.Cut)
		ap.groupRTs[g] = &groupRT{
			server: rep.Server,
			opt:    hyper.NewOptimizer(),
			track:  cfg.Tracer.Lane("ap", fmt.Sprintf("group %d", g)),
		}
	}

	if cfg.MetricsAddr != "" {
		if err := ap.serveMetrics(cfg.MetricsAddr); err != nil {
			ln.Close()
			return nil, err
		}
	}
	ap.greeter = Greet(ln, ap.register)
	return ap, nil
}

// Addr returns the listening address clients should dial.
func (ap *AP) Addr() string { return ap.ln.Addr().String() }

// Metrics returns the AP's operational counter registry.
func (ap *AP) Metrics() *metrics.Registry { return ap.reg }

// Flight returns the AP's always-on flight recorder: a bounded ring of
// round summaries, straggler events, and refills, dumped post-mortem
// when a round errors or stragglers spike.
func (ap *AP) Flight() *obs.FlightRecorder { return ap.flight }

// PhaseQuantiles summarizes the per-phase wall-latency histograms,
// keyed by phase name ("write-train", "read-smashed", ...). Phases
// with no observations are omitted.
func (ap *AP) PhaseQuantiles() map[string]PhaseQuantiles {
	out := make(map[string]PhaseQuantiles, len(phaseNames))
	for _, ph := range phaseNames {
		h := ap.hPhase[ph]
		if h.Count() == 0 {
			continue
		}
		out[ph] = PhaseQuantiles{
			Count: h.Count(),
			P50MS: h.Quantile(0.50) * 1000,
			P95MS: h.Quantile(0.95) * 1000,
			P99MS: h.Quantile(0.99) * 1000,
		}
	}
	return out
}

// PhaseQuantiles is one wire phase's latency summary, estimated from
// its histogram (bucket-interpolated, Prometheus-style).
type PhaseQuantiles struct {
	Count int64   `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
}

// MetricsAddr returns the address the metrics endpoint listens on, or ""
// when disabled.
func (ap *AP) MetricsAddr() string {
	if ap.metricsLn == nil {
		return ""
	}
	return ap.metricsLn.Addr().String()
}

func (ap *AP) serveMetrics(addr string) error {
	mln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("transport: metrics listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		ap.reg.WriteText(w)
	})
	srv := &http.Server{Handler: mux}
	done := make(chan struct{})
	ap.metricsLn, ap.metricsSrv, ap.metricsDone = mln, srv, done
	go func() {
		defer close(done)
		srv.Serve(mln)
	}()
	return nil
}

// register reads the hello frame and files the connection under its
// client ID: into its group slot if it has one, as a spare otherwise.
// Bad or duplicate registrations drop the connection. It runs under the
// greeter, which tracks the connection and bounds the hello read.
func (ap *AP) register(conn net.Conn, admit func() bool) {
	fc := newFrameConn(conn, DefaultMaxFrameBytes)
	fc.onRead = func(n int) {
		ap.mBytesIn.Add(int64(n))
		ap.hFrameIn.Observe(float64(n))
	}
	fc.onWrite = func(n int) {
		ap.mBytesOut.Add(int64(n))
		ap.hFrameOut.Observe(float64(n))
	}

	kind, payload, err := fc.readFrame()
	var hello helloMsg
	if err == nil && kind == frameHello {
		hello, err = decodeHello(payload)
	} else if err == nil {
		err = fmt.Errorf("transport: first frame kind %d, want hello", kind)
	}
	if err == nil && ap.cfg.Quantize != hello.Quantize {
		err = fmt.Errorf("transport: client %d quantize=%v, ap has %v", hello.ClientID, hello.Quantize, ap.cfg.Quantize)
	}
	if err != nil || !admit() {
		conn.Close()
		return
	}

	ap.mu.Lock()
	_, dup := ap.joined[hello.ClientID]
	if dup || ap.closed {
		ap.mu.Unlock()
		conn.Close()
		return
	}
	ap.joined[hello.ClientID] = &clientConn{id: hello.ClientID, samples: hello.Samples, conn: conn, fc: fc}
	ap.everSeen[hello.ClientID] = true
	ap.mu.Unlock()

	ap.mJoined.Inc()
	ap.mActive.Add(1)
	select {
	case ap.arrived <- struct{}{}:
	default:
	}
}

// drop removes a connection from the roster and closes it. Its group
// slot stays assigned and is refilled from spares at the next round
// boundary.
func (ap *AP) drop(cc *clientConn) {
	cc.conn.Close()
	ap.mu.Lock()
	cur, ok := ap.joined[cc.id]
	if ok && cur == cc {
		delete(ap.joined, cc.id)
	}
	ap.mu.Unlock()
	if ok && cur == cc {
		ap.mLeft.Inc()
		ap.mActive.Add(-1)
	}
}

// WaitForClients blocks until every client named in Groups has
// registered, or the timeout elapses.
func (ap *AP) WaitForClients(timeout time.Duration) error {
	return ap.waitUntil(timeout, ap.allRegistered, "all group members")
}

// WaitForCount blocks until at least n clients are registered
// (members or spares), or the timeout elapses.
func (ap *AP) WaitForCount(n int, timeout time.Duration) error {
	return ap.waitUntil(timeout, func() bool { return ap.ClientCount() >= n }, fmt.Sprintf("%d clients", n))
}

func (ap *AP) waitUntil(timeout time.Duration, ready func() bool, what string) error {
	deadline := time.After(timeout)
	for {
		if ready() {
			return nil
		}
		select {
		case <-ap.arrived:
		case <-deadline:
			return fmt.Errorf("transport: timed out waiting for %s (%d registered)", what, ap.ClientCount())
		}
	}
}

func (ap *AP) allRegistered() bool {
	ap.mu.Lock()
	defer ap.mu.Unlock()
	for _, g := range ap.members {
		for _, ci := range g {
			if _, ok := ap.joined[ci]; !ok {
				return false
			}
		}
	}
	return true
}

// ClientCount returns the number of currently registered clients.
func (ap *AP) ClientCount() int {
	ap.mu.Lock()
	defer ap.mu.Unlock()
	return len(ap.joined)
}

// turnSlot is one position of a group's round plan. cc is nil when the
// slot's client has no live connection (never joined, or left and the
// slot could not be refilled).
type turnSlot struct {
	id int
	cc *clientConn
}

// refillLocked re-fills group slots whose clients have left with spare
// registrations (ascending client ID, groups in index order) and
// returns how many slots changed hands. Slots of clients that never
// registered are kept for them. Callers hold ap.mu.
func (ap *AP) refillLocked() int {
	var spares []int
	for id := range ap.joined {
		if !ap.slotted[id] {
			spares = append(spares, id)
		}
	}
	sort.Ints(spares)
	refilled := 0
	si := 0
	for g := range ap.members {
		for i, id := range ap.members[g] {
			if si >= len(spares) {
				return refilled
			}
			if ap.joined[id] == nil && ap.everSeen[id] {
				delete(ap.slotted, id)
				nid := spares[si]
				si++
				ap.members[g][i] = nid
				ap.slotted[nid] = true
				refilled++
			}
		}
	}
	return refilled
}

// groupResult is what one group's goroutine hands back to Round.
type groupResult struct {
	state        TurnState
	weight       int64
	participants int
	stragglers   int
	skipped      int
}

// Round drives one full GSFL round over the network: slot refill, model
// distribution, concurrent per-group split training under the round
// deadline, and sample-weighted aggregation. Client failures never fail
// the round — they become stragglers handled by the configured policy;
// a round in which no client contributed keeps the previous global
// model, like a fully-dropped simulator round. Round is not safe for
// concurrent calls.
func (ap *AP) Round() (RoundStats, error) {
	start := time.Now()
	ap.mu.Lock()
	if ap.closed {
		ap.mu.Unlock()
		return RoundStats{}, ErrShutdown
	}
	ap.round++
	stats := RoundStats{Round: ap.round}
	stats.Refilled = ap.refillLocked()
	plans := make([][]turnSlot, len(ap.members))
	for g, mem := range ap.members {
		plans[g] = make([]turnSlot, len(mem))
		for i, id := range mem {
			plans[g][i] = turnSlot{id: id, cc: ap.joined[id]}
		}
	}
	ap.mu.Unlock()

	var deadline time.Time
	if ap.cfg.RoundDeadline > 0 {
		deadline = start.Add(ap.cfg.RoundDeadline)
	}
	roundSpan := ap.roundTrack.BeginWall(ap.roundTrack.Labelf("round %d", stats.Round), "round")

	// Step 1 + 2: distribute and train, groups concurrent. Each group
	// goroutine touches only group-owned state; the chain starts from the
	// shared global snapshots, which are read-only until aggregation.
	// Trace-wise each goroutine owns its group's lane for the round.
	results := make([]groupResult, len(plans))
	var wg sync.WaitGroup
	for g := range plans {
		rt := ap.groupRTs[g]
		ap.globalServer.Restore(rt.server)
		results[g].state = TurnState{Model: ap.globalClient, Opt: rt.clientOptState}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ap.runGroup(ap.groupRTs[g], plans[g], deadline, &results[g], stats.Round)
		}(g)
	}
	wg.Wait()

	// Step 3: aggregation, in ascending group order — float addition
	// order is part of the byte-identity contract with the simulator.
	var aggClient, aggServer []model.Snapshot
	var weights []float64
	for g := range results {
		r := &results[g]
		stats.Participants += r.participants
		stats.Stragglers += r.stragglers
		stats.Skipped += r.skipped
		ap.groupRTs[g].clientOptState.CopyFrom(r.state.Opt)
		if r.weight > 0 {
			ap.capServer[g].CaptureFrom(ap.groupRTs[g].server)
			aggClient = append(aggClient, r.state.Model)
			aggServer = append(aggServer, ap.capServer[g])
			weights = append(weights, float64(r.weight))
			stats.Groups++
		}
	}
	if len(weights) > 0 {
		agg.FedAvgInto(&ap.globalClient, aggClient, weights)
		agg.FedAvgInto(&ap.globalServer, aggServer, weights)
	}
	ap.mStragglers.Add(int64(stats.Stragglers))
	ap.mRounds.Inc()
	stats.Duration = time.Since(start)
	ap.mLastRound.Set(stats.Duration.Milliseconds())
	ap.hRound.Observe(stats.Duration.Seconds())
	if ap.roundTrack.On() {
		roundSpan.EndNote(ap.roundTrack.Labelf("%d participants, %d stragglers, %d skipped",
			stats.Participants, stats.Stragglers, stats.Skipped))
	}
	ap.flight.Notef("round %d: %d participants, %d stragglers, %d skipped, %d refilled, %s",
		stats.Round, stats.Participants, stats.Stragglers, stats.Skipped, stats.Refilled,
		stats.Duration.Round(time.Millisecond))
	return stats, nil
}

// runGroup executes Step 2 for one group: sequential split training
// through its slots, relaying the turn state via this AP. res.state
// holds the chain state on entry and the final chain state on return.
func (ap *AP) runGroup(rt *groupRT, plan []turnSlot, deadline time.Time, res *groupResult, round int) {
	tk := rt.track
	for _, slot := range plan {
		if slot.cc == nil {
			res.skipped++
			continue
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			// The round budget was exhausted (by a straggler earlier in
			// the chain) before this turn started. The client did nothing
			// wrong — skip the slot but keep its connection, so one
			// stalled peer cannot evict a whole group's healthy fleet.
			res.skipped++
			tk.WallInstant("skipped", "fault", tk.Labelf("client %d: round budget exhausted", slot.id))
			continue
		}
		turn := tk.BeginWall(tk.Labelf("client %d", slot.id), "turn")
		handed := res.state
		if err := ap.runTurn(rt, slot.cc, &res.state, deadline); err != nil {
			// Straggler: kill the connection, patch the chain, continue.
			res.stragglers++
			if tk.On() {
				turn.EndNote("straggler: " + err.Error())
			}
			ap.flight.Notef("round %d: client %d straggled: %v", round, slot.id, err)
			next, counted := ap.policy(&handed, slot.cc.lastGood)
			res.state = *next
			if counted {
				res.weight += slot.cc.samples
			}
			ap.drop(slot.cc)
			continue
		}
		turn.End()
		res.participants++
		res.weight += slot.cc.samples
	}
}

// phase closes one wire-phase interval: it feeds the phase's wall
// latency histogram and, when the group lane is live, records the span.
// Only successful phases are observed — a failed read or write becomes
// a straggler note, not a latency sample.
func (ap *AP) phase(tk *obs.Track, name string, start time.Time) {
	d := time.Since(start)
	ap.hPhase[name].Observe(d.Seconds())
	tk.WallSpanAt(name, "phase", start, d)
}

// runTurn drives one client's training turn. On success the chain state
// is replaced by what the client returned; any failure (deadline,
// disconnect, protocol violation, malformed tensor) leaves the chain
// untouched and reports the error for straggler handling.
func (ap *AP) runTurn(rt *groupRT, cc *clientConn, chain *TurnState, deadline time.Time) error {
	lossFn := loss.SoftmaxCrossEntropy{}
	tk := rt.track
	at := time.Now()
	cc.conn.SetWriteDeadline(deadline)
	if err := cc.fc.writeTrain(ap.cfg.StepsPerClient, chain); err != nil {
		return err
	}
	ap.phase(tk, phaseWriteTrain, at)
	for s := 0; s < ap.cfg.StepsPerClient; s++ {
		at = time.Now()
		cc.conn.SetReadDeadline(deadline)
		kind, payload, err := cc.fc.readFrame()
		if err != nil {
			return err
		}
		if kind != frameSmashed {
			return fmt.Errorf("transport: client %d sent kind %d, want smashed", cc.id, kind)
		}
		acts, q, ys, err := decodeSmashed(payload, &rt.acts, rt.ys)
		if err != nil {
			return err
		}
		rt.ys = ys
		serverIn := acts
		if q != nil {
			if !ap.cfg.Quantize {
				return fmt.Errorf("transport: client %d sent quantized frame to full-precision ap", cc.id)
			}
			serverIn = q.DequantizeInto(&rt.deq)
		} else if ap.cfg.Quantize {
			return fmt.Errorf("transport: client %d sent full-precision frame to quantizing ap", cc.id)
		}
		if err := ap.checkSmashed(serverIn, ys); err != nil {
			return fmt.Errorf("transport: client %d: %w", cc.id, err)
		}
		ap.phase(tk, phaseReadSmashed, at)

		// Server-side forward + loss + backward, then return the cut
		// gradient — the same op sequence as the simulator's SplitStep.
		at = time.Now()
		logits := rt.server.Forward(serverIn, true)
		lossFn.EvalInto(logits, ys, &rt.lossGrad)
		dSmashed := rt.server.Backward(&rt.lossGrad)
		ap.phase(tk, phaseServerCompute, at)
		at = time.Now()
		cc.conn.SetWriteDeadline(deadline)
		var werr error
		if ap.cfg.Quantize {
			quantize.QuantizeInto(&rt.qGrad, dSmashed)
			werr = cc.fc.writeGradient(nil, &rt.qGrad)
		} else {
			werr = cc.fc.writeGradient(dSmashed, nil)
		}
		if werr == nil {
			ap.phase(tk, phaseWriteGradient, at)
		}
		// The optimizer step deliberately runs after the gradient is on
		// the wire (it overlaps the client's backward pass) and stays
		// unattributed in the phase breakdown — it is slack, not a leg of
		// the wire round trip.
		rt.opt.Step(rt.server.Params(), rt.server.Grads(), rt.server.DecayMask())
		if werr != nil {
			return werr
		}
	}
	at = time.Now()
	cc.conn.SetReadDeadline(deadline)
	kind, payload, err := cc.fc.readFrame()
	if err != nil {
		return err
	}
	if kind != frameReturn {
		return fmt.Errorf("transport: client %d sent kind %d, want return", cc.id, kind)
	}
	if err := decodeReturn(payload, &rt.ret); err != nil {
		return err
	}
	if err := ap.checkModel(rt.ret.Model); err != nil {
		return fmt.Errorf("transport: client %d returned %w", cc.id, err)
	}
	ap.phase(tk, phaseReadReturn, at)
	// The client's previous return is referenced by lastGood alone: a
	// chain holds states only within its round, and Round copies the
	// optimizer state it keeps. So its buffers become the group's next
	// decode target.
	rt.ret, cc.last = cc.last, rt.ret
	*chain = cc.last
	cc.lastGood = &cc.last
	return nil
}

// checkSmashed validates an incoming activation batch against the
// architecture before it can reach a layer (where a shape mismatch
// would panic). The AP treats every frame as hostile.
func (ap *AP) checkSmashed(acts *tensor.Tensor, ys []int) error {
	if acts.Dims() != 1+len(ap.smashedShape) {
		return fmt.Errorf("smashed rank %d, want %d", acts.Dims(), 1+len(ap.smashedShape))
	}
	n := acts.Dim(0)
	if n == 0 || n != len(ys) {
		return fmt.Errorf("batch of %d activations vs %d labels", n, len(ys))
	}
	for i, d := range ap.smashedShape {
		if acts.Dim(i+1) != d {
			return fmt.Errorf("smashed shape %v, want per-sample %v", acts.Shape(), ap.smashedShape)
		}
	}
	classes := ap.cfg.Test.Classes()
	for _, y := range ys {
		if y < 0 || y >= classes {
			return fmt.Errorf("label %d outside [0,%d)", y, classes)
		}
	}
	return nil
}

// checkModel validates a returned client-half snapshot against the
// global structure before it can reach Restore or FedAvg (which panic
// on mismatch).
func (ap *AP) checkModel(sn model.Snapshot) error {
	if len(sn.Tensors) != len(ap.globalClient.Tensors) {
		return fmt.Errorf("model with %d tensors, want %d", len(sn.Tensors), len(ap.globalClient.Tensors))
	}
	for i, t := range sn.Tensors {
		if t.Size() != ap.globalClient.Tensors[i].Size() {
			return fmt.Errorf("model tensor %d size %d, want %d", i, t.Size(), ap.globalClient.Tensors[i].Size())
		}
	}
	return nil
}

// Evaluate runs the aggregated global model over the AP's test set,
// through the same chunked evaluator the simulator uses.
func (ap *AP) Evaluate() (lossVal, acc float64) {
	ap.globalClient.Restore(ap.evalModel.Client)
	ap.globalServer.Restore(ap.evalModel.Server)
	ev, _ := schemes.Evaluate(context.Background(), ap.evalModel, ap.cfg.Test, ap.cfg.Arch.InShape)
	return ev.Loss, ev.Accuracy
}

// GlobalSnapshots returns copies of the current aggregated halves — the
// cross-substrate comparison hook the byte-identity test uses.
func (ap *AP) GlobalSnapshots() (client, server model.Snapshot) {
	return ap.globalClient.Clone(), ap.globalServer.Clone()
}

// Shutdown tells every client to exit, closes all connections (including
// half-registered ones), stops the listeners, and waits for every
// AP goroutine to finish. Safe to call more than once.
func (ap *AP) Shutdown() error {
	ap.mu.Lock()
	if ap.closed {
		ap.mu.Unlock()
		return nil
	}
	ap.closed = true
	conns := make([]*clientConn, 0, len(ap.joined))
	for _, cc := range ap.joined {
		conns = append(conns, cc)
	}
	ap.joined = map[int]*clientConn{}
	ap.mu.Unlock()

	// Abort in-flight registrations and drain their goroutines, then
	// dismiss registered clients.
	firstErr := ap.greeter.Stop()
	ap.greeter.Wait()

	for _, cc := range conns {
		cc.conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
		if err := cc.fc.writeShutdown(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := cc.conn.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	ap.mActive.Set(0)

	if ap.metricsSrv != nil {
		ap.metricsSrv.Close()
		<-ap.metricsDone
	}
	return firstErr
}
