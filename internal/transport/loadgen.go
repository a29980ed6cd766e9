package transport

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"syscall"
	"time"

	"gsfl/internal/data"
	"gsfl/internal/model"
	"gsfl/internal/quantize"
	"gsfl/internal/tensor"
	"gsfl/internal/testutil/faultconn"
	"gsfl/obs"
)

// This file is the load generator: one AP plus thousands of synthetic
// clients in a single process, measuring what the transport sustains.
//
// A synthetic client is protocol-conformant but does no training — it
// answers a train frame with pre-encoded smashed frames and echoes the
// turn state back (the wire format guarantees a return payload is a
// train payload minus its leading step count, so the echo never parses
// a tensor). That keeps per-client cost near zero, so the measured
// ceiling is the AP and the transport itself: framing, scheduling,
// deadlines, straggler handling, aggregation.
//
// Fault profiles reuse the deterministic faultconn harness: a
// configurable fraction of clients stall mid-round, drop mid-frame, or
// delay every write, exercising the straggler and refill paths at scale.

// LoadGenConfig sizes a load run.
type LoadGenConfig struct {
	// Clients is the synthetic fleet size. All but the SpareFrac tail
	// are slotted into groups; the rest register as spares and back-fill
	// slots vacated by departed clients at round boundaries.
	Clients int
	// Groups is the number of concurrent relay chains (M).
	Groups int
	// Rounds is how many rounds to drive.
	Rounds int
	// StepsPerClient / Batch shape each turn's traffic.
	StepsPerClient int
	Batch          int
	// Seed makes the run (fault schedules included) reproducible.
	Seed int64
	// RoundDeadline bounds each round; zero disables (not recommended
	// with faults — stalled clients would hang their groups).
	RoundDeadline time.Duration
	// Straggler selects the fallback policy (default "drop").
	Straggler string
	// StallFrac / DropFrac / DelayFrac are the fleet fractions wrapped
	// with stalling, mid-frame-dropping, and write-delaying fault
	// profiles. The remainder run clean.
	StallFrac float64
	DropFrac  float64
	DelayFrac float64
	// SpareFrac is the fleet fraction held out of the initial group
	// assignment as refill spares.
	SpareFrac float64
	// Delay is the per-write latency for delay-profile clients.
	Delay time.Duration
	// Quantize runs the fleet with 8-bit transfer frames.
	Quantize bool
	// MetricsAddr, when non-empty, exposes the AP's metrics endpoint.
	MetricsAddr string
	// Tracer, when non-nil, records the AP's wall-clock execution spans
	// for the run (see APConfig.Tracer).
	Tracer *obs.Tracer
	// OnRound, when non-nil, observes each round's stats as it completes.
	OnRound func(RoundStats)
}

// LoadGenReport is the result of a load run (gsfl-loadgen's JSON report).
type LoadGenReport struct {
	Clients         int     `json:"clients"`
	Groups          int     `json:"groups"`
	Rounds          int     `json:"rounds"`
	StepsPerClient  int     `json:"steps_per_client"`
	Batch           int     `json:"batch"`
	StragglerPolicy string  `json:"straggler_policy"`
	RoundDeadlineMS int64   `json:"round_deadline_ms"`
	FaultClients    int     `json:"fault_clients"`
	Spares          int     `json:"spares"`
	Quantize        bool    `json:"quantize"`
	WallSeconds     float64 `json:"wall_seconds"`
	RoundsPerSec    float64 `json:"rounds_per_sec"`
	// SustainedClientsPerRound is the mean number of clients that
	// completed a fresh turn per round; MinClientsPerRound is the worst
	// round.
	SustainedClientsPerRound float64 `json:"sustained_clients_per_round"`
	MinClientsPerRound       int     `json:"min_clients_per_round"`
	ParticipantsTotal        int     `json:"participants_total"`
	StragglersTotal          int     `json:"stragglers_total"`
	SkippedTotal             int     `json:"skipped_total"`
	RefilledTotal            int     `json:"refilled_total"`
	BytesRead                int64   `json:"bytes_read"`
	BytesWritten             int64   `json:"bytes_written"`
	// StragglerRate is stragglers over attempted turns
	// (participants + stragglers).
	StragglerRate float64 `json:"straggler_rate"`
	// Phases breaks the sustained turn latency down by wire phase,
	// estimated from the AP's per-phase histograms.
	Phases map[string]PhaseQuantiles `json:"phases"`
}

// loadgenArch is the synthetic task the load fleet trains: a small MLP
// over 16-dimensional blob features, big enough to make relay frames
// real, small enough that AP compute is not the bottleneck under test.
const (
	loadgenDim     = 16
	loadgenClasses = 4
	loadgenHidden  = 32
	loadgenTestN   = 64
)

func loadgenBlobs(n int, rng *rand.Rand) *data.InMemory {
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		c := rng.Intn(loadgenClasses)
		f := make([]float64, loadgenDim)
		for j := range f {
			f[j] = 0.6 * rng.NormFloat64()
		}
		f[c*2%loadgenDim] += 2
		f[(c*2+1)%loadgenDim] += 1.5
		x[i] = f
		y[i] = c
	}
	return data.NewInMemory(x, y, loadgenClasses)
}

// raiseFDLimit lifts the soft open-file limit to the hard limit,
// best-effort: a 1000-client in-process run holds 2000+ sockets.
func raiseFDLimit() {
	var rl syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &rl); err == nil && rl.Cur < rl.Max {
		rl.Cur = rl.Max
		syscall.Setrlimit(syscall.RLIMIT_NOFILE, &rl)
	}
}

// faultProfileFor maps a client index to its faultconn profile (zero
// profile = clean). The first StallFrac·N clients stall, the next
// DropFrac·N drop mid-frame, the next DelayFrac·N delay writes —
// deterministic assignment, so a (config, seed) pair replays exactly.
func (cfg *LoadGenConfig) faultProfileFor(i int) faultconn.Profile {
	nStall := int(cfg.StallFrac * float64(cfg.Clients))
	nDrop := int(cfg.DropFrac * float64(cfg.Clients))
	nDelay := int(cfg.DelayFrac * float64(cfg.Clients))
	p := faultconn.Profile{Seed: cfg.Seed*1_000_003 + int64(i)}
	switch {
	case i < nStall:
		// Hang partway into the first turn (after hello + one smashed).
		p.StallAfterWrites = 3
	case i < nStall+nDrop:
		// Die mid-frame a little into the run.
		p.DropAfterBytes = 4096
	case i < nStall+nDrop+nDelay:
		p.WriteDelayProb = 0.5
		p.WriteDelay = cfg.Delay
	}
	return p
}

func (cfg *LoadGenConfig) faultCount() int {
	return int(cfg.StallFrac*float64(cfg.Clients)) +
		int(cfg.DropFrac*float64(cfg.Clients)) +
		int(cfg.DelayFrac*float64(cfg.Clients))
}

// RunLoadGen spins up one AP and cfg.Clients synthetic clients over real
// loopback TCP, drives cfg.Rounds rounds, and reports what was
// sustained.
func RunLoadGen(cfg LoadGenConfig) (*LoadGenReport, error) {
	if cfg.Clients <= 0 || cfg.Groups <= 0 || cfg.Rounds <= 0 {
		return nil, fmt.Errorf("transport: loadgen needs positive clients/groups/rounds, got %d/%d/%d",
			cfg.Clients, cfg.Groups, cfg.Rounds)
	}
	slotted := cfg.Clients - int(cfg.SpareFrac*float64(cfg.Clients))
	if slotted < cfg.Groups {
		return nil, fmt.Errorf("transport: %d slotted clients cannot fill %d groups", slotted, cfg.Groups)
	}
	if cfg.StepsPerClient <= 0 {
		cfg.StepsPerClient = 2
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 8
	}
	if cfg.Straggler == "" {
		cfg.Straggler = "drop"
	}
	raiseFDLimit()

	arch := model.MLP(loadgenDim, loadgenHidden, loadgenClasses)
	cut := model.MLPDefaultCut
	groups := make([][]int, cfg.Groups)
	for i := 0; i < slotted; i++ {
		g := i % cfg.Groups
		groups[g] = append(groups[g], i)
	}

	ap, err := NewAP("127.0.0.1:0", APConfig{
		Arch: arch, Cut: cut,
		Groups:         groups,
		StepsPerClient: cfg.StepsPerClient,
		LR:             0.05, Momentum: 0.9, ClipNorm: 10,
		Test:          loadgenBlobs(loadgenTestN, rand.New(rand.NewSource(cfg.Seed))),
		Seed:          cfg.Seed,
		Quantize:      cfg.Quantize,
		RoundDeadline: cfg.RoundDeadline,
		Straggler:     cfg.Straggler,
		MetricsAddr:   cfg.MetricsAddr,
		Tracer:        cfg.Tracer,
	})
	if err != nil {
		return nil, err
	}
	defer ap.Shutdown()

	// Pre-encode the one smashed payload every synthetic client replays:
	// a real client-half forward of a zero batch, so shapes and training
	// semantics are exactly what the AP expects.
	smashedPayload, err := syntheticSmashedPayload(arch, cut, cfg.Batch, cfg.Quantize, cfg.Seed)
	if err != nil {
		ap.Shutdown()
		return nil, err
	}

	var wg sync.WaitGroup
	conns := make([]net.Conn, cfg.Clients)
	var dialErr error
	for i := 0; i < cfg.Clients; i++ {
		raw, err := net.Dial("tcp", ap.Addr())
		if err != nil {
			dialErr = fmt.Errorf("transport: loadgen dial %d: %w", i, err)
			break
		}
		conn := net.Conn(raw)
		if p := cfg.faultProfileFor(i); p != (faultconn.Profile{}) {
			conn = faultconn.Wrap(raw, p)
		}
		conns[i] = conn
		wg.Add(1)
		go func(id int, conn net.Conn) {
			defer wg.Done()
			runSyntheticClient(id, conn, smashedPayload, cfg)
		}(i, conn)
	}
	closeAll := func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}
	if dialErr != nil {
		closeAll()
		wg.Wait()
		return nil, dialErr
	}
	// Stalling clients may hang before completing registration, so wait
	// for the clean majority only.
	need := cfg.Clients - int(cfg.StallFrac*float64(cfg.Clients)) - int(cfg.DropFrac*float64(cfg.Clients))
	if err := ap.WaitForCount(need, 30*time.Second); err != nil {
		closeAll()
		wg.Wait()
		return nil, err
	}

	rep := &LoadGenReport{
		Clients: cfg.Clients, Groups: cfg.Groups, Rounds: cfg.Rounds,
		StepsPerClient: cfg.StepsPerClient, Batch: cfg.Batch,
		StragglerPolicy:    cfg.Straggler,
		RoundDeadlineMS:    cfg.RoundDeadline.Milliseconds(),
		FaultClients:       cfg.faultCount(),
		Spares:             cfg.Clients - slotted,
		Quantize:           cfg.Quantize,
		MinClientsPerRound: -1,
	}
	start := time.Now()
	for r := 0; r < cfg.Rounds; r++ {
		stats, err := ap.Round()
		if err != nil {
			closeAll()
			wg.Wait()
			return nil, err
		}
		rep.ParticipantsTotal += stats.Participants
		rep.StragglersTotal += stats.Stragglers
		rep.SkippedTotal += stats.Skipped
		rep.RefilledTotal += stats.Refilled
		if rep.MinClientsPerRound < 0 || stats.Participants < rep.MinClientsPerRound {
			rep.MinClientsPerRound = stats.Participants
		}
		if cfg.OnRound != nil {
			cfg.OnRound(stats)
		}
	}
	rep.WallSeconds = time.Since(start).Seconds()
	rep.RoundsPerSec = float64(cfg.Rounds) / rep.WallSeconds
	rep.SustainedClientsPerRound = float64(rep.ParticipantsTotal) / float64(cfg.Rounds)
	rep.BytesRead = ap.mBytesIn.Value()
	rep.BytesWritten = ap.mBytesOut.Value()
	if attempted := rep.ParticipantsTotal + rep.StragglersTotal; attempted > 0 {
		rep.StragglerRate = float64(rep.StragglersTotal) / float64(attempted)
	}
	rep.Phases = ap.PhaseQuantiles()

	err = ap.Shutdown()
	closeAll()
	wg.Wait()
	return rep, err
}

// syntheticSmashedPayload builds the one frame payload a synthetic
// client uploads per step: cut-layer activations of a zero input batch
// plus valid labels.
func syntheticSmashedPayload(arch model.Arch, cut, batch int, quantized bool, seed int64) ([]byte, error) {
	split := arch.NewSplit(rand.New(rand.NewSource(seed)), cut)
	shape := append([]int{batch}, arch.InShape...)
	x := tensor.New(shape...)
	acts := split.Client.Forward(x, false)
	ys := make([]int, batch)

	var e wireEnc
	e.begin(frameSmashed)
	if quantized {
		e.U8(encQuant8)
		e.quantized(quantize.Quantize(acts))
	} else {
		e.U8(encFloat64)
		e.Tensor(acts)
	}
	e.labels(ys)
	frame := e.finish()
	return append([]byte(nil), frame[frameHeaderLen:]...), nil
}

// runSyntheticClient registers and then echoes turns until shutdown or
// connection loss. It never parses a tensor: the return payload is the
// train payload minus its leading step count, byte for byte.
func runSyntheticClient(id int, conn net.Conn, smashedPayload []byte, cfg LoadGenConfig) {
	defer conn.Close()
	fc := newFrameConn(conn, 0)
	if err := fc.writeHello(id, 64, cfg.Quantize); err != nil {
		return
	}
	var ret []byte
	for {
		kind, payload, err := fc.readFrame()
		if err != nil {
			return
		}
		switch kind {
		case frameShutdown:
			return
		case frameTrain:
			if len(payload) < 4 {
				return
			}
			steps := int(uint32(payload[0]) | uint32(payload[1])<<8 | uint32(payload[2])<<16 | uint32(payload[3])<<24)
			// payload lives in the read buffer; copy the echo before the
			// next readFrame overwrites it.
			ret = append(ret[:0], payload[4:]...)
			ok := true
			for s := 0; s < steps && ok; s++ {
				if err := fc.writeRaw(frameSmashed, smashedPayload); err != nil {
					return
				}
				k, _, err := fc.readFrame()
				if err != nil {
					return
				}
				ok = k == frameGradient
			}
			if !ok {
				return
			}
			if err := fc.writeRaw(frameReturn, ret); err != nil {
				return
			}
		default:
			return
		}
	}
}
