package pop

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"net/http"
	"sync"

	"gsfl/internal/device"
	"gsfl/internal/metrics"
	"gsfl/internal/schemes"
)

// Config describes a population.
type Config struct {
	// Members is the population size P.
	Members int
	// Slots is the number of physical client slots (fleet entries,
	// channel indices, data shards) sampled members mount onto.
	Slots int
	// Cohort is the per-round sampling target K, 1 ≤ K ≤ Slots. A
	// round may bind fewer members when availability is scarce.
	Cohort int
	// Trace names a registered availability trace ("" = always-on).
	Trace string
	// ProfileMix is a ParseMix expression ("" = all baseline).
	ProfileMix string
	// Seed derives every stream the population consumes: initial
	// states, dwell durations, sampling draws, loader seeds.
	Seed int64
	// Fleet, when non-nil, receives the per-round device-profile speed
	// multipliers: BeginRound rescales Clients[slot].FLOPS for each
	// bound slot and restores unbound slots to their base capacity.
	Fleet *device.Fleet
}

// Population is a persistent client population held as record arrays:
// ~20 bytes of fixed-width state per member (next-toggle time, two RNG
// cursors, sample stamp, availability bit) — never a live model,
// loader, or per-member object; shard and device profile are pure
// functions of the member id, derived when a member is bound. A
// million members fit in about 20 MB, and the steady-state path
// (BeginRound) allocates nothing.
//
// Availability is lazy: a member's toggle history is replayed only
// when the sampler draws it, so a round costs O(draws × toggles since
// each drawn member was last seen), independent of P. Only the census
// (Online, the gsfl_pop_online/offline gauges) walks every member.
//
// Determinism: every draw comes from a counter-based splitmix64 stream
// keyed by (seed, salt, member-or-round, cursor), so the cohort of
// round r is a pure function of (Config, r) — identical across worker
// counts, and replayable from scratch, which is how resumed runs
// rejoin the stream without any population state in the checkpoint.
type Population struct {
	cfg   Config
	trace Trace
	mix   []MixEntry
	// cum holds the mix's cumulative weights for member assignment.
	cum []float64
	// Per-purpose stream keys, splitmix64(seed ^ salt), mixed once.
	kInit, kToggle, kProfile, kSample, kLoader uint64

	// mu serializes BeginRound with the census: /metrics is scraped from
	// another goroutine, and both advance members.
	mu sync.Mutex

	// Record arrays, indexed by member id.
	next    []float64 // time of the member's next toggle; 0 = not yet initialised
	pcur    []uint32  // participation cursor (advances per sampled round)
	tcur    []uint32  // toggle cursor (advances per availability flip)
	stamp   []uint32  // last round the member was drawn (dedup within a round)
	offline []uint64  // availability bitset (1 = offline) as of each member's last touch

	clock   int   // last completed BeginRound
	toggles int64 // availability flips replayed so far (tests bound per-round work by it)

	binds     []schemes.SlotBinding // reused across rounds
	baseFLOPS []float64             // fleet capacities before profile scaling

	reg                              *metrics.Registry
	gMembers, gOnline, gOff, gCohort *metrics.Gauge
	cSampled, cRounds                *metrics.Counter
}

// Stream salts separating the population's independent draw purposes.
const (
	saltInit    = 0x9E3779B97F4A7C15
	saltToggle  = 0xC2B2AE3D27D4EB4F
	saltProfile = 0x165667B19E3779F9
	saltSample  = 0x27D4EB2F165667C5
	saltLoader  = 0x85EBCA77C2B2AE63
)

// minDwell bounds dwell durations away from zero so replaying a
// member's toggles always makes progress.
const minDwell = 1e-3

// New builds a population. It allocates and clears the record arrays —
// the only O(P) moment outside a census — and draws nothing per member:
// initial states are drawn when a member is first touched.
func New(cfg Config) (*Population, error) {
	if cfg.Members <= 0 {
		return nil, fmt.Errorf("pop: members %d must be positive", cfg.Members)
	}
	if cfg.Slots <= 0 {
		return nil, fmt.Errorf("pop: slots %d must be positive", cfg.Slots)
	}
	if cfg.Members < cfg.Slots {
		return nil, fmt.Errorf("pop: members %d smaller than slots %d", cfg.Members, cfg.Slots)
	}
	if cfg.Cohort < 1 || cfg.Cohort > cfg.Slots {
		return nil, fmt.Errorf("pop: cohort %d outside [1,%d]", cfg.Cohort, cfg.Slots)
	}
	traceName := cfg.Trace
	if traceName == "" {
		traceName = DefaultTrace
		cfg.Trace = traceName
	}
	trace, err := TraceByName(traceName)
	if err != nil {
		return nil, err
	}
	mix, err := ParseMix(cfg.ProfileMix)
	if err != nil {
		return nil, err
	}
	if cfg.Fleet != nil && cfg.Fleet.N() < cfg.Slots {
		return nil, fmt.Errorf("pop: fleet has %d clients, need %d slots", cfg.Fleet.N(), cfg.Slots)
	}

	seed := uint64(cfg.Seed)
	p := &Population{
		cfg:      cfg,
		trace:    trace,
		mix:      mix,
		cum:      make([]float64, len(mix)),
		kInit:    splitmix64(seed ^ saltInit),
		kToggle:  splitmix64(seed ^ saltToggle),
		kProfile: splitmix64(seed ^ saltProfile),
		kSample:  splitmix64(seed ^ saltSample),
		kLoader:  splitmix64(seed ^ saltLoader),
		next:     make([]float64, cfg.Members),
		pcur:     make([]uint32, cfg.Members),
		tcur:     make([]uint32, cfg.Members),
		stamp:    make([]uint32, cfg.Members),
		offline:  make([]uint64, (cfg.Members+63)/64),
		binds:    make([]schemes.SlotBinding, 0, cfg.Cohort),
	}
	// make hands back pages the OS has not backed yet; left alone, the
	// sampler faults them in one random draw at a time, which at 1M
	// members costs the first twenty rounds 20-100 ms between them. One
	// sequential pass here backs them in about 10 ms.
	clear(p.next)
	clear(p.pcur)
	clear(p.tcur)
	clear(p.stamp)

	acc := 0.0
	for i, e := range mix {
		acc += e.Weight
		p.cum[i] = acc
	}
	p.cum[len(p.cum)-1] = 1 // guard against float round-off at the top

	if cfg.Fleet != nil {
		p.baseFLOPS = make([]float64, cfg.Slots)
		for i := range p.baseFLOPS {
			p.baseFLOPS[i] = cfg.Fleet.Clients[i].FLOPS
		}
	}

	p.reg = metrics.NewRegistry()
	p.gMembers = p.reg.Gauge("gsfl_pop_members", "population size")
	p.gOnline = p.reg.Gauge("gsfl_pop_online", "members currently online")
	p.gOff = p.reg.Gauge("gsfl_pop_offline", "members currently offline")
	p.gCohort = p.reg.Gauge("gsfl_pop_sampled_round", "members sampled in the last round")
	p.cSampled = p.reg.Counter("gsfl_pop_sampled_total", "cumulative sampled members")
	p.cRounds = p.reg.Counter("gsfl_pop_rounds_total", "rounds the population has served")
	p.gMembers.Set(int64(cfg.Members))
	return p, nil
}

// splitmix64 is the mixing function behind every population draw.
func splitmix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// draw produces the (a, b) member of the stream behind key — a pure
// function of the seed, so any draw can be replayed in isolation.
func draw(key, a, b uint64) uint64 {
	return splitmix64(splitmix64(key^a) ^ b)
}

// unitOf maps a 64-bit draw to [0,1).
func unitOf(u uint64) float64 { return float64(u>>11) / (1 << 53) }

// speedOf returns member m's device-profile speed: one pure draw
// against the mix's cumulative weights.
func (p *Population) speedOf(m int64) float64 {
	u := unitOf(draw(p.kProfile, uint64(m), 0))
	i := 0
	for i < len(p.cum)-1 && u >= p.cum[i] {
		i++
	}
	return p.mix[i].Profile.Speed
}

func (p *Population) isOffline(m int64) bool {
	return p.offline[m/64]&(1<<(m%64)) != 0
}

// dwell draws how long member m stays in the state it entered at
// toggle cur. Durations are clamped to minDwell, so a trace returning
// a negative dwell cannot run time backwards; a NaN dwell makes every
// later "next <= t" false, freezing the member in its current state.
func (p *Population) dwell(m int64, online bool, cur uint32) float64 {
	u := unitOf(draw(p.kToggle, uint64(m), uint64(cur)))
	return math.Max(p.trace.NextDuration(online, cur, u), minDwell)
}

// touch brings member m's availability up to time t: the first touch
// draws its state at time zero, then every toggle due by t is replayed.
// The toggle times are the running sum of the member's own dwell
// stream, so the result does not depend on when, or how often, a member
// is touched.
func (p *Population) touch(m int64, t float64) {
	word, bit := &p.offline[m/64], uint64(1)<<(m%64)
	next := p.next[m]
	if next == 0 {
		online := p.trace.InitialOnline(unitOf(draw(p.kInit, uint64(m), 0)))
		if !online {
			*word |= bit
		}
		next = p.dwell(m, online, 0)
	}
	for next <= t {
		*word ^= bit
		p.tcur[m]++
		p.toggles++
		next += p.dwell(m, *word&bit == 0, p.tcur[m])
	}
	p.next[m] = next
}

// sample draws round r's cohort into p.binds. Draw order is a pure
// function of (seed, r): member indices come from the counter-based
// stream keyed by the round and the try number, with the stamp array
// rejecting duplicates; each newly drawn member is advanced to time r
// before its availability is tested. The rejection walk ends when the
// cohort is full, when every member has been drawn, or at maxTries;
// the cohort may come up short, never wrong.
func (p *Population) sample(r int) {
	p.binds = p.binds[:0]
	maxTries := 64*p.cfg.Cohort + 256
	drawn := 0
	for try := 0; try < maxTries && drawn < p.cfg.Members && len(p.binds) < p.cfg.Cohort; try++ {
		m := int64(draw(p.kSample, uint64(r), uint64(try)) % uint64(p.cfg.Members))
		if p.stamp[m] == uint32(r) {
			continue // already drawn this round
		}
		p.stamp[m] = uint32(r)
		drawn++
		p.touch(m, float64(r))
		if p.isOffline(m) {
			continue // reject and redraw: every sampled member participates
		}
		p.pcur[m]++
		p.binds = append(p.binds, schemes.SlotBinding{
			Slot:       len(p.binds),
			Member:     m,
			Shard:      int(m % int64(p.cfg.Slots)),
			LoaderSeed: int64(draw(p.kLoader, uint64(m), uint64(p.pcur[m]))),
			Speed:      p.speedOf(m),
		})
	}
	p.cSampled.Add(int64(len(p.binds)))
	p.cRounds.Inc()
}

// BeginRound implements schemes.Cohort: it draws round r's cohort
// (1-based, strictly increasing), applies device-profile speeds to the
// fleet, and returns the slot bindings. A request that skips ahead — a
// resumed run whose trainer continues at round ckpt+1 — replays every
// intermediate round's draws, so the population lands exactly where
// the original run had it. The returned slice is reused by the next
// call.
func (p *Population) BeginRound(round int) ([]schemes.SlotBinding, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if round <= p.clock {
		return nil, fmt.Errorf("pop: round %d not after completed round %d (rounds must advance)", round, p.clock)
	}
	for r := p.clock + 1; r <= round; r++ {
		p.sample(r)
	}
	p.clock = round

	if f := p.cfg.Fleet; f != nil {
		for i, base := range p.baseFLOPS {
			f.Clients[i].FLOPS = base
		}
		for i := range p.binds {
			b := &p.binds[i]
			f.Clients[b.Slot].FLOPS = p.baseFLOPS[b.Slot] * b.Speed
		}
	}
	p.gCohort.Set(int64(len(p.binds)))
	return p.binds, nil
}

// Identity implements schemes.Cohort; it is folded into checkpoint env
// fingerprints so resuming under a different population is rejected.
// "sampler=0" is the availability-aware draw, the only one there is;
// the literal stays so checkpoints written before it was fixed resume.
func (p *Population) Identity() string {
	return fmt.Sprintf("pop{members=%d slots=%d cohort=%d trace=%s mix=%q sampler=0 seed=%d}",
		p.cfg.Members, p.cfg.Slots, p.cfg.Cohort, p.cfg.Trace, p.cfg.ProfileMix, p.cfg.Seed)
}

// BaseCapacities returns a copy of the fleet's FLOPS before
// device-profile scaling (nil when no fleet is attached). Checkpoint
// fingerprints use it instead of the live fleet, whose capacities
// carry the current round's profile multipliers.
func (p *Population) BaseCapacities() []float64 {
	if p.baseFLOPS == nil {
		return nil
	}
	return append([]float64(nil), p.baseFLOPS...)
}

// Members returns the population size.
func (p *Population) Members() int { return p.cfg.Members }

// CohortTarget returns the per-round sampling target K.
func (p *Population) CohortTarget() int { return p.cfg.Cohort }

// Online returns the number of members online as of the last completed
// round. It is a census — every member is advanced to the clock, O(P)
// — and safe to call while another goroutine runs rounds.
func (p *Population) Online() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.census()
}

// census advances every member to the clock, counts the online ones
// and refreshes the online/offline gauges. Callers hold p.mu.
func (p *Population) census() int {
	for m := range p.next {
		p.touch(int64(m), float64(p.clock))
	}
	off := 0
	for _, w := range p.offline {
		off += bits.OnesCount64(w)
	}
	online := p.cfg.Members - off
	p.gOnline.Set(int64(online))
	p.gOff.Set(int64(off))
	return online
}

// Round returns the last round BeginRound completed.
func (p *Population) Round() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.clock
}

// MetricsHandler serves the population's operational gauges and
// counters (gsfl_pop_*) in Prometheus text-exposition format — the
// payload behind gsfl-sim's -metrics endpoint. Each scrape takes a
// census and renders the page between rounds, so the online/offline
// gauges are exact and the page is one consistent snapshot.
func (p *Population) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		var page bytes.Buffer
		p.mu.Lock()
		p.census()
		_ = p.reg.WriteText(&page)
		p.mu.Unlock()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_, _ = w.Write(page.Bytes())
	})
}

// MemoryBytes reports the population's resident record storage: the
// per-member arrays plus the binding buffer. It is the quantity
// TestMemoryBound bounds.
func (p *Population) MemoryBytes() int64 {
	return int64(cap(p.next))*8 + int64(cap(p.pcur))*4 + int64(cap(p.tcur))*4 +
		int64(cap(p.stamp))*4 + int64(cap(p.offline))*8 + int64(cap(p.binds))*40
}
