package pop

import (
	"crypto/sha256"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"gsfl/internal/schemes"
)

func testConfig() Config {
	return Config{
		Members:    5000,
		Slots:      50,
		Cohort:     20,
		Trace:      "onoff",
		ProfileMix: "low-end:0.3,baseline:0.5,high-end:0.2",
		Seed:       42,
	}
}

// TestDeterminism pins the core contract: two populations built from
// the same config produce identical binding sequences, and a third
// that jumps straight to round R via replay lands on the same cohort.
func TestDeterminism(t *testing.T) {
	a, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 12
	var lastA []schemes.SlotBinding
	for r := 1; r <= rounds; r++ {
		ba, err := a.BeginRound(r)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := b.BeginRound(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(ba) == 0 {
			t.Fatalf("round %d: empty cohort from a 2/3-available population", r)
		}
		if len(ba) != len(bb) {
			t.Fatalf("round %d: cohort sizes differ: %d vs %d", r, len(ba), len(bb))
		}
		for i := range ba {
			if ba[i] != bb[i] {
				t.Fatalf("round %d binding %d: %+v vs %+v", r, i, ba[i], bb[i])
			}
		}
		lastA = append(lastA[:0], ba...)
	}

	// Replay: a fresh population asked directly for round `rounds`.
	c, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	bc, err := c.BeginRound(rounds)
	if err != nil {
		t.Fatal(err)
	}
	if len(bc) != len(lastA) {
		t.Fatalf("replay cohort size %d, want %d", len(bc), len(lastA))
	}
	for i := range bc {
		if bc[i] != lastA[i] {
			t.Fatalf("replay binding %d: %+v, want %+v", i, bc[i], lastA[i])
		}
	}
	if a.Online() != c.Online() {
		t.Fatalf("replay online count %d, want %d", c.Online(), a.Online())
	}
}

// TestBindingInvariants checks the structural promises schemes rely
// on: dense slots in order, unique members, shards within range,
// positive speeds, and no member sampled twice in one round.
func TestBindingInvariants(t *testing.T) {
	p, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 20; r++ {
		binds, err := p.BeginRound(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(binds) > p.CohortTarget() {
			t.Fatalf("round %d: %d bindings exceed cohort target %d", r, len(binds), p.CohortTarget())
		}
		seen := map[int64]bool{}
		for i, b := range binds {
			if b.Slot != i {
				t.Fatalf("round %d: binding %d has slot %d, want dense order", r, i, b.Slot)
			}
			if seen[b.Member] {
				t.Fatalf("round %d: member %d sampled twice", r, b.Member)
			}
			seen[b.Member] = true
			if b.Shard < 0 || b.Shard >= 50 {
				t.Fatalf("round %d: shard %d outside [0,50)", r, b.Shard)
			}
			if b.Shard != int(b.Member)%50 {
				t.Fatalf("round %d: member %d mapped to shard %d, want %d", r, b.Member, b.Shard, int(b.Member)%50)
			}
			if b.Speed <= 0 {
				t.Fatalf("round %d: non-positive speed %v", r, b.Speed)
			}
		}
	}
}

// TestRoundsMustAdvance pins the monotonic-round contract.
func TestRoundsMustAdvance(t *testing.T) {
	p, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.BeginRound(3); err != nil {
		t.Fatal(err)
	}
	if _, err := p.BeginRound(3); err == nil {
		t.Fatal("repeated round accepted")
	}
	if _, err := p.BeginRound(2); err == nil {
		t.Fatal("rewound round accepted")
	}
}

// TestAlwaysOnKeepsEveryoneOnline: the default trace never churns and
// fills the full cohort every round.
func TestAlwaysOnKeepsEveryoneOnline(t *testing.T) {
	cfg := testConfig()
	cfg.Trace = ""
	cfg.ProfileMix = ""
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 5; r++ {
		binds, err := p.BeginRound(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(binds) != cfg.Cohort {
			t.Fatalf("round %d: cohort %d, want full %d", r, len(binds), cfg.Cohort)
		}
		for _, b := range binds {
			if b.Speed != 1.0 {
				t.Fatalf("baseline mix produced speed %v", b.Speed)
			}
		}
	}
	if p.Online() != cfg.Members {
		t.Fatalf("always-on population has %d online, want %d", p.Online(), cfg.Members)
	}
}

// TestLoaderSeedAdvances: a member that participates twice gets a
// different loader seed each time (fresh batch orders on return).
func TestLoaderSeedAdvances(t *testing.T) {
	cfg := testConfig()
	cfg.Members = 50 // tiny population: members recur quickly
	cfg.Slots = 50
	cfg.Cohort = 40
	cfg.Trace = ""
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[int64][]int64{}
	for r := 1; r <= 4; r++ {
		binds, err := p.BeginRound(r)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range binds {
			seeds[b.Member] = append(seeds[b.Member], b.LoaderSeed)
		}
	}
	recurred := 0
	for m, s := range seeds {
		for i := 1; i < len(s); i++ {
			recurred++
			if s[i] == s[i-1] {
				t.Fatalf("member %d reused loader seed %d across participations", m, s[i])
			}
		}
	}
	if recurred == 0 {
		t.Fatal("test vacuous: no member participated twice")
	}
}

// TestProfileMixShares checks the member→profile assignment tracks the
// mix weights.
func TestProfileMixShares(t *testing.T) {
	cfg := testConfig()
	cfg.Members = 100000
	cfg.ProfileMix = "low-end:0.25,baseline:0.75"
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lowEnd, err := ProfileByName("low-end")
	if err != nil {
		t.Fatal(err)
	}
	low := 0
	for m := 0; m < cfg.Members; m++ {
		if p.speedOf(int64(m)) == lowEnd.Speed {
			low++
		}
	}
	got := float64(low) / float64(cfg.Members)
	if math.Abs(got-0.25) > 0.01 {
		t.Fatalf("low-end share %v, want ~0.25", got)
	}
}

// TestIdentityPinned holds Identity to the string the parent commit
// printed for this config: it feeds the checkpoint env fingerprint, so
// any drift strands every population checkpoint already on disk.
func TestIdentityPinned(t *testing.T) {
	p, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	const want = `pop{members=5000 slots=50 cohort=20 trace=onoff mix="low-end:0.3,baseline:0.5,high-end:0.2" sampler=0 seed=42}`
	if got := p.Identity(); got != want {
		t.Fatalf("Identity() = %s\nwant         %s", got, want)
	}
}

// TestSteadyStateAllocFree pins the memory contract: after
// construction, BeginRound performs no per-call heap allocation (the
// metrics gauges are atomics, lazy availability writes only the record
// arrays, and the bindings slice is recycled).
func TestSteadyStateAllocFree(t *testing.T) {
	p, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := 0
	warm := func() {
		r++
		if _, err := p.BeginRound(r); err != nil {
			t.Fatal(err)
		}
	}
	warm()
	allocs := testing.AllocsPerRun(100, warm)
	if allocs > 0 {
		t.Fatalf("BeginRound allocated %v times per round", allocs)
	}
}

// TestMemoryBound pins the record-array footprint: a million-member
// population stays under 32 MiB of resident record storage.
func TestMemoryBound(t *testing.T) {
	cfg := testConfig()
	cfg.Members = 1_000_000
	cfg.Slots = 200
	cfg.Cohort = 200
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.BeginRound(1); err != nil {
		t.Fatal(err)
	}
	if got := p.MemoryBytes(); got > 32<<20 {
		t.Fatalf("1M-member population uses %d bytes of record storage, budget 32 MiB", got)
	}
	perMember := float64(p.MemoryBytes()) / float64(cfg.Members)
	if perMember > 32 {
		t.Fatalf("%.1f bytes/member, want ≤ 32", perMember)
	}
}

// TestConfigValidation covers the constructor's eager checks.
func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		edit func(*Config)
		want string
	}{
		{"zero members", func(c *Config) { c.Members = 0 }, "members"},
		{"members below slots", func(c *Config) { c.Members = 10; c.Slots = 50 }, "smaller than slots"},
		{"zero cohort", func(c *Config) { c.Cohort = 0 }, "cohort"},
		{"cohort above slots", func(c *Config) { c.Cohort = 51 }, "cohort"},
		{"unknown trace", func(c *Config) { c.Trace = "nope" }, "unknown availability trace"},
		{"unknown profile", func(c *Config) { c.ProfileMix = "nope:1" }, "unknown device profile"},
		{"bad mix weight", func(c *Config) { c.ProfileMix = "baseline:-1" }, "positive"},
		{"bad mix form", func(c *Config) { c.ProfileMix = "baseline" }, "name:weight"},
		{"dup mix entry", func(c *Config) { c.ProfileMix = "baseline:1,baseline:1" }, "twice"},
	}
	for _, tc := range cases {
		cfg := testConfig()
		tc.edit(&cfg)
		_, err := New(cfg)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestTraceRegistry exercises the registry plumbing end to end.
func TestTraceRegistry(t *testing.T) {
	for _, want := range []string{"always-on", "diurnal", "onoff"} {
		if _, err := TraceByName(want); err != nil {
			t.Errorf("builtin trace %q missing: %v", want, err)
		}
	}
	if _, err := TraceByName("absent"); err == nil {
		t.Error("unknown trace resolved")
	}
	for _, want := range []string{"baseline", "high-end", "low-end"} {
		if _, err := ProfileByName(want); err != nil {
			t.Errorf("builtin profile %q missing: %v", want, err)
		}
	}
}

// TestParseMixNormalizes: weights are scaled to sum to one, order
// preserved.
func TestParseMixNormalizes(t *testing.T) {
	mix, err := ParseMix("high-end:2,low-end:6")
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 2 || mix[0].Profile.Name != "high-end" || mix[1].Profile.Name != "low-end" {
		t.Fatalf("mix order/contents wrong: %+v", mix)
	}
	if math.Abs(mix[0].Weight-0.25) > 1e-12 || math.Abs(mix[1].Weight-0.75) > 1e-12 {
		t.Fatalf("weights not normalized: %+v", mix)
	}
}

// The tests below pin lazy per-member availability against two
// independent references: a stateless oracle that recomputes any
// member's state from time zero, and cohort-sequence hashes recorded
// from the eager global-queue implementation this one replaced.

func lazyConfig(trace string, members int) Config {
	return Config{
		Members: members, Slots: 50, Cohort: 40, Trace: trace,
		ProfileMix: "low-end:0.3,baseline:0.5,high-end:0.2", Seed: 7,
	}
}

// refDraw is the population stream written out in full — three mixes,
// no cached per-salt key.
func refDraw(seed int64, salt, a, b uint64) uint64 {
	return splitmix64(splitmix64(splitmix64(uint64(seed)^salt)^a) ^ b)
}

// offlineAt walks member m's dwell stream from time zero with no
// cached state and reports whether it is offline at time t.
func offlineAt(cfg Config, m int64, t float64) bool {
	tr, err := TraceByName(cfg.Trace)
	if err != nil {
		panic(err)
	}
	online := tr.InitialOnline(unitOf(refDraw(cfg.Seed, saltInit, uint64(m), 0)))
	at := 0.0
	for cur := uint32(0); ; cur++ {
		u := unitOf(refDraw(cfg.Seed, saltToggle, uint64(m), uint64(cur)))
		at += math.Max(tr.NextDuration(online, cur, u), minDwell)
		if at > t {
			return !online
		}
		online = !online
	}
}

func onlineAt(cfg Config, t float64) int {
	n := 0
	for m := 0; m < cfg.Members; m++ {
		if !offlineAt(cfg, int64(m), t) {
			n++
		}
	}
	return n
}

// refCohort is the sampler's specification on top of the oracle: walk
// the round's draw sequence, skip repeats, and bind the online members
// among the distinct draws until the cohort is full.
func refCohort(cfg Config, r int) (bound, rejected []int64) {
	seen := map[int64]bool{}
	for try := 0; try < 64*cfg.Cohort+256 && len(seen) < cfg.Members; try++ {
		if len(bound) >= cfg.Cohort {
			break
		}
		m := int64(refDraw(cfg.Seed, saltSample, uint64(r), uint64(try)) % uint64(cfg.Members))
		if seen[m] {
			continue
		}
		seen[m] = true
		if offlineAt(cfg, m, float64(r)) {
			rejected = append(rejected, m)
		} else {
			bound = append(bound, m)
		}
	}
	return bound, rejected
}

// refSpeed assigns member m's device profile by walking the mix's
// weights with the member's profile draw.
func refSpeed(t *testing.T, cfg Config, m int64) float64 {
	t.Helper()
	mix, err := ParseMix(cfg.ProfileMix)
	if err != nil {
		t.Fatal(err)
	}
	u, acc := unitOf(refDraw(cfg.Seed, saltProfile, uint64(m), 0)), 0.0
	for _, e := range mix[:len(mix)-1] {
		if acc += e.Weight; u < acc {
			return e.Profile.Speed
		}
	}
	return mix[len(mix)-1].Profile.Speed
}

// TestLazyMatchesStatelessOracle: every bound member is online per the
// oracle and in the oracle's order, every rejected draw is offline in
// the population too, loader seeds and speeds come from the written-out
// stream, the census equals the oracle's count, and a fresh population
// asked directly for the last round lands on the same cohort.
func TestLazyMatchesStatelessOracle(t *testing.T) {
	const rounds = 300
	for _, trace := range []string{"always-on", "onoff", "diurnal"} {
		for _, members := range []int{50, 60, 5000} {
			cfg := lazyConfig(trace, members)
			// The 0 is the sampler id Identity still prints.
			t.Run(fmt.Sprintf("%s/0/P=%d", trace, members), func(t *testing.T) {
				p, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				taken := map[int64]uint64{} // participations so far
				var last string
				for r := 1; r <= rounds; r++ {
					binds, err := p.BeginRound(r)
					if err != nil {
						t.Fatal(err)
					}
					want, rejected := refCohort(cfg, r)
					if len(binds) != len(want) {
						t.Fatalf("round %d: bound %d members, oracle says %d", r, len(binds), len(want))
					}
					for i, b := range binds {
						taken[b.Member]++
						speed := refSpeed(t, cfg, b.Member)
						seed := int64(refDraw(cfg.Seed, saltLoader, uint64(b.Member), taken[b.Member]))
						if b.Member != want[i] || b.Slot != i || b.Shard != int(b.Member)%cfg.Slots ||
							b.LoaderSeed != seed || b.Speed != speed {
							t.Fatalf("round %d binding %d: %+v, oracle member %d seed %d speed %v",
								r, i, b, want[i], seed, speed)
						}
					}
					for _, m := range rejected {
						if !p.isOffline(m) {
							t.Fatalf("round %d: rejected member %d is online in the population", r, m)
						}
					}
					if r%100 == 0 {
						if got, want := p.Online(), onlineAt(cfg, float64(r)); got != want {
							t.Fatalf("round %d: census %d, oracle %d", r, got, want)
						}
					}
					last = fmt.Sprint(binds)
				}

				q, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				binds, err := q.BeginRound(rounds)
				if err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprint(binds); got != last {
					t.Fatalf("skip-ahead cohort %s, want %s", got, last)
				}
				if q.Online() != p.Online() {
					t.Fatalf("skip-ahead census %d, want %d", q.Online(), p.Online())
				}
			})
		}
	}
}

// cohortHash folds rounds 1..300 and the final census into the digest
// the parent-commit hashes below were recorded with.
func cohortHash(t *testing.T, p *Population) string {
	t.Helper()
	h := sha256.New()
	for r := 1; r <= 300; r++ {
		binds, err := p.BeginRound(r)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%d:%v\n", r, binds)
	}
	fmt.Fprintf(h, "online=%d", p.Online())
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestCohortSequencePinned compares against hashes recorded on the
// commit before lazy availability, where a global event queue advanced
// every member every round: the change moved no output bit. P=50 under
// onoff is the online<cohort case, where the sampler has no online
// count to stop at.
func TestCohortSequencePinned(t *testing.T) {
	pinned := []struct {
		trace   string
		members int
		want    string
	}{
		{"always-on", 50, "7ca504dbadff3e7e"},
		{"always-on", 60, "68d195118a9783a0"},
		{"always-on", 5000, "681918d8f1628425"},
		{"always-on", 200000, "f9bc6b362e5fd832"},
		{"onoff", 50, "9f5e8a461390614b"},
		{"onoff", 60, "74d9e5432640c897"},
		{"onoff", 5000, "d1177dbae2449f1b"},
		{"onoff", 200000, "e5f0ef792f592bef"},
		{"diurnal", 50, "7e696671554ad6de"},
		{"diurnal", 60, "d35ac99dd66589cb"},
		{"diurnal", 5000, "ae56dc6e167979f6"},
		{"diurnal", 200000, "e26fd3bfdbcc879e"},
	}
	for _, pin := range pinned {
		p, err := New(lazyConfig(pin.trace, pin.members))
		if err != nil {
			t.Fatal(err)
		}
		if got := cohortHash(t, p); got != pin.want {
			t.Errorf("%s P=%d: hash %s, parent commit recorded %s",
				pin.trace, pin.members, got, pin.want)
		}
	}
}

// TestRoundWorkIndependentOfPopulation bounds per-round work by count,
// not by clock: the toggles replayed over 50 rounds at a million
// members stay within 2× of ten thousand members at the same cohort.
func TestRoundWorkIndependentOfPopulation(t *testing.T) {
	toggles := func(members int) int64 {
		cfg := testConfig()
		cfg.Members, cfg.Slots, cfg.Cohort = members, 200, 200
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for r := 1; r <= 50; r++ {
			if _, err := p.BeginRound(r); err != nil {
				t.Fatal(err)
			}
		}
		return p.toggles
	}
	small, large := toggles(10_000), toggles(1_000_000)
	t.Logf("toggles over 50 rounds: %d at 10k members, %d at 1M", small, large)
	if small == 0 {
		t.Fatal("test vacuous: no toggles replayed under onoff")
	}
	if large > 2*small {
		t.Fatalf("50 rounds replayed %d toggles at 1M members vs %d at 10k: per-round work scales with population", large, small)
	}
}

// scrapeGauges reads the online and offline gauges off one metrics page.
func scrapeGauges(t *testing.T, p *Population) (online, offline int) {
	t.Helper()
	rec := httptest.NewRecorder()
	p.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	online, offline = -1, -1
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		fmt.Sscanf(line, "gsfl_pop_online %d", &online)
		fmt.Sscanf(line, "gsfl_pop_offline %d", &offline)
	}
	return online, offline
}

// TestCensusWhileRoundsAdvance scrapes the metrics page and calls
// Online from a second goroutine while rounds run (the race detector
// watches the shared record arrays): every page is a consistent
// census, and scraping does not move the cohort sequence.
func TestCensusWhileRoundsAdvance(t *testing.T) {
	for _, trace := range []string{"always-on", "onoff"} {
		cfg := lazyConfig(trace, 5000)
		quiet, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := cohortHash(t, quiet)

		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for scrapes := 0; ; scrapes++ {
				select {
				case <-stop:
					if scrapes > 0 {
						return
					}
				default:
				}
				online, offline := scrapeGauges(t, p)
				if online+offline != cfg.Members || online < 0 || offline < 0 {
					t.Errorf("%s: scraped online %d + offline %d, want %d members", trace, online, offline, cfg.Members)
					return
				}
				if n := p.Online(); trace == "always-on" && (n != cfg.Members || online != cfg.Members) {
					t.Errorf("always-on: census %d, scraped %d of %d members", n, online, cfg.Members)
					return
				}
			}
		}()
		got := cohortHash(t, p)
		close(stop)
		wg.Wait()
		if got != want {
			t.Errorf("%s: cohort hash %s while scraped, %s undisturbed", trace, got, want)
		}
	}
}

// hostileTrace gives about half the members a NaN first dwell and
// everyone else negative dwells forever.
type hostileTrace struct{}

func (hostileTrace) Name() string               { return "test-hostile" }
func (hostileTrace) InitialOnline(float64) bool { return true }
func (hostileTrace) NextDuration(_ bool, cursor uint32, u float64) float64 {
	if cursor == 0 && u < 0.5 {
		return math.NaN()
	}
	return -1
}

func init() { RegisterTrace(hostileTrace{}) }

// TestHostileTraceCannotCorruptReplay: an out-of-tree trace returning
// NaN freezes that member in its current state, and a negative dwell is
// clamped to minDwell — time never runs backwards, rounds still finish,
// and the census stays consistent.
func TestHostileTraceCannotCorruptReplay(t *testing.T) {
	cfg := lazyConfig("test-hostile", 60)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 3; r++ {
		if _, err := p.BeginRound(r); err != nil {
			t.Fatal(err)
		}
	}
	online := p.Online()
	frozen := 0
	for m := range p.next {
		next, flips := p.next[m], p.tcur[m]
		if math.IsNaN(next) {
			frozen++
			if flips != 0 || p.isOffline(int64(m)) {
				t.Errorf("member %d: NaN dwell did not freeze it online (%d toggles)", m, flips)
			}
			continue
		}
		// Clamped dwells flip the member every minDwell: ~3000 toggles by round 3.
		if next <= 3 || next > 3+2*minDwell || flips < 2990 || flips > 3010 || p.isOffline(int64(m)) != (flips%2 == 1) {
			t.Errorf("member %d: next toggle at %v after %d toggles, offline=%v", m, next, flips, p.isOffline(int64(m)))
		}
	}
	if frozen == 0 || frozen == cfg.Members {
		t.Fatalf("test vacuous: %d of %d members frozen", frozen, cfg.Members)
	}
	if online < frozen || online > cfg.Members {
		t.Fatalf("census %d outside [%d frozen online, %d]", online, frozen, cfg.Members)
	}
}
