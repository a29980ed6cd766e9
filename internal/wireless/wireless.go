// Package wireless models the resource-limited wireless network between
// the clients and the AP: path loss, shadowing, fast-fading jitter, and
// Shannon-capacity link rates under a shared bandwidth budget.
//
// The model follows the standard cellular abstraction used by the
// paper's delay evaluation (and by its reference [2]): client n at
// distance d_n from the AP experiences 3GPP urban path loss, and a
// transfer of B bytes over an allocated bandwidth W takes
// 8B / (W log2(1 + SNR)) seconds. Uplink and downlink budgets are
// separate, and concurrent transmissions share the budget through an
// Allocator policy — which is exactly why GSFL's parallel groups pay a
// per-transfer rate penalty that its parallelism must (and does)
// overcome.
package wireless

import (
	"fmt"
	"math"
	"math/rand"
)

// Config describes the radio environment.
type Config struct {
	// UplinkHz / DownlinkHz are the total shared bandwidth budgets.
	UplinkHz   float64
	DownlinkHz float64
	// ClientTxPowerDBm is the client transmit power (uplink).
	ClientTxPowerDBm float64
	// APTxPowerDBm is the AP transmit power (downlink).
	APTxPowerDBm float64
	// NoiseDBmPerHz is the noise power spectral density.
	NoiseDBmPerHz float64
	// ShadowingSigmaDB is the log-normal shadowing std-dev, sampled once
	// per client (slow fading).
	ShadowingSigmaDB float64
	// FadingJitter is the relative std-dev of per-transfer rate jitter
	// (fast fading around the mean rate); 0 disables it.
	FadingJitter float64
	// OutageProb is the probability that a transfer attempt fails and
	// must be retried from scratch (deep fade / collision). Each retry
	// costs one full transfer duration; retries are independent, so the
	// expected cost multiplier is 1/(1-p). 0 disables outages.
	OutageProb float64
	// MinDistanceM / MaxDistanceM bound client placement.
	MinDistanceM float64
	MaxDistanceM float64
	// MobilitySigmaM is the per-round random-walk standard deviation of
	// each client's distance from the AP (meters), reflecting at the
	// distance bounds. Shadowing decorrelates alongside movement via an
	// AR(1) process. 0 keeps clients static.
	MobilitySigmaM float64
}

// DefaultConfig is a small-cell deployment: 20 MHz up / 20 MHz down,
// 23 dBm clients, 30 dBm AP, thermal noise floor, clients 10-250 m out.
func DefaultConfig() Config {
	return Config{
		UplinkHz:         20e6,
		DownlinkHz:       20e6,
		ClientTxPowerDBm: 23,
		APTxPowerDBm:     30,
		NoiseDBmPerHz:    -174,
		ShadowingSigmaDB: 6,
		FadingJitter:     0.1,
		MinDistanceM:     10,
		MaxDistanceM:     250,
	}
}

// Validate is the one definition of the config's ranges. Errors lead
// with the field name, so callers can prefix their own path to it. The
// comparisons are written to fail on NaN.
func (cfg Config) Validate() error {
	if !(cfg.UplinkHz > 0) {
		return fmt.Errorf("UplinkHz %v must be positive", cfg.UplinkHz)
	}
	if !(cfg.DownlinkHz > 0) {
		return fmt.Errorf("DownlinkHz %v must be positive", cfg.DownlinkHz)
	}
	if !(cfg.MinDistanceM > 0) {
		return fmt.Errorf("MinDistanceM %v must be positive", cfg.MinDistanceM)
	}
	if !(cfg.MaxDistanceM >= cfg.MinDistanceM) {
		return fmt.Errorf("MaxDistanceM %v below MinDistanceM %v", cfg.MaxDistanceM, cfg.MinDistanceM)
	}
	if !(cfg.FadingJitter >= 0 && cfg.FadingJitter < 1) {
		return fmt.Errorf("FadingJitter %v outside [0,1)", cfg.FadingJitter)
	}
	if !(cfg.OutageProb >= 0 && cfg.OutageProb < 1) {
		return fmt.Errorf("OutageProb %v outside [0,1)", cfg.OutageProb)
	}
	// AdvanceRound reflects a step back into the annulus one width at a
	// time: a step wider than the annulus (or any step in a zero-width
	// one) would reflect without end.
	if width := cfg.MaxDistanceM - cfg.MinDistanceM; !(cfg.MobilitySigmaM >= 0 && cfg.MobilitySigmaM <= width) {
		return fmt.Errorf("MobilitySigmaM %v outside [0,%v] (the annulus width)", cfg.MobilitySigmaM, width)
	}
	return nil
}

// Channel is the instantiated radio environment for a fleet of N
// clients. Construction samples static client positions and shadowing;
// per-transfer fading is drawn from the channel's RNG at transfer time.
//
// The fading/outage/mobility RNG is re-derived from (seed, round) at
// every AdvanceRound, so the channel's complete mutable state at a round
// boundary is just its round counter plus the client positions and
// shadowing — the ChannelState a checkpoint captures. Within a round the
// draws are strictly sequential, which is why the schemes price all
// transfers serially in a fixed order.
type Channel struct {
	cfg  Config
	seed int64
	// round counts AdvanceRound calls; it keys the per-round RNG stream.
	round int64
	// distM and shadowDB are per-client placement and slow fading.
	distM    []float64
	shadowDB []float64
	rng      *rand.Rand
}

// NewChannel places n clients uniformly in the configured annulus and
// samples their shadowing. Deterministic in seed. A non-positive n or a
// config that fails Validate is a programmer error and panics; code
// holding outside input validates first.
func NewChannel(cfg Config, n int, seed int64) *Channel {
	if n <= 0 {
		panic(fmt.Sprintf("wireless: client count %d must be positive", n))
	}
	if err := cfg.Validate(); err != nil {
		panic("wireless: " + err.Error())
	}
	placeRng := rand.New(rand.NewSource(seed))
	ch := &Channel{
		cfg:      cfg,
		seed:     seed,
		distM:    make([]float64, n),
		shadowDB: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		// Uniform over the annulus area (sqrt for radial density).
		u := placeRng.Float64()
		r2min := float64(cfg.MinDistanceM * cfg.MinDistanceM)
		r2max := float64(cfg.MaxDistanceM * cfg.MaxDistanceM)
		ch.distM[i] = math.Sqrt(r2min + float64(u*(r2max-r2min)))
		ch.shadowDB[i] = placeRng.NormFloat64() * cfg.ShadowingSigmaDB
	}
	ch.rng = roundRng(seed, 0)
	return ch
}

// roundRng derives the fading/outage/mobility stream for one round.
// Distinct (seed, round) pairs get independent streams, so a channel
// restored at a round boundary continues with exactly the draws an
// uninterrupted run would have made.
func roundRng(seed, round int64) *rand.Rand {
	h := seed
	h = h*1_000_003 + round
	h ^= h >> 17
	h *= 0x2545F4914F6CDD1D
	return rand.New(rand.NewSource(h))
}

// N returns the number of clients the channel was built for.
func (c *Channel) N() int { return len(c.distM) }

// pathLossDB is the 3GPP UMa-style path loss at distance d meters:
// 128.1 + 37.6 log10(d/1000).
func pathLossDB(dM float64) float64 {
	return 128.1 + float64(37.6*math.Log10(dM/1000))
}

// snr returns the linear SNR for client i over bandwidth wHz in the
// given direction.
func (c *Channel) snr(i int, wHz float64, uplink bool) float64 {
	tx := c.cfg.ClientTxPowerDBm
	if !uplink {
		tx = c.cfg.APTxPowerDBm
	}
	noiseDBm := c.cfg.NoiseDBmPerHz + float64(10*math.Log10(wHz))
	rxDBm := tx - pathLossDB(c.distM[i]) - c.shadowDB[i]
	return math.Pow(10, (rxDBm-noiseDBm)/10)
}

// MeanRate returns the Shannon rate in bits/s for client i when granted
// wHz of bandwidth, before fast fading.
func (c *Channel) MeanRate(i int, wHz float64, uplink bool) float64 {
	if wHz <= 0 {
		panic(fmt.Sprintf("wireless: allocated bandwidth %v must be positive", wHz))
	}
	return wHz * math.Log2(1+c.snr(i, wHz, uplink))
}

// TransferSeconds returns the time to move `bytes` for client i over an
// allocation of wHz, applying one fast-fading draw. Deterministic given
// the channel's RNG stream position.
func (c *Channel) TransferSeconds(i int, bytes int64, wHz float64, uplink bool) float64 {
	if bytes < 0 {
		panic(fmt.Sprintf("wireless: negative transfer size %d", bytes))
	}
	if bytes == 0 {
		return 0
	}
	rate := c.MeanRate(i, wHz, uplink)
	if c.cfg.FadingJitter > 0 {
		f := 1 + float64(c.rng.NormFloat64()*c.cfg.FadingJitter)
		// Truncate so a fade can slow a transfer but never produce a
		// non-positive rate.
		if f < 0.2 {
			f = 0.2
		}
		rate *= f
	}
	t := float64(bytes) * 8 / rate
	if c.cfg.OutageProb > 0 {
		// Each failed attempt costs one full transfer duration before the
		// retry; attempts are independent Bernoulli trials.
		attempts := 1
		for c.rng.Float64() < c.cfg.OutageProb {
			attempts++
			if attempts > 100 { // safety valve against pathological configs
				break
			}
		}
		t *= float64(attempts)
	}
	return t
}

// UplinkHz and DownlinkHz expose the configured budgets for allocators.
func (c *Channel) UplinkHz() float64   { return c.cfg.UplinkHz }
func (c *Channel) DownlinkHz() float64 { return c.cfg.DownlinkHz }

// Config returns the radio environment the channel was built with;
// checkpoints fingerprint it so a run cannot silently resume under
// different physics.
func (c *Channel) Config() Config { return c.cfg }

// AdvanceRound starts a new channel round: it re-derives the per-round
// fading/outage RNG stream and, when MobilitySigmaM is positive, applies
// one round of client mobility — each client's distance random-walks
// with the configured sigma (reflecting at the bounds) and its shadowing
// decorrelates via an AR(1) update. Static deployments pay only the
// reseed, and every configuration stays bit-for-bit reproducible.
func (c *Channel) AdvanceRound() {
	c.round++
	c.rng = roundRng(c.seed, c.round)
	if c.cfg.MobilitySigmaM == 0 {
		return
	}
	const shadowRho = 0.9
	for i := range c.distM {
		d := c.distM[i] + float64(c.rng.NormFloat64()*c.cfg.MobilitySigmaM)
		// Reflect into [min, max].
		for d < c.cfg.MinDistanceM || d > c.cfg.MaxDistanceM {
			if d < c.cfg.MinDistanceM {
				d = 2*c.cfg.MinDistanceM - d
			}
			if d > c.cfg.MaxDistanceM {
				d = 2*c.cfg.MaxDistanceM - d
			}
		}
		c.distM[i] = d
		c.shadowDB[i] = float64(shadowRho*c.shadowDB[i]) +
			float64(math.Sqrt(1-shadowRho*shadowRho)*c.rng.NormFloat64()*c.cfg.ShadowingSigmaDB)
	}
}

// ChannelState is the channel's complete mutable state at a round
// boundary, as plain data: what a training checkpoint stores.
type ChannelState struct {
	// Round is the AdvanceRound count.
	Round int64
	// DistM and ShadowDB are the per-client positions and slow fading
	// (they drift only under mobility).
	DistM    []float64
	ShadowDB []float64
}

// State returns the channel's state for the checkpoint encoder. Valid
// at a round boundary: mid-round fading-stream positions are not
// represented. The slices alias the live channel — they change at the
// next AdvanceRound or Restore, so a caller that keeps the state copies
// them (Restore does).
func (c *Channel) State() ChannelState {
	return ChannelState{Round: c.round, DistM: c.distM, ShadowDB: c.shadowDB}
}

// Restore resets the channel to a state captured by State on a channel
// built with the same config, client count, and seed. The next
// AdvanceRound continues the exact RNG draw sequence of the original
// run.
func (c *Channel) Restore(st ChannelState) error {
	if len(st.DistM) != len(c.distM) || len(st.ShadowDB) != len(c.shadowDB) {
		return fmt.Errorf("wireless: state for %d clients, channel has %d", len(st.DistM), len(c.distM))
	}
	if st.Round < 0 {
		return fmt.Errorf("wireless: negative round %d in channel state", st.Round)
	}
	c.round = st.Round
	copy(c.distM, st.DistM)
	copy(c.shadowDB, st.ShadowDB)
	c.rng = roundRng(c.seed, c.round)
	return nil
}
