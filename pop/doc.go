// Package pop is the client-population engine: the layer that turns
// the paper's fixed N-client world into production-scale cross-device
// federated learning, where each round samples a small cohort from a
// population of up to millions of devices.
//
// A Population holds every member as fixed-width record-array state —
// next-toggle time, RNG cursors, sample stamp, availability bit, about
// 20 bytes — and derives a member's data shard and device profile from
// its id when it is bound. No member ever owns a live model or loader:
// sampled members mount onto the environment's physical client slots
// for one round (schemes.SlotBinding), so memory is O(population ·
// ~20 bytes) + O(slots · model).
//
// Availability is lazy. Each member's toggle times are the running sum
// of its own dwell stream, so a member is advanced only when the
// sampler draws it: a round costs O(draws × toggles since each drawn
// member was last seen), independent of population size, and building
// a population draws nothing per member. Only a census — Online, or a
// scrape of the gsfl_pop_online/offline gauges — walks all P members,
// and only when asked.
//
// Availability follows registered churn traces (RegisterTrace:
// "always-on", "onoff", "diurnal") and compute heterogeneity follows
// registered device profiles (RegisterProfile: "baseline", "low-end",
// "high-end") combined through a weighted mix. Every stochastic choice
// comes from a counter-based splitmix64 stream keyed on (seed, salt,
// member/round, cursor), making the cohort of round r a pure function
// of (Config, r): identical across worker counts, and replayable from
// the spec alone — resumed runs call BeginRound with the target round
// and the population replays the skipped rounds' draws, with no
// population state in the checkpoint.
//
// Most programs reach this package through gsfl/env: setting
// Spec.Population (with SampleFraction, AvailTrace, DeviceProfileMix)
// builds and attaches a Population, and the cohort-based schemes
// (gsfl, fl, sfl) draw their per-round client set from it.
package pop
