package data

import "math/rand"

// loaderSource is the generator behind a reset Loader: it produces
// math/rand.NewSource(seed)'s stream bit for bit, but its Seed is O(1).
//
// math/rand's source is an additive lagged-Fibonacci register of 607
// words. Its Seed fills all of them, three steps of the Lehmer
// generator x ← 48271·x mod (2³¹−1) per word, 1 841 steps in all; a
// loader shuffling 32 samples then draws just 31 values. Word i is
// ((x₀·48271^(21+3i)) << 40) ^ ((x₀·48271^(22+3i)) << 20) ^
// (x₀·48271^(23+3i)) ^ rngCooked[i], all mod 2³¹−1 before the shifts,
// where x₀ is the normalized seed: a function of x₀ and i alone. So
// Seed here only records x₀, and a word is computed from a table of
// powers the first time a draw reads it. Every draw reads the same two
// words as math/rand's and writes the same one.
type loaderSource struct {
	tap, feed int
	x0        uint64
	vec       [rngLen]uint64
	// filled marks the words of vec that hold this seed's stream (bit i
	// of word i/64); the others are still to be computed from x0.
	filled [(rngLen + 63) / 64]uint64
}

// The register's length and tap distance, and the Lehmer modulus and
// multiplier its seeding uses: math/rand's constants, fixed by the Go 1
// compatibility promise along with the stream they produce.
const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
	lehmerA  = 48271
)

var (
	// seedPowers[k] is 48271^k mod (2³¹−1), for every exponent a word
	// needs (21 through 23 + 3·606).
	seedPowers = lehmerPowers(23 + 3*(rngLen-1))
	// rngCooked is the constant math/rand mixes into every seeded word.
	rngCooked = recoverCooked()
)

func lehmerPowers(maxK int) []uint64 {
	p := make([]uint64, maxK+1)
	p[0] = 1
	for k := 1; k <= maxK; k++ {
		p[k] = p[k-1] * lehmerA % int32max
	}
	return p
}

// recoverCooked reads math/rand's rngCooked back out of its stream
// rather than copying the table. Draw j (1-based) adds the register's
// word 607−j (the tap) into word (334−j) mod 607 (the feed) and returns
// the sum, so the first 607 draws write every word once. For j ≥ 274
// the tap is a word an earlier draw, j−273, already wrote; for j ≤ 273
// it is still a seeded word, one of those the draws j ≥ 274 recovered.
// Subtracting gives all 607 seeded words, and XOR with this package's
// own seed part leaves rngCooked.
func recoverCooked() *[rngLen]uint64 {
	src := rand.NewSource(1).(rand.Source64)
	var out [rngLen + 1]uint64
	for j := 1; j <= rngLen; j++ {
		out[j] = src.Uint64()
	}
	var seeded [rngLen]uint64
	for j := rngLen; j > rngTap; j-- {
		seeded[(rngLen-rngTap-j+rngLen)%rngLen] = out[j] - out[j-rngTap]
	}
	for j := 1; j <= rngTap; j++ {
		seeded[rngLen-rngTap-j] = out[j] - seeded[rngLen-j]
	}
	cooked := new([rngLen]uint64)
	for i := range cooked {
		cooked[i] = seeded[i] ^ seedPart(1, i)
	}
	return cooked
}

// seedPart is word i's contribution from x0, before rngCooked.
func seedPart(x0 uint64, i int) uint64 {
	p := seedPowers[21+3*i:][:3]
	return (x0*p[0]%int32max)<<40 ^ (x0*p[1]%int32max)<<20 ^ x0*p[2]%int32max
}

func newLoaderSource(seed int64) *loaderSource {
	s := new(loaderSource)
	s.Seed(seed)
	return s
}

// Seed implements rand.Source, normalizing the seed as math/rand does.
func (s *loaderSource) Seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	clear(s.filled[:])
}

// word returns register word i, computing it on first use.
func (s *loaderSource) word(i int) uint64 {
	if bit := uint64(1) << (i % 64); s.filled[i/64]&bit == 0 {
		s.vec[i] = seedPart(s.x0, i) ^ rngCooked[i]
		s.filled[i/64] |= bit
	}
	return s.vec[i]
}

// Uint64 implements rand.Source64.
func (s *loaderSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return x
}

// Int63 implements rand.Source.
func (s *loaderSource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }
