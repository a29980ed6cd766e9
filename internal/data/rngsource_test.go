package data

import (
	"math"
	"math/rand"
	"testing"
)

// streamSeeds are the seeds the source's stream is checked at: zero
// (which math/rand replaces), ±1, the replacement itself, multiples of
// the Lehmer modulus (which normalize to zero), the extremes of int64,
// and random ones.
func streamSeeds() []int64 {
	seeds := []int64{0, 1, -1, 89482311, -89482311, int32max, -int32max, 2 * int32max,
		5 * int32max, -3 * int32max, int32max - 1, int32max + 1, math.MinInt64, math.MaxInt64}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 16; i++ {
		seeds = append(seeds, int64(rng.Uint64()))
	}
	return seeds
}

// streamDraws crosses the register's wrap three times over.
const streamDraws = 3*rngLen + 50

// TestLoaderSourceMatchesMathRand: Uint64, Int63 and Shuffle through
// the loader's source give math/rand.NewSource's values, for a fresh
// source and for one re-seeded after a partial stream.
func TestLoaderSourceMatchesMathRand(t *testing.T) {
	reused := newLoaderSource(5)
	for _, seed := range streamSeeds() {
		for _, src := range []*loaderSource{newLoaderSource(seed), reused} {
			src.Seed(seed)
			want := rand.NewSource(seed).(rand.Source64)
			for d := 0; d < streamDraws; d++ {
				if d%2 == 0 {
					if got, w := src.Uint64(), want.Uint64(); got != w {
						t.Fatalf("seed %d: draw %d: Uint64 %#x, want %#x", seed, d, got, w)
					}
				} else if got, w := src.Int63(), want.Int63(); got != w {
					t.Fatalf("seed %d: draw %d: Int63 %#x, want %#x", seed, d, got, w)
				}
			}
			src.Seed(seed ^ 0x5DEECE66D) // leave it part-way for the next seed
			for d := 0; d < 100; d++ {
				src.Uint64()
			}
		}

		got, want := rand.New(newLoaderSource(seed)), rand.New(rand.NewSource(seed))
		for _, n := range []int{0, 1, 2, 32, 607, streamDraws} {
			a, b := identity(n), identity(n)
			got.Shuffle(n, func(i, j int) { a[i], a[j] = a[j], a[i] })
			want.Shuffle(n, func(i, j int) { b[i], b[j] = b[j], b[i] })
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("seed %d: Shuffle(%d): position %d holds %d, want %d", seed, n, i, a[i], b[i])
				}
			}
		}
	}
}

func identity(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// TestLoaderSourceSeedTouchesNoWord: Seed computes no register word;
// a shuffle of 32 samples computes at most two per draw.
func TestLoaderSourceSeedTouchesNoWord(t *testing.T) {
	src := newLoaderSource(3)
	filled := func() int {
		n := 0
		for _, w := range src.filled {
			for ; w != 0; w &= w - 1 {
				n++
			}
		}
		return n
	}
	if n := filled(); n != 0 {
		t.Fatalf("Seed computed %d words", n)
	}
	order := identity(32)
	rand.New(src).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	if n := filled(); n == 0 || n > 2*31 {
		t.Fatalf("a 32-sample shuffle computed %d words, want 1..62", n)
	}
	src.Seed(4)
	if n := filled(); n != 0 {
		t.Fatalf("re-seeding left %d words computed", n)
	}
}
