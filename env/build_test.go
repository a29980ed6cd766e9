package env_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"gsfl/env"
	"gsfl/internal/data"
	"gsfl/internal/parallel"
)

// worldDataSHA256 hashes every feature and label a built world trains
// and evaluates on: each client's shard in client order, then the test
// set, each sample as its features' float64 bits then its label, all
// little-endian.
func worldDataSHA256(w *env.Env) string {
	h := sha256.New()
	for _, ds := range w.Train {
		hashDataset(h, ds)
	}
	hashDataset(h, w.Test)
	return hex.EncodeToString(h.Sum(nil))
}

func hashDataset(h hash.Hash, ds data.Dataset) {
	var b [8]byte
	for i := 0; i < ds.Len(); i++ {
		x, y := ds.Sample(i)
		for _, v := range x {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		binary.LittleEndian.PutUint64(b[:], uint64(y))
		h.Write(b[:])
	}
}

// buildSpecs are the worlds the data pin and BenchmarkEnvBuild cover:
// the paper's configuration at the benchmark's 16 px and the
// catalogue's 32 px, and the CI-sized TestSpec.
func buildSpecs() []struct {
	name string
	spec env.Spec
} {
	paper16 := env.PaperSpec()
	paper16.ImageSize = 16
	return []struct {
		name string
		spec env.Spec
	}{
		{"paper16", paper16},
		{"paper32", env.PaperSpec()},
		{"test", env.TestSpec()},
	}
}

// TestBuildDataPinned holds the bytes of the generated datasets: the
// hashes were taken from the serial generator, before its sample
// rendering moved onto the worker pool, and must hold at every pool
// width.
func TestBuildDataPinned(t *testing.T) {
	want := map[string]string{
		"paper16": "518fa449b17991b7ac1f1ae4db207b73e0b8b986fe100609db32dc8dbbb31874",
		"test":    "8e14b604cab838de37fdd51e91efd8a95d2d25a3e4ae91a615056af104478481",
	}
	t.Cleanup(func() { parallel.SetWorkers(0) })
	for _, c := range buildSpecs() {
		pin, ok := want[c.name]
		if !ok {
			continue
		}
		for _, workers := range []int{1, 2} {
			parallel.SetWorkers(workers)
			w, err := env.Build(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			if got := worldDataSHA256(w); got != pin {
				t.Errorf("%s at %d workers: data sha256 %s, want %s", c.name, workers, got, pin)
			}
		}
	}
}

// BenchmarkEnvBuild times one Build per op — almost all of it dataset
// generation — at pool widths 1 and 2.
func BenchmarkEnvBuild(b *testing.B) {
	b.Cleanup(func() { parallel.SetWorkers(0) })
	for _, c := range buildSpecs() {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/w%d", c.name, workers), func(b *testing.B) {
				parallel.SetWorkers(workers)
				for i := 0; i < b.N; i++ {
					if _, err := env.Build(c.spec); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
