package sim

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"gsfl/env"
	"gsfl/internal/model"
	"gsfl/internal/schemes/schemestest"
	"gsfl/internal/testutil"
)

// realCheckpoint trains scheme for two rounds (momentum buffers exist,
// a curve point is recorded) and returns the file its Runner wrote. The
// world is the fixture env narrowed to two clients and a two-unit hidden
// layer: the file has every part a paper-sized one has in about a
// kilobyte, which is what lets a test visit every offset of it and a
// fuzzer mutate it thousands of times a second.
func realCheckpoint(tb testing.TB, scheme string) []byte {
	tb.Helper()
	world := schemestest.NewEnv(31, 2, 16)
	world.Arch = model.MLP(schemestest.BlobDim, 2, schemestest.BlobClasses)
	tr, err := New(scheme, world, Options{Groups: 2})
	if err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(tb.TempDir(), "run.ckpt")
	if _, err := NewRunner(tr, WithRounds(2), WithCheckpointEvery(2), WithCheckpointPath(path)).Run(context.Background()); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// retiredCheckpoint reads a file an earlier binary wrote:
// checkpoint_v1.gob (the gob stream) or checkpoint_v2.bin (the binary
// layout whose strategy was an integer; realCheckpoint's gsfl file as
// the commit before format v3 wrote it).
func retiredCheckpoint(tb testing.TB, name string) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzLoadCheckpoint feeds the checkpoint decoder — what Resume,
// PeekCheckpoint and through them every orchestrator run on a file they
// did not write — arbitrary bytes: an error or a checkpoint, never a
// panic.
func FuzzLoadCheckpoint(f *testing.F) {
	for _, scheme := range Schemes() {
		f.Add(realCheckpoint(f, scheme))
	}
	f.Add(retiredCheckpoint(f, "checkpoint_v1.gob"))
	f.Add(retiredCheckpoint(f, "checkpoint_v2.bin"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		cf, err := decodeCheckpoint(data)
		if err == nil && (cf.Round <= 0 || cf.State == nil) {
			t.Fatalf("accepted a checkpoint at round %d with state %v", cf.Round, cf.State)
		}
	})
}

// decodeBounded decodes data and fails the test when doing so allocated
// more than a small multiple of the input: a claimed length must be
// refused before it is believed.
func decodeBounded(t *testing.T, what string, data []byte) error {
	t.Helper()
	before := heapAllocated()
	_, err := decodeCheckpoint(data)
	if got, limit := heapAllocated()-before, uint64(4*len(data)+64<<10); got > limit && !testutil.RaceEnabled {
		t.Fatalf("%s: decoding %d bytes allocated %d, want <= %d", what, len(data), got, limit)
	}
	return err
}

// heapAllocated returns the bytes this process has allocated so far.
func heapAllocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func TestLoadCheckpointHostileInput(t *testing.T) {
	for _, scheme := range Schemes() {
		t.Run(scheme, func(t *testing.T) {
			file := realCheckpoint(t, scheme)
			if err := decodeBounded(t, "the real file", file); err != nil {
				t.Fatal(err)
			}
			for i := range file {
				if _, err := decodeCheckpoint(file[:i]); err == nil {
					t.Fatalf("accepted the file truncated at %d of %d bytes", i, len(file))
				}
			}
			if err := decodeBounded(t, "trailing garbage", append(file[:len(file):len(file)], 0)); err == nil ||
				!strings.Contains(err.Error(), "trailing") {
				t.Fatalf("trailing garbage: %v", err)
			}
			// Every byte of the file raised to 0xFF in turn, which puts every
			// length, count, rank and dimension past the bytes that remain
			// (a little-endian field's top byte is one of them). Raising a
			// float or a cursor leaves a readable file; raising anything
			// that sizes a read must be an error before it is an allocation.
			mut := append([]byte(nil), file...)
			for i := range mut {
				mut[i] = 0xFF
				_ = decodeBounded(t, fmt.Sprintf("byte %d raised", i), mut)
				mut[i] = file[i]
			}
		})
	}

	file := realCheckpoint(t, "sl")
	patched := func(off int, b ...byte) []byte {
		mut := append([]byte(nil), file...)
		copy(mut[off:], b)
		return mut
	}
	// Past the header (6) come the scheme name, the group count (8) and
	// the strategy name; past that the rest of opts (9), env hash (8),
	// two cadences (8), round (8), elapsed (8), then the curve's point
	// count.
	strategy := 6 + 4 + int(binary.LittleEndian.Uint32(file[6:])) + 8
	pointCount := strategy + 4 + int(binary.LittleEndian.Uint32(file[strategy:])) + 9 + 8 + 8 + 8 + 8
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"empty file", nil, "no header"},
		{"wrong magic", patched(0, 'G', 'S', 'F', 'L'), "not a checkpoint: magic"},
		{"text", []byte("not a checkpoint"), "not a checkpoint: magic"},
		{"later version", patched(4, 4, 0), "format v4 is not readable"},
		{"parent-format gob file", retiredCheckpoint(t, "checkpoint_v1.gob"), "sim: checkpoint format v1 is not readable by this version (rerun from round 0)"},
		{"parent-format v2 file", retiredCheckpoint(t, "checkpoint_v2.bin"), "sim: checkpoint format v2 is not readable by this version, which reads v3"},
		{"scheme name length past the file", patched(6, 0xFF, 0xFF, 0xFF, 0x7F), "string length"},
		{"strategy name length past the file", patched(strategy, 0xFF, 0xFF, 0xFF, 0x7F), "string length"},
		{"curve point count past the file", patched(pointCount, 0xFF, 0xFF, 0xFF, 0xFF), "curve points"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := decodeBounded(t, tc.name, tc.data)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// saver returns one steady-state save of scheme's state at
// env.TestSpec(), after two trained rounds, and the bytes it encodes.
func saver(tb testing.TB, scheme string) (save func(), size int) {
	tb.Helper()
	spec := env.TestSpec()
	world, err := env.Build(spec)
	if err != nil {
		tb.Fatal(err)
	}
	opts, err := spec.SchemeOptions()
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := New(scheme, world, opts)
	if err != nil {
		tb.Fatal(err)
	}
	r := NewRunner(tr, WithRounds(2), WithEvalEvery(2), WithCheckpointEvery(2),
		WithCheckpointPath(filepath.Join(tb.TempDir(), "run.ckpt")))
	curve, err := r.Run(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	save = func() {
		buf, err := r.saveCheckpoint(2, 1, curve)
		if err != nil {
			tb.Fatal(err)
		}
		size = len(buf)
	}
	save()
	return save, size
}

// TestSaveCheckpointAllocsIndependentOfState: a save encodes from the
// live trainer into the Runner's buffer, so what it allocates is what
// replacing a file allocates — the same for sl's 17 k floats as for
// sfl's 58 k.
func TestSaveCheckpointAllocsIndependentOfState(t *testing.T) {
	allocs := map[string]float64{}
	for _, scheme := range []string{"sl", "sfl"} {
		save, size := saver(t, scheme)
		testutil.MaxAllocs(t, scheme+" save", 24, save)
		allocs[scheme] = testing.AllocsPerRun(10, save)

		const runs = 20
		before := heapAllocated()
		for i := 0; i < runs; i++ {
			save()
		}
		perSave := (heapAllocated() - before) / runs
		t.Logf("%s: %d-byte checkpoint, %.0f allocs and %d bytes allocated a save", scheme, size, allocs[scheme], perSave)
		if perSave > 8<<10 && !testutil.RaceEnabled {
			t.Errorf("%s: a save allocates %d bytes, want <= 8 KiB", scheme, perSave)
		}
	}
	if allocs["sl"] != allocs["sfl"] && !testutil.RaceEnabled {
		t.Errorf("allocations a save grow with the state: sl %.0f, sfl %.0f", allocs["sl"], allocs["sfl"])
	}
}

func BenchmarkSaveCheckpoint(b *testing.B) {
	for _, scheme := range Schemes() {
		b.Run(scheme, func(b *testing.B) {
			save, size := saver(b, scheme)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				save()
			}
		})
	}
}
