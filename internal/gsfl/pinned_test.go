package gsfl_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"gsfl/env"
	"gsfl/internal/schemes"
	"gsfl/internal/simnet"
	"gsfl/sim"
)

// pinnedRounds is how many rounds each row trains and hashes.
const pinnedRounds = 6

// pinnedHashes are the per-round hashes of every TestPinnedRounds row,
// recorded on the commit before this file's engine took over sl and sfl
// (1c129f3, three trainers); the fl rows were recorded while fl still had
// its own trainer.
var pinnedHashes = map[string][pinnedRounds]uint64{
	"gsfl/M=2":                   {0x8f57bac6eebc5dbf, 0x284cd75792aa40e9, 0x0f442434f4d10397, 0xf6d4b5c2913260ef, 0x7f8b3dc4931f5b78, 0x2dde67c2ed0d51b2},
	"gsfl/M=2/quant":             {0x9aa462b7057ee43e, 0x8d0c1e16bf298b32, 0x860a419ec2011e5f, 0x5137191625b1fe44, 0x596217dc280a7063, 0x6c692405f55077a5},
	"gsfl/M=1":                   {0xc6573f335afa530c, 0xef8614611d3852ba, 0xee3bab5c3602a5fe, 0x1538e292391a09fd, 0x237bf2d167bd9012, 0x7e7f99560b438c4f},
	"gsfl/M=1/quant":             {0xd10d756b98b47cd0, 0xda265dfb17d8dd98, 0x7da7a2500ed20dfa, 0x4f386ddeb8032c18, 0x3db699116f361ac7, 0x1233e191fab31ebc},
	"gsfl/M=N":                   {0x7d3da6ab394065c8, 0x685aa90712c2fa5f, 0x81bd2a393ca20ed8, 0x56d4847645f84a46, 0x56a7aaf54e7b50cd, 0x1fae329c5607a50f},
	"gsfl/M=N/quant":             {0x2d6f7b2d3e08f592, 0x6370083deaab1135, 0x19cf4697fb56bfad, 0x830546c3dbfc2195, 0xa4a18fbae8ca1de6, 0x688111da373cdd69},
	"gsfl/pipelined":             {0x0f32ef2d11601895, 0x53f076499128673c, 0x993d5c92187f546d, 0x750cc966feacabc1, 0x0562ec6daeeec9cc, 0x7a52ebab09cb1fbc},
	"gsfl/dropout":               {0x0309b1b6208ba4b8, 0xf6facb0f6a3e2bab, 0x8df1fbba328c1abe, 0x10f9e0e40fea0bd5, 0xf5702a9b8938dfaf, 0x2c6136c7f3941a4d},
	"gsfl/population":            {0x33b75bc56c33c421, 0x5a369f3199fb5407, 0x5a73367efe79a3e7, 0xee01406deb39e88e, 0xb6a8bb040c6b0c14, 0x12aa241b14f4466f},
	"gsfl/M=N/population":        {0x98d1abb60088702f, 0x40f4fb95df6ed6d5, 0x22e6f46e5fdb4877, 0xe06e184d33dab227, 0xc69789231d5ac964, 0x8476ebb7606675ba},
	"sl/uniform":                 {0x795d9262455e3045, 0xcbf406035671775e, 0x0c13f78c3b9622bf, 0xa58f092970aa0bef, 0x5349d279bfd56486, 0xdf8de9e6e67788aa},
	"sl/uniform/quant":           {0xae742ec643886af0, 0x83685e8ff8a42410, 0xa37bf9447f3c98ca, 0xbf23ffdb5a19d7f4, 0x8a1eb7cf133e5788, 0x2f62bce3eeb0ab2e},
	"sl/proportional-fair":       {0x795d9262455e3045, 0xcbf406035671775e, 0x0c13f78c3b9622bf, 0xa58f092970aa0bef, 0x5349d279bfd56486, 0xdf8de9e6e67788aa},
	"sl/proportional-fair/quant": {0xae742ec643886af0, 0x83685e8ff8a42410, 0xa37bf9447f3c98ca, 0xbf23ffdb5a19d7f4, 0x8a1eb7cf133e5788, 0x2f62bce3eeb0ab2e},
	"sl/latency-min":             {0x795d9262455e3045, 0xcbf406035671775e, 0x0c13f78c3b9622bf, 0xa58f092970aa0bef, 0x5349d279bfd56486, 0xdf8de9e6e67788aa},
	"sl/latency-min/quant":       {0xae742ec643886af0, 0x83685e8ff8a42410, 0xa37bf9447f3c98ca, 0xbf23ffdb5a19d7f4, 0x8a1eb7cf133e5788, 0x2f62bce3eeb0ab2e},
	"sfl":                        {0x91ec71c175325174, 0x11dc6a45a6698251, 0x03b2a1f62a25183e, 0x68054e8ffad074ad, 0x8bae8fba45e858be, 0xda9faf1764bfed26},
	"sfl/quant":                  {0x64c30abee9802054, 0x860154fb35af0263, 0xbb2bbf17299b2f0b, 0xdad97eb6457f2ce4, 0xe046f865ea1d9392, 0x594908e0ee32028b},
	"sfl/population":             {0xfbd4d0e3ce89f2a3, 0x6461d88eeb37dbb7, 0xd3d031f01275dc19, 0x19ab6dce517631c0, 0xfd891a27dede188d, 0x0e43fab827f1470f},
	"fl":                         {0x4aae1708c7dad32f, 0x59221e2e43c51851, 0xed09ca7b06792aab, 0x04a5c00b7f899be5, 0x798848b25a357a07, 0x37c63a08e7e52fc1},
	"fl/quant":                   {0x4aae1708c7dad32f, 0x59221e2e43c51851, 0xed09ca7b06792aab, 0x04a5c00b7f899be5, 0x798848b25a357a07, 0x37c63a08e7e52fc1},
	"fl/proportional-fair":       {0x56a281121de74cfb, 0x78c658774c96aca9, 0xfc0d702842a8debf, 0x2e031ece5cdd0613, 0x03c4a0d186c1252e, 0xbf7839fec3ff2dc0},
	"fl/latency-min":             {0xd72420139d931e8a, 0x890a0dbc41d62d50, 0xbfd535a598c847e3, 0x2d131c678309c62f, 0xc6daedcd2787e805, 0xea728a8219ad857d},
	"fl/population":              {0x074ac61e143f3036, 0x072b29109f87cda0, 0x3def4971f4612716, 0xf84fb945d1431266, 0xe83d14b3d3eed886, 0x379a4f388449c543},
	"fl/options-ignored":         {0x4aae1708c7dad32f, 0x59221e2e43c51851, 0xed09ca7b06792aab, 0x04a5c00b7f899be5, 0x798848b25a357a07, 0x37c63a08e7e52fc1},
}

// roundHash folds the float bits of one round's ledger (every
// component, then the total) and of the evaluation after it.
func roundHash(led *simnet.Ledger, ev schemes.Eval) uint64 {
	h := fnv.New64a()
	put := func(v float64) {
		b := math.Float64bits(v)
		var buf [8]byte
		for i := range buf {
			buf[i] = byte(b >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, c := range simnet.Components() {
		put(led.Get(c))
	}
	put(led.Total())
	put(ev.Loss)
	put(ev.Accuracy)
	return h.Sum64()
}

// population puts the pinned rows behind a sampled population whose
// cohort is smaller than the fleet.
func population(s *env.Spec) {
	s.Population = 4 * s.Clients
	s.SampleFraction = 0.25
	s.AvailTrace = "onoff"
	s.Alpha = 0.1
}

// TestPinnedRounds holds the engine's schemes to the exact latency
// ledgers and evaluations recorded before sl, sfl and fl became
// registrations of this package's engine: pricing order is bit-visible
// through the fading RNG, so any reordering of transfers, allocations
// or aggregation changes a hash.
func TestPinnedRounds(t *testing.T) {
	quant := func(s *env.Spec) { s.Hyper.QuantizeTransfers = true }
	groups := func(m int) func(*env.Spec) { return func(s *env.Spec) { s.Groups = m } }
	alloc := func(name string) func(*env.Spec) { return func(s *env.Spec) { s.Alloc = name } }
	// fl takes no options: dropout, pipelining and the grouping strategy
	// in the spec must not reach it.
	ignored := func(s *env.Spec) {
		s.DropoutProb = 0.3
		s.Pipelined = true
		s.Strategy = "random"
	}
	rows := []struct {
		name   string
		scheme string
		mods   []func(*env.Spec)
	}{
		{"gsfl/M=2", "gsfl", nil},
		{"gsfl/M=2/quant", "gsfl", []func(*env.Spec){quant}},
		{"gsfl/M=1", "gsfl", []func(*env.Spec){groups(1)}},
		{"gsfl/M=1/quant", "gsfl", []func(*env.Spec){groups(1), quant}},
		{"gsfl/M=N", "gsfl", []func(*env.Spec){groups(6)}},
		{"gsfl/M=N/quant", "gsfl", []func(*env.Spec){groups(6), quant}},
		{"gsfl/pipelined", "gsfl", []func(*env.Spec){func(s *env.Spec) { s.Pipelined = true }}},
		{"gsfl/dropout", "gsfl", []func(*env.Spec){func(s *env.Spec) { s.DropoutProb = 0.3 }}},
		{"gsfl/population", "gsfl", []func(*env.Spec){population}},
		{"gsfl/M=N/population", "gsfl", []func(*env.Spec){groups(6), population}},
		{"sl/uniform", "sl", []func(*env.Spec){alloc("uniform")}},
		{"sl/uniform/quant", "sl", []func(*env.Spec){alloc("uniform"), quant}},
		{"sl/proportional-fair", "sl", []func(*env.Spec){alloc("proportional-fair")}},
		{"sl/proportional-fair/quant", "sl", []func(*env.Spec){alloc("proportional-fair"), quant}},
		{"sl/latency-min", "sl", []func(*env.Spec){alloc("latency-min")}},
		{"sl/latency-min/quant", "sl", []func(*env.Spec){alloc("latency-min"), quant}},
		{"sfl", "sfl", nil},
		{"sfl/quant", "sfl", []func(*env.Spec){quant}},
		{"sfl/population", "sfl", []func(*env.Spec){population}},
		{"fl", "fl", nil},
		{"fl/quant", "fl", []func(*env.Spec){quant}},
		{"fl/proportional-fair", "fl", []func(*env.Spec){alloc("proportional-fair")}},
		{"fl/latency-min", "fl", []func(*env.Spec){alloc("latency-min")}},
		{"fl/population", "fl", []func(*env.Spec){population}},
		{"fl/options-ignored", "fl", []func(*env.Spec){ignored}},
	}
	ctx := context.Background()
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			spec := env.TestSpec()
			for _, mod := range row.mods {
				mod(&spec)
			}
			world, err := env.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			opts, err := spec.SchemeOptions()
			if err != nil {
				t.Fatal(err)
			}
			tr, err := schemes.NewByName(row.scheme, world, opts)
			if err != nil {
				t.Fatal(err)
			}
			var got [pinnedRounds]uint64
			for r := range got {
				led, err := tr.Round(ctx)
				if err != nil {
					t.Fatalf("round %d: %v", r+1, err)
				}
				ev, err := tr.Evaluate(ctx)
				if err != nil {
					t.Fatalf("evaluating after round %d: %v", r+1, err)
				}
				got[r] = roundHash(led, ev)
			}
			if want := pinnedHashes[row.name]; got != want {
				lit := ""
				for _, h := range got {
					lit += fmt.Sprintf("%#016x, ", h)
				}
				t.Fatalf("ledger/eval bits moved\n\t%q: {%s},\nwant %#016x", row.name, lit, want)
			}
		})
	}
}

// pinnedCheckpoints are the sha256 digests of the checkpoint a Runner
// hands its observers after round 3, in format v3, recorded while fl
// still had its own trainer: the state layout, not just the numerics,
// must not move. Format v4 is v3 with the run's ledger after elapsed,
// so a v4 file less its ledger, under v3's version number, must still
// hash to them; pinnedCheckpointsV4 hold the v4 files whole.
var (
	pinnedCheckpoints = map[string]string{
		"fl":            "625b1d186ea19b20ad033bd7c5beb48396c3fb31a7cbd4a835ca53f55467b00d",
		"fl/population": "8b884452651e262a4d4c512e167b67aca39f0ac9fe4e8dd61dc43ed1f8baf026",
	}
	pinnedCheckpointsV4 = map[string]string{
		"fl":            "8ebbb62d3a67d01a33433d8e2a399e401dc9a275b2024342c2da5850eb67148f",
		"fl/population": "84ded11a9484d379ded9802424ca093154f26e8e3bbcf7f83ae5879db99a352f",
	}
)

// asV3 is a v4 checkpoint in format v3: version 3, no ledger. The
// ledger sits past the magic and version (6), the scheme name, the
// group count (8), the strategy name, the rest of the options (9), the
// environment hash (8), two cadences (8), the round (8) and elapsed (8).
func asV3(t *testing.T, v4 []byte) []byte {
	t.Helper()
	if len(v4) < 6 || binary.LittleEndian.Uint16(v4[4:]) != 4 {
		t.Fatalf("not a v4 checkpoint: % x", v4[:min(len(v4), 6)])
	}
	strategy := 6 + 4 + int(binary.LittleEndian.Uint32(v4[6:])) + 8
	ledger := strategy + 4 + int(binary.LittleEndian.Uint32(v4[strategy:])) + 9 + 8 + 8 + 8 + 8
	v3 := append(append([]byte(nil), v4[:ledger]...), v4[ledger+8*len(simnet.Components()):]...)
	binary.LittleEndian.PutUint16(v3[4:], 3)
	return v3
}

func TestPinnedCheckpoints(t *testing.T) {
	rows := []struct {
		name   string
		scheme string
		mods   []func(*env.Spec)
	}{
		{"fl", "fl", nil},
		{"fl/population", "fl", []func(*env.Spec){population}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			spec := env.TestSpec()
			for _, mod := range row.mods {
				mod(&spec)
			}
			world, err := env.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			opts, err := spec.SchemeOptions()
			if err != nil {
				t.Fatal(err)
			}
			tr, err := sim.New(row.scheme, world, opts)
			if err != nil {
				t.Fatal(err)
			}
			var got, gotV3 string
			_, err = sim.NewRunner(tr, sim.WithRounds(3), sim.WithCheckpointEvery(3),
				sim.WithObserver(sim.ObserverFunc(func(e sim.RoundEvent) {
					if e.Round == 3 {
						got = fmt.Sprintf("%x", sha256.Sum256(e.Checkpoint))
						gotV3 = fmt.Sprintf("%x", sha256.Sum256(asV3(t, e.Checkpoint)))
					}
				}))).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if want := pinnedCheckpoints[row.name]; gotV3 != want {
				t.Fatalf("checkpoint bytes moved (in format v3)\n\t%q: %q,\nwant %q", row.name, gotV3, want)
			}
			if want := pinnedCheckpointsV4[row.name]; got != want {
				t.Fatalf("checkpoint bytes moved\n\t%q: %q,\nwant %q", row.name, got, want)
			}
		})
	}
}
