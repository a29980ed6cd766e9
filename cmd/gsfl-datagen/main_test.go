package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gsfl/env"
)

func TestRunPNG(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{"-per-class", "1", "-size", "16", "-format", "png", "-out", dir})
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	src, err := env.NewDataset(env.DefaultDataset, env.DataConfig{ImageSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != src.Classes() {
		t.Fatalf("wrote %d PNGs, want %d", len(entries), src.Classes())
	}
}

func TestRunCSV(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{"-per-class", "1", "-size", "8", "-format", "csv", "-out", dir})
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "gtsrb_synthetic.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(b) == 0 {
		t.Fatal("empty CSV")
	}
}

func TestRunRejectsBadFormat(t *testing.T) {
	if err := run([]string{"-format", "bogus", "-out", t.TempDir()}); err == nil {
		t.Fatal("expected error")
	}
}

func TestRunDeterministicPNGBytes(t *testing.T) {
	d1, d2 := t.TempDir(), t.TempDir()
	for _, d := range []string{d1, d2} {
		if err := run([]string{"-per-class", "1", "-size", "8", "-out", d, "-seed", "5"}); err != nil {
			t.Fatal(err)
		}
	}
	f1, err := os.ReadFile(filepath.Join(d1, "class00_sample00_label00.png"))
	if err != nil {
		t.Fatal(err)
	}
	f2, err := os.ReadFile(filepath.Join(d2, "class00_sample00_label00.png"))
	if err != nil {
		t.Fatal(err)
	}
	if string(f1) != string(f2) {
		t.Fatal("same seed produced different PNGs")
	}
}

func TestRunRejectsNonPositivePerClass(t *testing.T) {
	for _, n := range []string{"0", "-3"} {
		dir := filepath.Join(t.TempDir(), "out")
		err := run([]string{"-per-class", n, "-format", "csv", "-out", dir})
		if err == nil || !strings.Contains(err.Error(), "-per-class") {
			t.Fatalf("-per-class %s: error %v, want one naming -per-class", n, err)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Fatalf("-per-class %s created %s", n, dir)
		}
	}
}

// TestRunOutputBytesPinned holds what -per-class 2 -size 8 writes in
// both formats: the sha256 over each file's name and bytes, in name
// order, as the per-class Sample loop the command used to run wrote them.
func TestRunOutputBytesPinned(t *testing.T) {
	want := map[string]string{
		"png": "4819eeae0499825aec02c600c07800a4d1e48664c55d0f0c397d73b0b49e9bf5",
		"csv": "4fd727b323414ba0c95290ea4ca5bbbfa181e0e99bf66a6e923bede5db49a357",
	}
	for format, pin := range want {
		dir := t.TempDir()
		if err := run([]string{"-per-class", "2", "-size", "8", "-format", format, "-out", dir}); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir) // sorted by name
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			h.Write([]byte(e.Name()))
			h.Write(b)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != pin {
			t.Errorf("%s output sha256 %s, want %s", format, got, pin)
		}
	}
}
