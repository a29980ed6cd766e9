package tensor

import (
	"strings"
	"testing"
	"time"
)

func TestNumericModeRegistry(t *testing.T) {
	names := NumericModes()
	has := func(want string) bool {
		for _, n := range names {
			if n == want {
				return true
			}
		}
		return false
	}
	if !has("exact") || !has("fast") {
		t.Fatalf("built-in modes missing from registry: %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("NumericModes not sorted: %v", names)
		}
	}

	if got, err := CanonicalNumericMode(""); err != nil || got != DefaultNumericMode {
		t.Fatalf("CanonicalNumericMode(\"\") = %q, %v; want %q", got, err, DefaultNumericMode)
	}
	if got, err := CanonicalNumericMode("fast"); err != nil || got != "fast" {
		t.Fatalf("CanonicalNumericMode(fast) = %q, %v", got, err)
	}
	if _, err := CanonicalNumericMode("no-such-mode"); err == nil || !strings.Contains(err.Error(), "no-such-mode") {
		t.Fatalf("unknown mode error = %v", err)
	}
}

func TestSetNumericMode(t *testing.T) {
	t.Cleanup(func() {
		if err := SetNumericMode(DefaultNumericMode); err != nil {
			t.Fatal(err)
		}
	})
	if err := SetNumericMode("fast"); err != nil {
		t.Fatal(err)
	}
	if cur := CurrentNumericMode(); cur.Name != "fast" || !cur.Reassociate {
		t.Fatalf("CurrentNumericMode = %+v after SetNumericMode(fast)", cur)
	}
	if err := SetNumericMode("bogus"); err == nil {
		t.Fatal("SetNumericMode accepted an unknown mode")
	}
	if err := SetNumericMode(""); err != nil {
		t.Fatal(err)
	}
	if cur := CurrentNumericMode(); cur.Name != DefaultNumericMode {
		t.Fatalf("empty name must restore the default, got %q", cur.Name)
	}
}

// TestAcquireNumericMode pins the counting-lock semantics: same-mode
// holders share, a different mode blocks until the last holder releases,
// release restores the ambient choice, and releasing twice is harmless.
func TestAcquireNumericMode(t *testing.T) {
	rel1, err := AcquireNumericMode("fast")
	if err != nil {
		t.Fatal(err)
	}
	if cur := CurrentNumericMode(); cur.Name != "fast" {
		t.Fatalf("mode = %q while fast is held", cur.Name)
	}
	// A second same-mode holder must not block.
	rel2, err := AcquireNumericMode("fast")
	if err != nil {
		t.Fatal(err)
	}
	// Switching the ambient mode out from under the holders must fail.
	if err := SetNumericMode("exact"); err == nil {
		t.Fatal("SetNumericMode(exact) succeeded while fast is held")
	}

	// An exact-mode acquirer must block until both fast holders release.
	acquired := make(chan struct{})
	go func() {
		rel, err := AcquireNumericMode("") // empty = default = exact
		if err != nil {
			t.Error(err)
		}
		close(acquired)
		rel()
	}()
	select {
	case <-acquired:
		t.Fatal("exact acquire proceeded while fast was held")
	case <-time.After(20 * time.Millisecond):
	}
	rel1()
	rel1() // double release must be a no-op, not a spurious count decrement
	select {
	case <-acquired:
		t.Fatal("exact acquire proceeded while one fast holder remained")
	case <-time.After(20 * time.Millisecond):
	}
	rel2()
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("exact acquire still blocked after every fast holder released")
	}
	if cur := CurrentNumericMode(); cur.Name != DefaultNumericMode {
		t.Fatalf("ambient mode not restored: %q", cur.Name)
	}
}
