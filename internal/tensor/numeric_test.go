package tensor

import (
	"testing"
	"time"
)

// TestAcquireNumericMode pins the counting-lock semantics: same-mode
// holders share, the other mode blocks until the last holder releases,
// the last release restores the exact engine, releasing twice is
// harmless, and an unknown name is an error.
func TestAcquireNumericMode(t *testing.T) {
	if _, err := AcquireNumericMode("bogus"); err == nil {
		t.Fatal("AcquireNumericMode accepted an unknown mode")
	}
	rel1, err := AcquireNumericMode("fast")
	if err != nil {
		t.Fatal(err)
	}
	if !numericReassoc.Load() {
		t.Fatal("the engine is not reassociating while fast is held")
	}
	// A second same-mode holder must not block.
	rel2, err := AcquireNumericMode("fast")
	if err != nil {
		t.Fatal(err)
	}

	// An exact-mode acquirer must block until both fast holders release.
	acquired := make(chan struct{})
	go func() {
		rel, err := AcquireNumericMode("") // empty = exact
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
	if numericReassoc.Load() {
		t.Fatal("the exact engine was not restored after the last release")
	}
}
