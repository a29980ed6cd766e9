package tensor

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// A NumericMode names one floating-point contract for the GEMM engine.
//
// The default "exact" mode keeps the repo-wide determinism guarantee:
// every output element is accumulated in one accumulator, in ascending-k
// order, with separate multiply-then-add rounding — bit-identical at any
// worker count, on any platform, with or without vector hardware.
//
// A mode with Reassociate set is allowed to fuse multiplies into the
// accumulate (FMA) and to reassociate partial sums inside the
// micro-kernel. Results then differ from exact mode in the last few ulps
// (and may differ across CPUs with different vector hardware), but they
// are still deterministic on one machine at any worker count, because
// the per-element instruction sequence does not depend on how output
// rows are partitioned. Reassociating modes are pinned by golden-curve
// tolerance tests rather than bit-equality.
type NumericMode struct {
	// Name is "exact" or "fast".
	Name string
	// Reassociate permits FMA contraction and in-kernel reassociation.
	Reassociate bool
}

// DefaultNumericMode is the name of the bit-identical default mode.
const DefaultNumericMode = "exact"

// numericModes is the closed set, sorted by name: one row per GEMM
// micro-kernel (rowKernExact, rowKernFast).
var numericModes = [...]NumericMode{
	{Name: DefaultNumericMode},
	{Name: "fast", Reassociate: true},
}

var (
	numericMu sync.Mutex

	// numericReassoc mirrors the current mode's Reassociate flag for the
	// kernel hot path (read once per GEMM call, no lock).
	numericReassoc atomic.Bool
	// numericCurrent / numericAmbient are guarded by numericMu. Ambient
	// is what SetNumericMode installed (the process-wide CLI choice);
	// current may temporarily differ while AcquireNumericMode holds a
	// job-scoped mode.
	numericCurrent = numericModes[0]
	numericAmbient = numericModes[0]
)

// NumericModes returns the sorted names of the numeric modes.
func NumericModes() []string {
	names := make([]string, len(numericModes))
	for i, m := range numericModes {
		names[i] = m.Name
	}
	return names
}

// numericModeByName resolves a mode token; the empty token means the
// default mode, so specs that never mention numerics keep their
// byte-identical JSON and hashes.
func numericModeByName(name string) (NumericMode, error) {
	if name == "" {
		name = DefaultNumericMode
	}
	for _, m := range numericModes {
		if m.Name == name {
			return m, nil
		}
	}
	return NumericMode{}, fmt.Errorf("tensor: unknown numeric mode %q (registered: %v)", name, NumericModes())
}

// CanonicalNumericMode resolves a mode token to its name ("" to the
// default's).
func CanonicalNumericMode(name string) (string, error) {
	mode, err := numericModeByName(name)
	return mode.Name, err
}

// SetNumericMode installs the process-wide numeric mode (the CLI
// `-numeric` choice). It fails on unknown names and while a different
// mode is held by AcquireNumericMode.
func SetNumericMode(name string) error {
	mode, err := numericModeByName(name)
	if err != nil {
		return err
	}
	numericMu.Lock()
	defer numericMu.Unlock()
	if acquireCount > 0 && numericCurrent.Name != mode.Name {
		return fmt.Errorf("tensor: numeric mode %q is held by %d running job(s); cannot switch to %q",
			numericCurrent.Name, acquireCount, mode.Name)
	}
	numericAmbient = mode
	numericCurrent = mode
	numericReassoc.Store(mode.Reassociate)
	return nil
}

// CurrentNumericMode reports the numeric mode the kernels are running
// under right now.
func CurrentNumericMode() NumericMode {
	numericMu.Lock()
	defer numericMu.Unlock()
	return numericCurrent
}

var (
	acquireCount int
	acquireCond  = sync.NewCond(&numericMu)
)

// AcquireNumericMode pins the process numeric mode to name for the
// duration of one job and returns the release function. The mode is a
// process-global kernel switch, so concurrent holders of the same mode
// proceed together (a counting lock) while a holder of a different mode
// blocks until the current holders release. This lets a sweep scheduler
// run a mixed exact/fast grid with full concurrency inside each mode
// and a barrier only at mode switches. When the last holder releases,
// the ambient SetNumericMode choice is restored.
func AcquireNumericMode(name string) (release func(), err error) {
	mode, err := numericModeByName(name)
	if err != nil {
		return nil, err
	}
	numericMu.Lock()
	defer numericMu.Unlock()
	for acquireCount > 0 && numericCurrent.Name != mode.Name {
		acquireCond.Wait()
	}
	acquireCount++
	numericCurrent = mode
	numericReassoc.Store(mode.Reassociate)
	var once sync.Once
	return func() {
		once.Do(func() {
			numericMu.Lock()
			acquireCount--
			if acquireCount == 0 {
				numericCurrent = numericAmbient
				numericReassoc.Store(numericAmbient.Reassociate)
				acquireCond.Broadcast()
			}
			numericMu.Unlock()
		})
	}, nil
}
