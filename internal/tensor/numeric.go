package tensor

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// The GEMM engine has two floating-point contracts. The default,
// "exact", keeps the repo-wide determinism guarantee: every output
// element is accumulated in one accumulator, in ascending-k order, with
// separate multiply-then-add rounding — bit-identical at any worker
// count, on any platform, with or without vector hardware.
//
// "fast" lets the micro-kernel fuse multiplies into the accumulate
// (FMA). Results then differ from exact mode in the last few ulps (and
// may differ across CPUs), but stay deterministic on one machine at any
// worker count, because the per-element instruction sequence does not
// depend on how output rows are partitioned. Nothing that configures a
// run selects it: the FMA kernel is reached only through
// AcquireNumericMode, for the benchmark's probe of it.

var (
	numericMu   sync.Mutex
	numericCond = sync.NewCond(&numericMu)
	// numericHolders counts the AcquireNumericMode holders; it is
	// guarded by numericMu.
	numericHolders int
	// numericReassoc is set while "fast" is held, for the kernel hot
	// path (read once per GEMM call, no lock).
	numericReassoc atomic.Bool
)

// AcquireNumericMode pins the GEMM engine to the named mode ("exact" or
// "", or "fast") and returns the release function. The mode is
// process-global, so holders of the same mode proceed together (a
// counting lock) while a holder of the other mode blocks until the
// current holders release. When the last holder releases, the engine is
// exact again. Releasing twice is harmless.
func AcquireNumericMode(name string) (release func(), err error) {
	var fast bool
	switch name {
	case "", "exact":
	case "fast":
		fast = true
	default:
		return nil, fmt.Errorf("tensor: unknown numeric mode %q (want exact|fast)", name)
	}
	numericMu.Lock()
	defer numericMu.Unlock()
	for numericHolders > 0 && numericReassoc.Load() != fast {
		numericCond.Wait()
	}
	numericHolders++
	numericReassoc.Store(fast)
	var once sync.Once
	return func() {
		once.Do(func() {
			numericMu.Lock()
			defer numericMu.Unlock()
			if numericHolders--; numericHolders == 0 {
				numericReassoc.Store(false)
				numericCond.Broadcast()
			}
		})
	}, nil
}
