package tensor

import "sync/atomic"

// CountLeases returns how many buffers f leases from the GEMM engine's
// packing pool. It must not run beside another test that calls into the
// engine.
func CountLeases(f func()) int {
	var n atomic.Int64
	leaseHook = func() { n.Add(1) }
	defer func() { leaseHook = nil }()
	f()
	return int(n.Load())
}
