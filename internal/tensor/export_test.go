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

// testGM runs the tests' products that have no package function. One
// GEMM meets every shape the tests draw, so a plan's refill of its
// tables and panels stays covered; tests use it from one goroutine at a
// time.
var testGM GEMM
