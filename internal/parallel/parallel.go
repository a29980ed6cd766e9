// Package parallel provides the shared bounded worker pool behind every
// concurrent hot path in the reproduction: the row- and
// sample-partitioned tensor kernels (internal/tensor), and the
// concurrent group/client training loops in
// internal/gsfl and internal/schemes/{fl,sfl}.
//
// # Design
//
// The pool is a fixed budget of helper tokens, sized Workers()-1 (one
// worker is always the calling goroutine itself). The single fork-join
// primitive, For, splits an index range into contiguous chunks and
// executes them across the caller plus however many helper goroutines it
// can acquire from the pool *without blocking*. Nested calls — a parallel MatMul inside a group that is
// itself training on a pool worker — therefore never deadlock and never
// oversubscribe the CPU: when the pool is exhausted the inner call simply
// degrades to the serial loop on the calling goroutine.
//
// # Determinism contract
//
// For guarantees nothing about which worker executes which chunk or in
// what order chunks complete. Callers obtain deterministic, bit-identical
// results by construction instead:
//
//   - each chunk must write only state that no other chunk touches
//     (disjoint output rows, samples, channels, groups, …), and
//   - the computation of each output element must stay entirely inside
//     one chunk, in the same element-internal order as the serial code.
//
// Under those two rules the result is independent of both the worker
// count and the scheduling, so parallel runs are bit-for-bit equal to
// Workers()==1 runs. Every user in this repository follows the rules and
// has a determinism test asserting the equality.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

var (
	mu sync.RWMutex
	// width is the configured worker count (caller + helpers).
	width int
	// tokens holds width-1 helper slots. Helpers are acquired
	// non-blockingly, so the pool bounds total concurrency at width
	// without ever deadlocking nested For calls.
	tokens chan struct{}
)

func init() { configure(runtime.GOMAXPROCS(0)) }

func configure(n int) {
	if n < 1 {
		n = 1
	}
	width = n
	tokens = make(chan struct{}, n-1)
	for i := 0; i < n-1; i++ {
		tokens <- struct{}{}
	}
}

// SetWorkers sets the pool's total worker count (the calling goroutine
// plus helper goroutines). n <= 0 resets to runtime.GOMAXPROCS(0).
// SetWorkers(1) disables all parallelism, which is useful both for
// serial baselines in benchmarks and for debugging.
//
// It is safe to call concurrently with running For loops — in-flight
// loops keep the pool they started with — but it is intended to be
// called once at startup (e.g. from a -workers flag).
func SetWorkers(n int) {
	mu.Lock()
	defer mu.Unlock()
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	configure(n)
}

// Workers returns the configured worker count.
func Workers() int {
	mu.RLock()
	defer mu.RUnlock()
	return width
}

// acquire takes up to max helper tokens without blocking and returns how
// many it got plus the channel to release them into.
func acquire(max int) (int, chan struct{}) {
	mu.RLock()
	ch := tokens
	mu.RUnlock()
	got := 0
	for got < max {
		select {
		case <-ch:
			got++
		default:
			return got, ch
		}
	}
	return got, ch
}

// Budget splits a total worker budget across inflight concurrent
// top-level tasks (e.g. sweep jobs): it returns the pool width to pass
// to SetWorkers so that the inflight task goroutines plus the pool's
// helper tokens never exceed total. Each task goroutine is itself a
// worker in every For it issues, so width = total - (inflight - 1),
// floored at 1 — when tasks outnumber the budget, every task simply
// runs serial. total <= 0 means runtime.GOMAXPROCS(0).
func Budget(total, inflight int) int {
	if total <= 0 {
		total = runtime.GOMAXPROCS(0)
	}
	if inflight < 1 {
		inflight = 1
	}
	w := total - (inflight - 1)
	if w < 1 {
		w = 1
	}
	return w
}

// Inline reports whether For(n, grain, body) is guaranteed to run its
// body inline on the calling goroutine: the range fits in a single chunk
// or only one worker is configured. Hot call sites consult it before
// constructing the body closure — a closure passed to For escapes to the
// heap, so skipping its construction keeps steady-state kernels
// allocation-free in serial runs. When Inline returns false For may
// still degrade to the serial loop (pool exhaustion), just not
// provably so.
func Inline(n, grain int) bool {
	if n <= 0 {
		return true
	}
	if grain < 1 {
		grain = 1
	}
	return n <= grain || Workers() == 1
}

// For executes body over the index range [0, n), fork-join style. The
// range is split into contiguous chunks of at least grain indices each
// (the final chunk may carry the smaller remainder); chunks run
// concurrently on the caller plus any pool helpers available, and For
// returns only after every chunk has finished. grain is the serial-work
// floor: when n <= grain (or only one worker is available) the whole
// range runs inline on the caller, so hot loops can call For
// unconditionally without paying goroutine overhead on tiny inputs.
//
// body(lo, hi) must confine its writes to state owned by [lo, hi) — see
// the package comment's determinism contract. A panic in any chunk is
// re-raised on the caller after all workers have stopped.
func For(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	maxChunks := (n + grain - 1) / grain
	want := maxChunks - 1
	if w := Workers() - 1; want > w {
		want = w
	}
	if want <= 0 {
		body(0, n)
		return
	}
	helpers, ch := acquire(want)
	if helpers == 0 {
		body(0, n)
		return
	}
	// Over-decompose a little so an unlucky worker stuck with a slow
	// chunk does not serialize the tail.
	chunks := (helpers + 1) * 4
	if chunks > maxChunks {
		chunks = maxChunks
	}
	size := (n + chunks - 1) / chunks
	if size < grain {
		// Hold the serial-work floor; only the final chunk may be short.
		size = grain
		chunks = (n + size - 1) / size
	}

	var next atomic.Int64
	var panicOnce sync.Once
	var panicVal any
	run := func() {
		defer func() {
			if r := recover(); r != nil {
				panicOnce.Do(func() { panicVal = r })
			}
		}()
		for {
			c := int(next.Add(1)) - 1
			if c >= chunks {
				return
			}
			lo := c * size
			hi := lo + size
			if hi > n {
				hi = n
			}
			if lo < hi {
				body(lo, hi)
			}
		}
	}

	var wg sync.WaitGroup
	wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run() // the caller is always a worker
	wg.Wait()
	for i := 0; i < helpers; i++ {
		ch <- struct{}{}
	}
	if panicVal != nil {
		panic(panicVal)
	}
}
