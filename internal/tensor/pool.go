package tensor

import (
	"math/bits"
	"sync"
)

// poolBuckets covers backing-buffer capacities up to 2^47 elements —
// far beyond any tensor this simulator builds.
const poolBuckets = 48

// poolBucketCap bounds how many free buffers one bucket retains; extra
// Puts are dropped so an unlucky burst cannot pin memory forever.
const poolBucketCap = 8

// Pool is a size-bucketed free list of tensor backing buffers with
// explicit Get/Put, for batch-shaped temporaries that have no natural
// owning workspace (evaluation chunks, ad-hoc scratch). Buffers are
// bucketed by power-of-two capacity: Get serves a request of n elements
// from the bucket whose buffers hold at least n, allocating a fresh
// power-of-two-capacity buffer on a miss, so steady-state Get/Put cycles
// of stable (or boundedly varying) shapes allocate nothing.
//
// Get returns a zero-filled tensor, exactly like New, so swapping
// New(shape...) for p.Get(shape...) never changes results. Put recycles
// the tensor's buffer; the caller must not use the tensor afterwards.
//
// A Pool is safe for concurrent use. The zero value is ready to use.
// Long-lived per-replica state (layer workspaces) should own its buffers
// directly; the pool is for transient borrow/return patterns.
type Pool struct{ slicePool[float64] }

// slicePool is the bucketed free list itself, over any element type:
// Pool is the float64 instance every tensor buffer comes from, and the
// convolution driver keeps an int instance for its offset tables.
type slicePool[T any] struct {
	mu      sync.Mutex
	buckets [poolBuckets][][]T
}

// bucketFor returns the bucket index whose buffers can hold n elements:
// ceil(log2(n)) for n > 1, bucket 0 for n <= 1.
func bucketFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Get returns a zero-filled tensor of the given shape, reusing a pooled
// buffer when one of sufficient capacity is available.
func (p *Pool) Get(shape ...int) *Tensor {
	n := checkShape(shape)
	b := bucketFor(n)
	var buf []float64
	p.mu.Lock()
	if free := p.buckets[b]; len(free) > 0 {
		buf = free[len(free)-1]
		p.buckets[b] = free[:len(free)-1]
	}
	p.mu.Unlock()
	if buf == nil {
		// Round the capacity up to the bucket's power of two so the
		// buffer stays reusable for every size in this class.
		buf = make([]float64, n, 1<<b)
	} else {
		buf = buf[:n]
		for i := range buf {
			buf[i] = 0
		}
	}
	return &Tensor{Data: buf, shape: append([]int(nil), shape...)}
}

// GetSlice returns a raw buffer of n elements with unspecified
// contents, reusing a pooled buffer when one of sufficient capacity is
// available. It is the header-free, zero-fill-free variant of Get for
// internal scratch (GEMM packing panels) whose every element is written
// before it is read: steady-state GetSlice/PutSlice cycles allocate
// nothing at all, not even a tensor header.
func (p *slicePool[T]) GetSlice(n int) []T {
	if n < 0 {
		panic("tensor: Pool.GetSlice with negative size")
	}
	b := bucketFor(n)
	var buf []T
	p.mu.Lock()
	if free := p.buckets[b]; len(free) > 0 {
		buf = free[len(free)-1]
		p.buckets[b] = free[:len(free)-1]
	}
	p.mu.Unlock()
	if buf == nil {
		buf = make([]T, n, 1<<b)
	}
	return buf[:n]
}

// PutSlice returns a buffer obtained from GetSlice to the pool. The
// caller must not use buf afterwards.
func (p *slicePool[T]) PutSlice(buf []T) {
	if cap(buf) == 0 {
		return
	}
	buf = buf[:cap(buf)]
	b := bits.Len(uint(cap(buf))) - 1
	p.mu.Lock()
	if len(p.buckets[b]) < poolBucketCap {
		p.buckets[b] = append(p.buckets[b], buf)
	}
	p.mu.Unlock()
}

// Put returns t's backing buffer to the pool. t must not be used (nor
// any view aliasing it) after Put. Tensors not obtained from Get are
// accepted too; their capacity decides the bucket they join.
func (p *Pool) Put(t *Tensor) {
	if t == nil || cap(t.Data) == 0 {
		return
	}
	buf := t.Data[:cap(t.Data)]
	// A buffer parks in the largest bucket it can fully serve.
	b := bits.Len(uint(cap(buf))) - 1
	t.Data = nil
	t.shape = nil
	p.mu.Lock()
	if len(p.buckets[b]) < poolBucketCap {
		p.buckets[b] = append(p.buckets[b], buf)
	}
	p.mu.Unlock()
}
