package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on a few cores of a shared host whose speed wanders:
// for tens of seconds at a time every instruction of every process takes
// 20-40 % longer (no steal time is reported; CPU time stretches with wall
// time), so ten runs of unchanged code spread by 15-30 % in wall time and
// in every percentile of op time. A bound that is a share of the median
// cannot hold a number that moves that much on its own.
//
// So a pass measures the host while it measures the program: a fixed
// kernel, run every kernelPeriod on one goroutine throughout the timed
// interval, says how fast the box was during exactly that interval, and
// the run's times are reported at the reference speed — multiplied by
// refKernelMs ÷ the median kernel time. Over ten runs of unchanged code
// that took spreads of 20-35 % to 5-13 %.

const (
	// The kernel is one pass over a buffer no private cache holds (memory
	// traffic) and residentPasses passes over its first residentBytes,
	// which stay in L2 (arithmetic), about equal in time. Neither half
	// alone tracks all six workloads: a neighbour on the core slows
	// arithmetic by half and streaming by a sixth, and the workloads sit
	// in between.
	streamBytes    = 16 << 20
	residentBytes  = 1 << 20
	residentPasses = 32

	kernelPeriod = 100 * time.Millisecond

	// refKernelMs is the kernel's time on the 2-core sandbox when nothing
	// else runs there. It only fixes the unit: a reported second is a
	// second at the speed at which the kernel takes this long.
	refKernelMs = 6.6
)

// hostMeter times the kernel. Its buffer is mapped outside the Go heap so
// that it neither moves the garbage collector's pacing nor is scanned; it
// is resident for the rest of the process, and peak_rss_mb subtracts it.
type hostMeter struct {
	buf        []float64
	sink       float64
	ms         []float64
	stop, done chan struct{}
}

// startHostMeter maps the buffer and samples the kernel every
// kernelPeriod until stopMedian.
func startHostMeter() *hostMeter {
	mem, err := syscall.Mmap(-1, 0, streamBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("bench: mapping the calibration buffer: %v", err))
	}
	h := &hostMeter{buf: unsafe.Slice((*float64)(unsafe.Pointer(&mem[0])), len(mem)/8),
		stop: make(chan struct{}), done: make(chan struct{})}
	h.kernel() // fault the pages in
	go func() {
		defer close(h.done)
		tick := time.NewTicker(kernelPeriod)
		defer tick.Stop()
		for {
			h.ms = append(h.ms, h.kernel())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// relax is x ← 0.999x + 0.5 over a, which settles at 500 and never
// leaves the normal range.
func relax(a []float64) float64 {
	s := 0.0
	for i := range a {
		a[i] = a[i]*0.999 + 0.5
		s += a[i]
	}
	return s
}

// kernel runs the fixed work once and returns its wall time in ms.
func (h *hostMeter) kernel() float64 {
	t0 := time.Now()
	s := relax(h.buf)
	for i := 0; i < residentPasses; i++ {
		s += relax(h.buf[:residentBytes/8])
	}
	h.sink = s
	return time.Since(t0).Seconds() * 1e3
}

// stopMedian ends the sampling and returns the median kernel time.
func (h *hostMeter) stopMedian() float64 {
	close(h.stop)
	<-h.done
	return median(h.ms)
}

// atRefSpeed converts a time measured while the kernel took kernelMs to
// what it would have been at the reference speed.
func atRefSpeed(t, kernelMs float64) float64 { return t * refKernelMs / kernelMs }
