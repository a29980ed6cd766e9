// Package faultconn is a deterministic network-fault harness: it wraps
// net.Conn with seeded, reproducible delays, partial writes, mid-frame
// drops, and stalls.
//
// Determinism is the point. The transport protocol is strictly
// sequential per connection side (one frame in flight, request/response
// turns), so the i-th Read and the i-th Write of a wrapped connection
// are the same operation in every run. Each Conn draws its fault
// decisions from a private RNG seeded by its Profile, in operation
// order — so a given (profile, seed) replays the exact same failure
// schedule, byte for byte, on every run. Tests assert this directly:
// Script() renders the schedule as a canonical string that must be
// identical across runs.
//
// The faults:
//
//   - Read/write delays: sampled per op with the configured probability,
//     sleeping a deterministic duration before the op proceeds.
//   - Partial writes: a write delivers only a prefix this op; the
//     remainder is NOT retried by the conn — io-layer callers relying on
//     a single Write delivering everything will see short writes exactly
//     as a congested kernel would deliver them. (net.Conn semantics make
//     most stacks retry; the harness reports n < len(p) with no error,
//     which io.Writer contracts treat as ErrShortWrite upstream.)
//   - DropAfterBytes: after writing a total byte budget, the connection
//     delivers one final truncated write and closes — the peer observes
//     a mid-frame EOF.
//   - Stalls: after a configured number of reads or writes, the
//     connection blocks forever (until Close), simulating a hung peer —
//     the case round deadlines exist for.
package faultconn

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"strings"
	"sync"
	"time"
)

// Profile configures one wrapped connection's fault schedule. The zero
// value injects nothing.
type Profile struct {
	// Seed drives every probabilistic decision below.
	Seed int64

	// ReadDelayProb is the per-Read probability of sleeping ReadDelay
	// first. WriteDelayProb/WriteDelay mirror it for writes.
	ReadDelayProb  float64
	ReadDelay      time.Duration
	WriteDelayProb float64
	WriteDelay     time.Duration

	// PartialWriteProb is the per-Write probability of delivering only a
	// prefix (at least 1 byte, a seeded fraction of the buffer).
	PartialWriteProb float64

	// DropAfterBytes, when positive, closes the connection after that
	// many bytes have been written — mid-frame if the budget expires
	// inside one (the final write delivers the prefix, then the conn
	// dies).
	DropAfterBytes int64

	// StallAfterWrites / StallAfterReads, when positive, block the n-th
	// (1-based) write or read forever, until Close.
	StallAfterWrites int
	StallAfterReads  int
}

// Event is one fault decision, in operation order.
type Event struct {
	// Op is "read" or "write"; N is the 1-based op index on that side.
	Op string
	N  int
	// Fault describes what was injected: "delay", "partial", "drop",
	// "stall".
	Fault string
	// Bytes is the byte count involved (delivered bytes for partial and
	// drop events, 0 otherwise).
	Bytes int
}

// Conn wraps a net.Conn with the profile's deterministic faults.
type Conn struct {
	inner net.Conn
	p     Profile

	mu       sync.Mutex
	rng      *rand.Rand
	reads    int
	writes   int
	written  int64
	events   []Event
	dead     bool
	rd, wd   time.Time // read/write deadlines (stalls must honour them)
	closed   chan struct{}
	closeErr error
	closing  sync.Once
}

// Wrap decorates c with p's fault schedule.
func Wrap(c net.Conn, p Profile) *Conn {
	return &Conn{inner: c, p: p, rng: rand.New(rand.NewSource(p.Seed)), closed: make(chan struct{})}
}

// record appends an event under mu.
func (c *Conn) record(op string, n int, fault string, bytes int) {
	c.events = append(c.events, Event{Op: op, N: n, Fault: fault, Bytes: bytes})
}

// Events returns a copy of the injected-fault log so far.
func (c *Conn) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// Script renders the fault log as a canonical one-line-per-event string.
// Two runs of the same profile against the same traffic produce equal
// scripts — the replay guarantee the fault tests pin.
func (c *Conn) Script() string {
	var b strings.Builder
	for _, e := range c.Events() {
		fmt.Fprintf(&b, "%s#%d %s %d\n", e.Op, e.N, e.Fault, e.Bytes)
	}
	return b.String()
}

// stall blocks until the connection is closed or the operation's
// deadline passes — a stalled op must still trip the caller's deadline,
// exactly as a hung TCP peer trips SetReadDeadline.
func (c *Conn) stall(deadline time.Time) error {
	if deadline.IsZero() {
		<-c.closed
		return net.ErrClosed
	}
	t := time.NewTimer(time.Until(deadline))
	defer t.Stop()
	select {
	case <-c.closed:
		return net.ErrClosed
	case <-t.C:
		return os.ErrDeadlineExceeded
	}
}

// Read implements net.Conn.
func (c *Conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return 0, net.ErrClosed
	}
	c.reads++
	n := c.reads
	deadline := c.rd
	var delay time.Duration
	stall := c.p.StallAfterReads > 0 && n >= c.p.StallAfterReads
	if stall {
		c.record("read", n, "stall", 0)
	} else if c.p.ReadDelayProb > 0 && c.rng.Float64() < c.p.ReadDelayProb {
		delay = c.p.ReadDelay
		c.record("read", n, "delay", 0)
	}
	c.mu.Unlock()

	if stall {
		return 0, c.stall(deadline)
	}
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-c.closed:
			return 0, net.ErrClosed
		}
	}
	return c.inner.Read(p)
}

// Write implements net.Conn.
func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return 0, net.ErrClosed
	}
	c.writes++
	n := c.writes
	deadline := c.wd
	limit := len(p)
	var delay time.Duration
	die := false
	stall := c.p.StallAfterWrites > 0 && n >= c.p.StallAfterWrites
	switch {
	case stall:
		c.record("write", n, "stall", 0)
	default:
		if c.p.WriteDelayProb > 0 && c.rng.Float64() < c.p.WriteDelayProb {
			delay = c.p.WriteDelay
			c.record("write", n, "delay", 0)
		}
		if c.p.DropAfterBytes > 0 && c.written+int64(limit) > c.p.DropAfterBytes {
			limit = int(c.p.DropAfterBytes - c.written)
			if limit < 0 {
				limit = 0
			}
			die = true
			c.record("write", n, "drop", limit)
		} else if c.p.PartialWriteProb > 0 && limit > 1 && c.rng.Float64() < c.p.PartialWriteProb {
			// Deliver a seeded fraction, at least one byte.
			limit = 1 + c.rng.Intn(limit-1)
			c.record("write", n, "partial", limit)
		}
	}
	c.mu.Unlock()

	if stall {
		return 0, c.stall(deadline)
	}
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-c.closed:
			return 0, net.ErrClosed
		}
	}
	wrote, err := c.inner.Write(p[:limit])
	c.mu.Lock()
	c.written += int64(wrote)
	c.mu.Unlock()
	if die {
		// Budget exhausted: the peer sees the prefix, then EOF mid-frame.
		c.mu.Lock()
		c.dead = true
		c.mu.Unlock()
		c.Close()
		if err == nil {
			err = net.ErrClosed
		}
		return wrote, err
	}
	if err == nil && wrote < len(p) {
		// Partial delivery: surface the short write as the kernel would.
		return wrote, nil
	}
	return wrote, err
}

// Close implements net.Conn. It also releases any stalled or delayed
// operation, so tests and servers tear down cleanly.
func (c *Conn) Close() error {
	c.closing.Do(func() {
		close(c.closed)
		c.closeErr = c.inner.Close()
	})
	return c.closeErr
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.inner.LocalAddr() }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.inner.RemoteAddr() }

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.rd, c.wd = t, t
	c.mu.Unlock()
	return c.inner.SetDeadline(t)
}

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.rd = t
	c.mu.Unlock()
	return c.inner.SetReadDeadline(t)
}

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.wd = t
	c.mu.Unlock()
	return c.inner.SetWriteDeadline(t)
}

// Listener wraps a net.Listener so every accepted connection carries the
// same fault profile (each with its own RNG seeded by Seed+connIndex, so
// schedules stay reproducible per accept order).
type Listener struct {
	net.Listener
	p Profile

	mu sync.Mutex
	n  int64
}

// WrapListener decorates ln.
func WrapListener(ln net.Listener, p Profile) *Listener {
	return &Listener{Listener: ln, p: p}
}

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	p := l.p
	p.Seed += l.n
	l.n++
	l.mu.Unlock()
	return Wrap(conn, p), nil
}
