package transport

import (
	"net"
	"sync"
	"time"
)

// helloTimeout bounds how long a fresh connection may take to present
// its hello frame before the server drops it. Keeps half-open or silent
// connections from pinning handshake goroutines.
const helloTimeout = 10 * time.Second

// Greeter is the accept side both servers (the AP and the fleet
// coordinator) share: every connection is tracked from Accept until its
// handshake ends, the hello read carries a deadline, and Stop aborts
// whatever is still pending — so no silent or half-open peer can outlive
// a shutdown or pin a goroutine.
type Greeter struct {
	ln    net.Listener
	serve func(conn net.Conn, admit func() bool)

	mu      sync.Mutex
	pending map[net.Conn]bool
	stopped bool

	wg sync.WaitGroup // the accept loop and every serve goroutine
}

// Greet starts accepting on ln. Each connection gets helloTimeout as
// its read deadline and its own goroutine running serve, which reads
// the hello and then calls admit to take ownership: the deadline is
// lifted and Stop no longer closes the connection. admit reports false
// when the greeter has already stopped. Either way serve closes every
// connection it does not keep.
func Greet(ln net.Listener, serve func(conn net.Conn, admit func() bool)) *Greeter {
	g := &Greeter{ln: ln, serve: serve, pending: map[net.Conn]bool{}}
	g.wg.Add(1)
	go g.acceptLoop()
	return g
}

func (g *Greeter) acceptLoop() {
	defer g.wg.Done()
	for {
		conn, err := g.ln.Accept()
		if err != nil {
			return // listener closed
		}
		g.mu.Lock()
		if g.stopped {
			g.mu.Unlock()
			conn.Close()
			continue
		}
		g.pending[conn] = true
		g.wg.Add(1)
		g.mu.Unlock()
		conn.SetReadDeadline(time.Now().Add(helloTimeout))
		go func() {
			defer g.wg.Done()
			defer g.forget(conn)
			g.serve(conn, func() bool {
				conn.SetReadDeadline(time.Time{})
				return g.forget(conn)
			})
		}()
	}
}

// forget ends conn's tracking and reports whether the greeter is still
// running.
func (g *Greeter) forget(conn net.Conn) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.pending, conn)
	return !g.stopped
}

// Stop closes the listener and every connection still in its handshake
// (one accepted after this is closed on arrival). Admitted connections
// are the caller's to close; Wait returns once their serve goroutines
// have.
func (g *Greeter) Stop() error {
	g.mu.Lock()
	g.stopped = true
	for c := range g.pending {
		c.Close()
	}
	g.mu.Unlock()
	return g.ln.Close()
}

// Wait blocks until the accept loop and every serve goroutine have
// returned.
func (g *Greeter) Wait() { g.wg.Wait() }
