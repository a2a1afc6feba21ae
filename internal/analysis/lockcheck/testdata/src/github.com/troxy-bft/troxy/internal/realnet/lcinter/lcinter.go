// Package lcinter must trigger lockcheck's inter-procedural cases: every
// blocking operation here hides behind at least one same-package call, so
// the intra-procedural engine (which saw only direct operations) provably
// missed all of them. Reports land at the call site inside the lock scope —
// the line a //lint:allow would have to cover.
package lcinter

import (
	"net"
	"sync"

	"github.com/troxy-bft/troxy/internal/wire"
)

// G is a gateway-shaped component: a lock, a conn, a channel.
type G struct {
	mu   sync.Mutex
	conn net.Conn
	ch   chan int
	n    int
}

// flushAll wraps the frame write — the helper-laundered I/O shape.
func (g *G) flushAll(p []byte) {
	wire.WriteFrame(g.conn, p)
}

func (g *G) lockedFlush(p []byte) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.flushAll(p) // want "call to flushAll \\(transitively: socket/frame I/O"
}

// flushDeep adds a second hop; the diagnostic traces the chain.
func (g *G) flushDeep(p []byte) {
	g.flushAll(p)
}

func (g *G) lockedDeepFlush(p []byte) {
	g.mu.Lock()
	g.flushDeep(p) // want "call to flushDeep \\(transitively: socket/frame I/O, via flushAll"
	g.mu.Unlock()
}

// notify blocks on the channel.
func (g *G) notify() {
	g.ch <- 1
}

func (g *G) lockedNotify() {
	g.mu.Lock()
	g.notify() // want "call to notify \\(transitively: channel send"
	g.mu.Unlock()
}

// drainA / drainB are mutually recursive; the send is reported from either
// member.
func (g *G) drainA(n int) {
	if n > 0 {
		g.drainB(n - 1)
	}
}

func (g *G) drainB(n int) {
	g.ch <- n
	g.drainA(n)
}

func (g *G) lockedDrain() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.drainA(3) // want "call to drainA \\(transitively: channel send"
}

func (g *G) lockedDrainB() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.drainB(3) // want "call to drainB \\(transitively: channel send"
}

// notifyOnExit's send runs in a deferred call, before it returns.
func (g *G) notifyOnExit() {
	defer g.notify()
	g.n++
}

func (g *G) lockedNotifyOnExit() {
	g.mu.Lock()
	g.notifyOnExit() // want "call to notifyOnExit \\(transitively: channel send, via notify → channel send"
	g.mu.Unlock()
}

// relay reaches the send three hops down; the trace names each one.
func (g *G) relay() {
	g.relayMid()
}

func (g *G) relayMid() {
	g.notify()
}

func (g *G) lockedRelay() {
	g.mu.Lock()
	g.relay() // want "call to relay \\(transitively: channel send, via relayMid → notify → channel send\\)"
	g.mu.Unlock()
}
