// Package lcinterneg must stay silent: each helper call under a lock is one
// the callee walk must NOT flag — non-blocking sends, go-spawned work,
// function-literal bodies, and pure computation.
package lcinterneg

import (
	"net"
	"sync"

	"github.com/troxy-bft/troxy/internal/wire"
)

type G struct {
	mu   sync.Mutex
	conn net.Conn
	ch   chan int
	done chan struct{}
	n    int
}

// tryNotify's send sits in a select with a default arm: non-blocking by
// construction, so the helper has no send effect.
func (g *G) tryNotify() {
	select {
	case g.ch <- 1:
	default:
	}
}

func (g *G) lockedTryNotify() {
	g.mu.Lock()
	g.tryNotify()
	g.mu.Unlock()
}

// flush performs real I/O...
func (g *G) flush(p []byte) {
	wire.WriteFrame(g.conn, p)
}

// ...but spawnFlush only spawns it: the go statement cannot block the
// spawner, so the walk does not follow it.
func (g *G) spawnFlush(p []byte) {
	go g.flush(p)
}

func (g *G) lockedSpawn(p []byte) {
	g.mu.Lock()
	g.spawnFlush(p)
	g.mu.Unlock()
}

// deferredWork's send lives inside a function literal it returns; the
// literal runs in whoever invokes it, not in deferredWork.
func (g *G) deferredWork() func() {
	return func() {
		g.ch <- 1
	}
}

func (g *G) lockedMakeWork() {
	g.mu.Lock()
	_ = g.deferredWork()
	g.mu.Unlock()
}

// tally is pure computation; helpers without effects stay callable under
// the lock.
func (g *G) tally(n int) int {
	return g.n + n
}

func (g *G) lockedTally() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.tally(1)
}
