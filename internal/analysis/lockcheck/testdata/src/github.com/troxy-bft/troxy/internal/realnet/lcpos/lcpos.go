// Package lcpos must trigger lockcheck: every deadlock- and leak-shaped
// pattern the analyzer rejects.
package lcpos

import (
	"net"
	"sync"

	"github.com/troxy-bft/troxy/internal/enclave"
	"github.com/troxy-bft/troxy/internal/wire"
)

// B is a bridge-shaped component with a lock, a channel, and a conn.
type B struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	ch   chan int
	conn net.Conn
	enc  *enclave.Enclave
	n    int
}

func (b *B) sendUnderLock() {
	b.mu.Lock()
	b.ch <- 1 // want "channel send while holding b.mu"
	b.mu.Unlock()
}

func (b *B) connWriteUnderLock(p []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.conn.Write(p) // want "net Write call while holding b.mu"
}

func (b *B) frameUnderLock(p []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	wire.WriteFrame(b.conn, p) // want "frame I/O \\(wire.WriteFrame\\) while holding b.mu"
}

func (b *B) ecallUnderLock(arg []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.enc.ECall("op", arg) // want "ecall transition while holding b.mu"
}

func (b *B) ecallAppendUnderLock(room, arg []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.enc.ECallAppend(room, "op", arg) // want "ecall transition while holding b.mu"
}

func (b *B) unlockUnheld() {
	b.n++
	b.mu.Unlock() // want "Unlock of b.mu which is not held"
}

func (b *B) leakOnEarlyReturn(cond bool) int {
	b.mu.Lock()
	if cond {
		return 0 // want "return while still holding b.mu with no deferred unlock"
	}
	n := b.n
	b.mu.Unlock()
	return n
}

func (b *B) doubleLock() {
	b.mu.Lock()
	b.mu.Lock() // want "Lock of b.mu while already holding it; self-deadlock"
	b.mu.Unlock()
}

// readCount takes the read lock; a write acquire under it still deadlocks.
func (b *B) readCount() int {
	b.rw.RLock()
	defer b.rw.RUnlock()
	return b.n
}

func (b *B) writeUnderRead() {
	b.rw.RLock()
	defer b.rw.RUnlock()
	b.rw.Lock() // want "Lock of b.rw while already holding it; self-deadlock"
	b.rw.Unlock()
}
