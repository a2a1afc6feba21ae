// Package lcneg must stay clean under lockcheck: the sanctioned locking
// patterns.
package lcneg

import (
	"net"
	"sync"

	"github.com/troxy-bft/troxy/internal/wire"
)

// B mirrors the bridge shape of lcpos.
type B struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	ch   chan int
	conn net.Conn
	n    int
}

// deferUnlock is the standard pattern: defer covers every return path.
func (b *B) deferUnlock(cond bool) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if cond {
		return 0
	}
	return b.n
}

// manualUnlockEveryPath releases on both paths before returning.
func (b *B) manualUnlockEveryPath(cond bool) int {
	b.mu.Lock()
	if cond {
		b.mu.Unlock()
		return 0
	}
	n := b.n
	b.mu.Unlock()
	return n
}

// sendAfterUnlock moves the blocking operation outside the critical section.
func (b *B) sendAfterUnlock() {
	b.mu.Lock()
	n := b.n
	b.mu.Unlock()
	b.ch <- n
}

// nonBlockingSendUnderLock is exempt: a select with a default arm cannot
// block on the send.
func (b *B) nonBlockingSendUnderLock() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	select {
	case b.ch <- b.n:
		return true
	default:
		return false
	}
}

// writeAfterSnapshot copies under the lock and does I/O outside it.
func (b *B) writeAfterSnapshot(p []byte) error {
	b.mu.Lock()
	buf := make([]byte, len(p))
	copy(buf, p)
	b.mu.Unlock()
	if _, err := b.conn.Write(buf); err != nil {
		return err
	}
	return wire.WriteFrame(b.conn, buf)
}

// read locks released by defer.
func (b *B) sumUnderRead() int {
	b.rw.RLock()
	defer b.rw.RUnlock()
	return b.n + 1
}

// distinctLocks: holding mu while taking rw is not a self-deadlock.
func (b *B) distinctLocks() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.rw.Lock()
	b.n++
	b.rw.Unlock()
}
