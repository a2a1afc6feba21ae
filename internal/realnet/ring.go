package realnet

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/troxy-bft/troxy/internal/wire"
)

// Send ring tuning. A woken drainer flushes on a size trigger
// (ringFlushFrames) or after a deadline of one scheduler quantum: below the
// trigger it yields the processor once so a burst's producers can finish
// enqueueing, then flushes whatever is there. A lone frame on a quiet link
// therefore goes out after ~one scheduler pass instead of waiting for the
// sender to go idle. (A timer-based grace deadline was measured here first
// and rejected: the shortest expressible sleep costs tens of microseconds of
// timer latency, which showed up directly in closed-loop p50, while the
// single yield is cheaper and coalesces better — DESIGN.md decision 8.)
const (
	// ringCapacity bounds the per-peer ring; a full ring drops the frame (the
	// network is unreliable by assumption). Overflow is counted, never silent.
	ringCapacity = 4096

	// ringFlushFrames is the size trigger: a ring holding this many frames is
	// flushed immediately, with no straggler yield.
	ringFlushFrames = 64
)

// RingStats are the per-peer flush counters of a send ring, exported
// next to the drop counters so operators can see the coalescing factor
// (FramesPerFlush) the writev path actually achieves.
type RingStats struct {
	Flushes uint64 // vectored writes issued
	Frames  uint64 // frames carried by those writes
}

// FramesPerFlush is the achieved coalescing factor.
func (s RingStats) FramesPerFlush() float64 {
	if s.Flushes == 0 {
		return 0
	}
	return float64(s.Frames) / float64(s.Flushes)
}

// sendRing is a bounded multi-producer ring of pooled, pre-encoded frames.
// Senders encode an envelope (frame header included) into a pooled
// wire.Writer and push the writer itself; the drainer swaps the whole slot
// slice out under the lock, turns the writers' buffers into one net.Buffers
// iovec, and hands every writer back to the pool after the writev. The two
// slot slices double-buffer so steady state allocates nothing.
type sendRing struct {
	mu     sync.Mutex
	closed bool
	slots  []*wire.Writer // pending frames
	spare  []*wire.Writer // drained slice, handed back for reuse

	wake chan struct{} // cap 1: nudges the drainer when the first frame lands

	drops   atomic.Uint64
	flushes atomic.Uint64
	frames  atomic.Uint64
}

func newSendRing() *sendRing {
	return &sendRing{
		slots: make([]*wire.Writer, 0, ringCapacity),
		spare: make([]*wire.Writer, 0, ringCapacity),
		wake:  make(chan struct{}, 1),
	}
}

// push hands an encoded frame (a pooled writer) to the ring. On overflow or
// after close the writer is returned to the pool and the frame is dropped
// (counted). It reports whether the frame was accepted.
//
//troxy:hotpath
func (r *sendRing) push(w *wire.Writer) bool {
	r.mu.Lock()
	if r.closed || len(r.slots) >= ringCapacity {
		closed := r.closed
		r.mu.Unlock()
		wire.PutWriter(w)
		if !closed {
			r.drops.Add(1)
		}
		return false
	}
	r.slots = append(r.slots, w) //lint:allow allocfree bounded by the capacity check above; the ring arrays are allocated once at construction
	r.mu.Unlock()
	select {
	case r.wake <- struct{}{}:
	default: // drainer already signalled
	}
	return true
}

// take swaps out every pending frame. The returned slice belongs to the
// caller until the next take (it becomes the spare on the call after).
//
//troxy:hotpath
func (r *sendRing) take() []*wire.Writer {
	r.mu.Lock()
	batch := r.slots
	r.slots = r.spare[:0]
	r.spare = batch
	r.mu.Unlock()
	return batch
}

// pendingLen reports how many frames wait in the ring.
func (r *sendRing) pendingLen() int {
	r.mu.Lock()
	n := len(r.slots)
	r.mu.Unlock()
	return n
}

// accumulate lets a just-woken drainer gather a burst's stragglers: below
// the size trigger it yields the processor once so producers mid-burst can
// finish enqueueing, then returns for an immediate flush. A lone frame costs
// one scheduler quantum, not a timer sleep.
//
//troxy:hotpath
func (r *sendRing) accumulate() {
	if r.pendingLen() >= ringFlushFrames {
		return
	}
	runtime.Gosched()
}

// close marks the ring closed. Frames still in slots are released; frames
// pushed afterwards are rejected.
func (r *sendRing) close() {
	r.mu.Lock()
	r.closed = true
	batch := r.slots
	r.slots = nil
	r.spare = nil
	r.mu.Unlock()
	for _, w := range batch {
		wire.PutWriter(w)
	}
}

// release returns a drained batch's writers to the pool.
//
//troxy:hotpath
func releaseBatch(batch []*wire.Writer) {
	for _, w := range batch {
		wire.PutWriter(w)
	}
}

// flushBatch writes a drained batch to conn as one vectored write. iov is
// the caller's reusable iovec backing array; WriteTo consumes a separate
// slice header over it, so the array survives for the next flush. On
// platforms with writev support the whole ring goes out in one syscall.
//
//troxy:hotpath
func flushBatch(conn net.Conn, iov [][]byte, batch []*wire.Writer) ([][]byte, error) {
	iov = iov[:0]
	for _, w := range batch {
		iov = append(iov, w.Bytes()) //lint:allow allocfree appends into the caller-reused iovec backing array; steady state never grows
	}
	bufs := net.Buffers(iov)
	_, err := bufs.WriteTo(conn)
	return iov, err
}
