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

// RingStats are a send ring's flush counters, exported next to the drop
// counters so operators can see the coalescing factor (Frames/Flushes) the
// writev path actually achieves.
type RingStats struct {
	Flushes uint64 // vectored writes issued
	Frames  uint64 // frames carried by those writes
}

// ringCounters are the counters a send ring keeps. A Bridge gives each peer's
// ring its own; all of one Gateway's client rings share one set.
type ringCounters struct {
	flushes atomic.Uint64
	frames  atomic.Uint64
	drops   atomic.Uint64 // frames lost: ring overflow, failed encoding, failed write
}

func (c *ringCounters) load() RingStats {
	return RingStats{Flushes: c.flushes.Load(), Frames: c.frames.Load()}
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
	done chan struct{} // closed with the ring: stops the drainer

	stats *ringCounters
}

func newSendRing(stats *ringCounters) *sendRing {
	return &sendRing{
		slots: make([]*wire.Writer, 0, ringCapacity),
		spare: make([]*wire.Writer, 0, ringCapacity),
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
		stats: stats,
	}
}

// push hands an encoded frame (a pooled writer) to the ring. On overflow or
// after close the writer is returned to the pool and the frame is dropped
// (counted). It reports whether the frame was accepted.
func (r *sendRing) push(w *wire.Writer) bool {
	r.mu.Lock()
	if r.closed || len(r.slots) >= ringCapacity {
		closed := r.closed
		r.mu.Unlock()
		wire.PutWriter(w)
		if !closed {
			r.stats.drops.Add(1)
		}
		return false
	}
	r.slots = append(r.slots, w)
	r.mu.Unlock()
	select {
	case r.wake <- struct{}{}:
	default: // drainer already signalled
	}
	return true
}

// take swaps out every pending frame. The returned slice belongs to the
// caller until the next take (it becomes the spare on the call after).
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
func (r *sendRing) accumulate() {
	if r.pendingLen() >= ringFlushFrames {
		return
	}
	runtime.Gosched()
}

// close marks the ring closed and stops its drainer; its owner calls it
// once. Frames still in slots are released; frames pushed afterwards are
// rejected.
func (r *sendRing) close() {
	r.mu.Lock()
	r.closed = true
	batch := r.slots
	r.slots = nil
	r.spare = nil
	r.mu.Unlock()
	close(r.done)
	releaseBatch(batch)
}

// drain is the ring's writer until the ring closes: woken when the first
// frame of a burst lands, it yields one scheduler quantum so the burst's
// producers can finish (unless the size trigger is already met), swaps the
// whole ring out, and pushes it to the socket in one vectored write. The
// socket comes from connect, which returns nil to give up (the ring closed
// while it waited); frames wait in the ring meanwhile. A write error costs
// the in-flight batch (counted as drops: the network is unreliable by
// assumption) and closes the socket, so the next batch asks connect again.
func (r *sendRing) drain(connect func() net.Conn) {
	var conn net.Conn
	// The iovec's backing array, and the header WriteTo consumes: its receiver
	// escapes, so a header declared per flush would be a heap object per
	// flush, and this one is one for the drainer's life.
	var iov [][]byte
	var bufs net.Buffers
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	for {
		select {
		case <-r.done:
			// Closing released the ring's frames; nothing left to flush.
			return
		case <-r.wake:
		}
		r.accumulate()
		for batch := r.take(); len(batch) > 0; batch = r.take() {
			if conn == nil {
				if conn = connect(); conn == nil {
					releaseBatch(batch)
					return
				}
			}
			var err error
			iov, err = flushBatch(conn, &bufs, iov, batch)
			r.stats.flushes.Add(1)
			r.stats.frames.Add(uint64(len(batch)))
			if err != nil {
				r.stats.drops.Add(uint64(len(batch)))
				conn.Close()
				conn = nil
			}
			releaseBatch(batch)
		}
	}
}

// release returns a drained batch's writers to the pool.
func releaseBatch(batch []*wire.Writer) {
	for _, w := range batch {
		wire.PutWriter(w)
	}
}

// flushBatch writes a drained batch to conn as one vectored write. iov is
// the caller's reusable iovec backing array; WriteTo consumes bufs, the
// caller's separate slice header over it, so the array survives for the next
// flush. On platforms with writev support the whole ring goes out in one
// syscall.
func flushBatch(conn net.Conn, bufs *net.Buffers, iov [][]byte, batch []*wire.Writer) ([][]byte, error) {
	iov = iov[:0]
	for _, w := range batch {
		iov = append(iov, w.Bytes())
	}
	*bufs = iov
	_, err := bufs.WriteTo(conn)
	return iov, err
}
