package app

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strconv"

	"github.com/troxy-bft/troxy/internal/wire"
)

// Bench is the paper's microbenchmark service: it "accepts requests and
// generates a reply message of configurable size", with reads and writes
// "distinguished by their operation types" (Section VI-C). Operations name a
// key (used to diversify requests and replies) over one shared service
// state:
//
//	op = opRead|opWrite (1 byte) ‖ key (8 bytes LE) ‖ padding to request size
//
// A write bumps the single service-state version; a read returns ReplySize
// bytes deterministically derived from (key, version). Replicas executing
// the same history return byte-identical replies; any completed write
// visibly changes *all* subsequent reads. The shared version is what makes
// 1% writes conflict with concurrent optimized reads in the Fig. 10
// experiment ("concurrent write requests cause conflicting reads"): a
// speculative read executed at replicas whose execution points straddle a
// write observes diverging replies.
type Bench struct {
	// ReplySize is the size of generated read replies in bytes.
	ReplySize int

	version uint64
}

// Bench operation type bytes.
const (
	opRead  byte = 'R'
	opWrite byte = 'W'
)

// benchHeader is the minimal operation length.
const benchHeader = 9

// GlobalKey is the single state part all bench operations touch.
const GlobalKey = "bench/state"

// NewBench creates the microbenchmark service with the given reply size.
func NewBench(replySize int) *Bench {
	return &Bench{ReplySize: replySize}
}

// NewBenchFactory returns a Factory producing Bench instances.
func NewBenchFactory(replySize int) Factory {
	return func() Application { return NewBench(replySize) }
}

var _ Application = (*Bench)(nil)
var _ Forker = (*Bench)(nil)

// BenchRead builds a read operation for key, padded to requestSize bytes.
func BenchRead(key uint64, requestSize int) []byte {
	return benchOp(opRead, key, requestSize)
}

// BenchWrite builds a write operation for key, padded to requestSize bytes.
func BenchWrite(key uint64, requestSize int) []byte {
	return benchOp(opWrite, key, requestSize)
}

func benchOp(t byte, key uint64, requestSize int) []byte {
	if requestSize < benchHeader {
		requestSize = benchHeader
	}
	op := make([]byte, requestSize)
	op[0] = t
	binary.LittleEndian.PutUint64(op[1:9], key)
	return op
}

// BenchIsRead reports whether a bench operation is a read without needing an
// instance (clients use it to set the read-only flag).
func BenchIsRead(op []byte) bool {
	return len(op) >= benchHeader && op[0] == opRead
}

// BenchKey extracts the key of a bench operation.
func BenchKey(op []byte) (uint64, bool) {
	if len(op) < benchHeader {
		return 0, false
	}
	return binary.LittleEndian.Uint64(op[1:9]), true
}

// Execute implements Application.
func (b *Bench) Execute(op []byte) []byte {
	if len(op) < benchHeader || (op[0] != opRead && op[0] != opWrite) {
		return badOp(op)
	}
	key := binary.LittleEndian.Uint64(op[1:9])
	if op[0] == opWrite {
		b.version++
		return []byte("OK " + strconv.FormatUint(b.version, 10))
	}
	return b.readReply(key)
}

// readReply generates ReplySize deterministic bytes from (key, version).
func (b *Bench) readReply(key uint64) []byte {
	size := b.ReplySize
	if size < 1 {
		size = 1
	}
	out := make([]byte, 0, size+32)
	var seedInput [16]byte
	binary.LittleEndian.PutUint64(seedInput[:8], key)
	binary.LittleEndian.PutUint64(seedInput[8:], b.version)
	block := sha256.Sum256(seedInput[:])
	for len(out) < size {
		out = append(out, block[:]...)
		block = sha256.Sum256(block[:])
	}
	return out[:size]
}

// IsRead implements Application.
func (b *Bench) IsRead(op []byte) bool { return BenchIsRead(op) }

// Keys implements Application. All operations touch the shared state, so a
// completed write invalidates every cached read.
func (b *Bench) Keys(op []byte) []string {
	if _, ok := BenchKey(op); !ok {
		return nil
	}
	return []string{GlobalKey}
}

// Snapshot implements Application.
func (b *Bench) Snapshot() []byte {
	w := wire.NewWriter(16)
	w.U32(uint32(b.ReplySize))
	w.U64(b.version)
	out := make([]byte, w.Len())
	copy(out, w.Bytes())
	return out
}

// Restore implements Application.
func (b *Bench) Restore(snapshot []byte) error {
	r := wire.NewReader(snapshot)
	replySize := int(r.U32())
	version := r.U64()
	if err := r.Finish(); err != nil {
		return fmt.Errorf("app: restore bench: %w", err)
	}
	b.ReplySize = replySize
	b.version = version
	return nil
}

// Fork implements Forker.
func (b *Bench) Fork() Application { f := *b; return &f }

// Version returns the current service-state version (for tests).
func (b *Bench) Version() uint64 { return b.version }
