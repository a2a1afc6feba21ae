package app

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/troxy-bft/troxy/internal/msg"
)

// Checkpoints. The agreement protocol cuts a checkpoint of the application
// every interval, votes on a digest of it, retains it until a newer one is
// stable, and serves it chunk by chunk to replicas that fell behind. This
// file is the one abstraction it does all of that through.
//
// A chunk is a sequence of records, each a U32 little-endian length followed
// by that many payload bytes. The digest of a chunk is SHA-256 over the
// concatenated SHA-256 digests of its record payloads — so an application
// that remembers the digest of every unchanged record re-hashes only what
// was written since the last checkpoint. What a record holds is the
// application's business: Store's are single entries (storecheckpoint.go);
// every other application goes through the adapter below, whose records are
// consecutive pieces of the monolithic snapshot.

// Checkpoint is an immutable view of an application's state at the moment it
// was cut, laid out as chunks. It stays valid and unchanged while the
// application keeps executing. The layout must be a function of the state
// alone: two replicas holding the same state cut identical chunks, however
// each arrived at it.
type Checkpoint interface {
	// NumChunks returns how many chunks the checkpoint has.
	NumChunks() int

	// ChunkInfo returns the digest (as ChunkDigest computes it) and the
	// encoded length of chunk i.
	ChunkInfo(i int) (digest msg.Digest, size int)

	// Chunk encodes chunk i. Chunks are encoded when asked for, not
	// retained; the result is owned by the caller.
	Chunk(i int) []byte

	// HashedBytes reports how many bytes were hashed to cut the checkpoint
	// (changed records plus the digest tables above them).
	HashedBytes() int
}

// Checkpointer is implemented by applications that cut checkpoints natively,
// in time proportional to what changed. Applications without it still work:
// CheckpointOf and ChunkSinkOf fall back to the monolithic snapshot.
type Checkpointer interface {
	Application

	// Checkpoint cuts a checkpoint whose chunks hold at most chunkSize
	// bytes (more only where a single indivisible record does).
	Checkpoint(chunkSize int) Checkpoint

	// ChunkSink starts a restore from the chunks of such a checkpoint.
	ChunkSink() RestoreSink
}

// recordHeader is the length prefix in front of every record payload.
const recordHeader = 4

// CheckpointOf cuts a checkpoint of a: natively when a supports it, and
// otherwise by materializing the snapshot once, into a buffer of exactly its
// size, and cutting that into fixed-size single-record chunks.
func CheckpointOf(a Application, chunkSize int) Checkpoint {
	if c, ok := a.(Checkpointer); ok {
		return c.Checkpoint(chunkSize)
	}
	var pieces [][]byte
	total := 0
	for it := SnapshotIterOf(a, chunkSize); ; {
		p, ok := it.Next()
		if !ok {
			break
		}
		pieces = append(pieces, p)
		total += len(p)
	}
	buf := make([]byte, 0, total)
	for _, p := range pieces {
		buf = append(buf, p...)
	}
	return CheckpointOfBytes(buf, chunkSize)
}

// CheckpointOfBytes lays out buf, which the checkpoint keeps, as chunks of
// one record each: every chunk but the last is exactly chunkSize bytes long,
// record header included.
func CheckpointOfBytes(buf []byte, chunkSize int) Checkpoint {
	cp := &bytesCheckpoint{buf: buf, payload: max(chunkSize-recordHeader, 1)}
	cp.digests = make([]msg.Digest, (len(buf)+cp.payload-1)/cp.payload)
	for i := range cp.digests {
		d := sha256.Sum256(cp.piece(i))
		cp.digests[i] = sha256.Sum256(d[:])
	}
	return cp
}

type bytesCheckpoint struct {
	buf     []byte
	payload int // payload bytes per chunk
	digests []msg.Digest
}

func (cp *bytesCheckpoint) piece(i int) []byte {
	return cp.buf[i*cp.payload : min((i+1)*cp.payload, len(cp.buf))]
}

func (cp *bytesCheckpoint) NumChunks() int { return len(cp.digests) }

func (cp *bytesCheckpoint) ChunkInfo(i int) (msg.Digest, int) {
	return cp.digests[i], recordHeader + len(cp.piece(i))
}

func (cp *bytesCheckpoint) Chunk(i int) []byte {
	p := cp.piece(i)
	out := binary.LittleEndian.AppendUint32(make([]byte, 0, recordHeader+len(p)), uint32(len(p)))
	return append(out, p...)
}

func (cp *bytesCheckpoint) HashedBytes() int {
	return len(cp.buf) + len(cp.digests)*len(msg.Digest{})
}

// EachRecord calls fn with the payload of every record in chunk, in order.
// Chunks arrive from peers: a length prefix is checked against the bytes
// that are left before it is used, and a chunk that is empty, truncated or
// overlong is an error. The payload aliases chunk.
func EachRecord(chunk []byte, fn func(payload []byte) error) error {
	if len(chunk) == 0 {
		return errors.New("app: empty chunk")
	}
	for len(chunk) > 0 {
		if len(chunk) < recordHeader {
			return fmt.Errorf("app: chunk ends inside a record header (%d bytes left)", len(chunk))
		}
		n := binary.LittleEndian.Uint32(chunk)
		chunk = chunk[recordHeader:]
		if uint64(n) > uint64(len(chunk)) {
			return fmt.Errorf("app: record of %d bytes with %d left in the chunk", n, len(chunk))
		}
		if err := fn(chunk[:n]); err != nil {
			return err
		}
		chunk = chunk[n:]
	}
	return nil
}

// ChunkDigest computes the digest of an encoded chunk: SHA-256 over the
// SHA-256 digests of its record payloads. It is a pure function of the
// bytes, so a fetcher can check a chunk from an untrusted peer against the
// agreed digest before anything in it is used.
func ChunkDigest(chunk []byte) (msg.Digest, error) {
	h := sha256.New()
	err := EachRecord(chunk, func(payload []byte) error {
		d := sha256.Sum256(payload)
		h.Write(d[:])
		return nil
	})
	var out msg.Digest
	h.Sum(out[:0])
	return out, err
}

// ChunkSinkOf returns the restore side of CheckpointOf. Each Write takes one
// whole chunk whose digest the caller has verified, in checkpoint order;
// Commit swaps the state in atomically, as RestoreSinkOf's does.
func ChunkSinkOf(a Application) RestoreSink {
	if c, ok := a.(Checkpointer); ok {
		return c.ChunkSink()
	}
	return recordSink{RestoreSinkOf(a)}
}

// recordSink strips the adapter's record framing and streams the payloads,
// which concatenate to the monolithic snapshot, into the wrapped sink.
type recordSink struct{ RestoreSink }

func (sk recordSink) Write(chunk []byte) error {
	return EachRecord(chunk, sk.RestoreSink.Write)
}
