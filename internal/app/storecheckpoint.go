package app

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/wire"
)

// Store's native checkpoints. A record is one entry in its canonical
// encoding; a chunk is a run of consecutive entries of one shard, closed
// before the entry that would take it past the chunk size; the chunks of the
// checkpoint are those of shard 0, 1, … in order, empty shards contributing
// none. All of that follows from the contents alone, so a replica that
// executed every write and one that was restored from chunks cut the same
// checkpoint.
//
// Cutting one costs what changed: an entry's digest is computed when a
// checkpoint first needs it and kept until the entry is overwritten; a
// shard's chunk table is recomputed only if the shard was written, from the
// entry digests and not the entry bytes, and a chunk that holds the same
// entries as before keeps its digest; nothing is encoded until a chunk is
// asked for.

var _ Checkpointer = (*Store)(nil)

// storeChunk describes one chunk: entries [lo, hi) of a shard.
type storeChunk struct {
	shard  uint32
	lo, hi uint32
	size   uint32 // encoded length
	digest msg.Digest
}

// storeCheckpoint is a retained checkpoint: the entry slices as they were
// when it was cut, shared with the live store until the store's next write
// to the shard clones them (storeShard.own), and the chunk table.
type storeCheckpoint struct {
	shards [storeShards][]storeEntry
	chunks []storeChunk
	hashed int
}

// Checkpoint implements Checkpointer.
func (s *Store) Checkpoint(chunkSize int) Checkpoint {
	cp := &storeCheckpoint{}
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		if sh.dirty || sh.cutSize != chunkSize {
			cp.hashed += s.cut(sh, uint32(i), chunkSize)
		}
		sh.shared = true
		cp.shards[i] = sh.entries
		n += len(sh.chunks)
	}
	cp.chunks = make([]storeChunk, 0, n)
	for i := range s.shards {
		cp.chunks = append(cp.chunks, s.shards[i].chunks...)
	}
	return cp
}

// cut recomputes a shard's chunk table, hashing the entries written since
// their digest was last computed, and returns the number of bytes hashed.
func (s *Store) cut(sh *storeShard, shard uint32, chunkSize int) int {
	// Where no entry came or went, old chunk k and new chunk k covering the
	// same positions hold the same entries, and if none of them was written
	// the old digest stands. (The new table overwrites the old in place; a
	// slot is read before the append that replaces it.)
	old := sh.chunks
	if sh.resized || sh.cutSize != chunkSize {
		old = nil
	}
	hashed := 0
	sh.chunks = sh.chunks[:0]
	s.digestBuf = s.digestBuf[:0]
	lo, size, written := 0, 0, false
	closeChunk := func(hi int) {
		c := storeChunk{shard: shard, lo: uint32(lo), hi: uint32(hi), size: uint32(size)}
		if k := len(sh.chunks); !written && k < len(old) && old[k].lo == c.lo && old[k].hi == c.hi {
			c.digest = old[k].digest
		} else {
			c.digest = sha256.Sum256(s.digestBuf)
			hashed += len(s.digestBuf)
		}
		sh.chunks = append(sh.chunks, c)
		s.digestBuf = s.digestBuf[:0]
		lo, size, written = hi, 0, false
	}
	for i := range sh.entries {
		e := &sh.entries[i]
		rec := recordHeader + entrySize(e)
		if size > 0 && size+rec > chunkSize {
			closeChunk(i)
		}
		if sh.digests[i] == (msg.Digest{}) {
			s.encBuf = appendEntry(s.encBuf[:0], e)
			sh.digests[i] = sha256.Sum256(s.encBuf)
			hashed += len(s.encBuf)
			written = true
		}
		size += rec
		s.digestBuf = append(s.digestBuf, sh.digests[i][:]...)
	}
	if size > 0 {
		closeChunk(len(sh.entries))
	}
	sh.dirty, sh.resized, sh.cutSize = false, false, chunkSize
	return hashed
}

func (cp *storeCheckpoint) NumChunks() int { return len(cp.chunks) }

func (cp *storeCheckpoint) ChunkInfo(i int) (msg.Digest, int) {
	return cp.chunks[i].digest, int(cp.chunks[i].size)
}

func (cp *storeCheckpoint) Chunk(i int) []byte {
	c := &cp.chunks[i]
	out := make([]byte, 0, c.size)
	entries := cp.shards[c.shard][c.lo:c.hi]
	for j := range entries {
		out = binary.LittleEndian.AppendUint32(out, uint32(entrySize(&entries[j])))
		out = appendEntry(out, &entries[j])
	}
	return out
}

func (cp *storeCheckpoint) HashedBytes() int { return cp.hashed }

// ChunkSink implements Checkpointer. Entries are staged and swapped in at
// Commit; which chunk an entry arrived in does not matter, its key decides
// where it goes.
func (s *Store) ChunkSink() RestoreSink { return &storeChunkSink{s: s} }

type storeChunkSink struct {
	s      *Store
	staged storeLoader
	err    error
}

func (sk *storeChunkSink) Write(chunk []byte) error {
	if sk.err != nil {
		return sk.err
	}
	sk.err = EachRecord(chunk, func(payload []byte) error {
		r := wire.NewReader(payload)
		k := r.String()
		v := r.String()
		if err := r.Finish(); err != nil {
			return fmt.Errorf("app: restore store: entry record: %w", err)
		}
		sk.staged.add(k, v)
		return nil
	})
	return sk.err
}

func (sk *storeChunkSink) Commit() error {
	if sk.err != nil {
		return sk.err
	}
	sk.s.shards = sk.staged.build()
	sk.err = errors.New("app: restore sink already committed")
	return nil
}
