package app

import (
	"bytes"
	"encoding/binary"
	"testing"

	"github.com/troxy-bft/troxy/internal/wire"
)

// FuzzRestoreSink feeds arbitrary bytes through the restore paths. They parse
// what peers send in a state transfer, so they must never panic.
//
// Taken as a monolithic snapshot stream, in arbitrary split sizes, the bytes
// must get the same verdict from the streaming sink and from Restore: a
// stream the sink commits is exactly a snapshot Restore accepts, with the
// identical resulting state — and vice versa.
//
// Taken as one checkpoint chunk (checkChunk), the record framing must get the
// same verdict from ChunkDigest and from both chunk sinks.
func FuzzRestoreSink(f *testing.F) {
	s := NewStore()
	s.Execute([]byte("PUT alpha 1"))
	s.Execute([]byte("PUT beta two words"))
	valid := s.Snapshot()
	f.Add(valid, byte(3))
	// The same state as a native chunk (two entry records; both keys share
	// a chunk only if they share a shard, so take every chunk), then with a
	// tampered entry, a truncated record and an oversize record length; and
	// as an adapter chunk (one record holding the monolithic snapshot).
	var chunk []byte
	for cp, i := s.Checkpoint(1<<10), 0; i < cp.NumChunks(); i++ {
		chunk = append(chunk, cp.Chunk(i)...)
	}
	f.Add(chunk, byte(1))
	tampered := bytes.Clone(chunk)
	tampered[5] ^= 0x40 // inside the first entry's key length
	f.Add(tampered, byte(1))
	f.Add(chunk[:len(chunk)-3], byte(1))
	oversize := bytes.Clone(chunk)
	binary.LittleEndian.PutUint32(oversize, 0xfffffff0)
	f.Add(oversize, byte(1))
	f.Add(CheckpointOfBytes(valid, 1<<10).Chunk(0), byte(1))
	f.Add(valid[:len(valid)-2], byte(1)) // truncated mid-entry
	f.Add(append(append([]byte(nil), valid...), 0xEE), byte(5))
	// Oversize claim: one entry promised, its key length far beyond the cap.
	f.Add([]byte{1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}, byte(2))
	f.Add([]byte{}, byte(1))
	f.Fuzz(func(t *testing.T, data []byte, step byte) {
		st := NewStore()
		sink := st.RestoreSink()
		stride := int(step)%7 + 1
		var writeErr error
		for off := 0; off < len(data) && writeErr == nil; off += stride {
			writeErr = sink.Write(data[off:min(off+stride, len(data))])
		}
		committed := false
		if writeErr == nil {
			committed = sink.Commit() == nil
		}

		direct := NewStore()
		directErr := direct.Restore(data)
		if committed != (directErr == nil) {
			// The one legitimate divergence: Restore tolerates duplicate
			// U32 length claims the sink also tolerates — so any mismatch
			// is a real parser disagreement.
			t.Fatalf("sink committed=%v, Restore err=%v — streaming and monolithic restore disagree", committed, directErr)
		}
		if committed {
			if !bytes.Equal(st.Snapshot(), direct.Snapshot()) {
				t.Fatal("streaming and monolithic restore produced different states")
			}
			// Committed state is canonical: its snapshot restores to itself.
			again := NewStore()
			if err := again.Restore(st.Snapshot()); err != nil {
				t.Fatalf("re-restore of committed state failed: %v", err)
			}
		}
		checkChunk(t, data)
	})
}

// checkChunk takes data as one checkpoint chunk from a peer.
func checkChunk(t *testing.T, data []byte) {
	var payloads [][]byte
	framing := EachRecord(data, func(p []byte) error {
		payloads = append(payloads, p)
		return nil
	})
	if _, err := ChunkDigest(data); (err == nil) != (framing == nil) {
		t.Fatalf("ChunkDigest err=%v, EachRecord err=%v", err, framing)
	}

	// Native sink: accepts exactly the chunks whose every record is one
	// well-formed entry, and installs exactly those entries.
	want := NewStore()
	entries := framing
	for _, p := range payloads {
		r := wire.NewReader(p)
		k, v := r.String(), r.String()
		if err := r.Finish(); err != nil && entries == nil {
			entries = err
		}
		want.put([]byte(k), []byte(v))
	}
	st := NewStore()
	st.Execute([]byte("PUT before 1"))
	before := st.Snapshot()
	sink := st.ChunkSink()
	if err := sink.Write(data); (err == nil) != (entries == nil) {
		t.Fatalf("store chunk sink err=%v, records parse err=%v", err, entries)
	}
	if err := sink.Commit(); (err == nil) != (entries == nil) {
		t.Fatalf("store chunk sink commit err=%v after write verdict %v", err, entries)
	}
	if entries == nil {
		if !bytes.Equal(st.Snapshot(), want.Snapshot()) {
			t.Fatal("store chunk sink installed something other than the chunk's entries")
		}
		// What it installed restores from its own checkpoint.
		cp := st.Checkpoint(64)
		again := NewStore().ChunkSink()
		for i := 0; i < cp.NumChunks(); i++ {
			if err := again.Write(cp.Chunk(i)); err != nil {
				t.Fatalf("re-restore: %v", err)
			}
		}
	} else if !bytes.Equal(st.Snapshot(), before) {
		t.Fatal("a refused chunk changed the store")
	}

	// Adapter sink: strips the framing and must then agree with Restore on
	// the concatenated payloads.
	dst := NewStore()
	adapter := ChunkSinkOf(plainApp{dst})
	err := adapter.Write(data)
	if framing != nil && err == nil {
		t.Fatal("adapter sink accepted a chunk whose framing does not parse")
	}
	if err == nil {
		err = adapter.Commit()
	}
	if framing == nil {
		direct := NewStore()
		if derr := direct.Restore(bytes.Join(payloads, nil)); (derr == nil) != (err == nil) {
			t.Fatalf("adapter sink err=%v, Restore of the payloads err=%v", err, derr)
		} else if err == nil && !bytes.Equal(dst.Snapshot(), direct.Snapshot()) {
			t.Fatal("adapter sink and Restore produced different states")
		}
	}
}

// FuzzSnapshotIter checks the iterator against the monolithic snapshot for
// arbitrary store contents and piece sizes: concatenated pieces must be
// byte-identical to Snapshot() regardless of how the state splits.
func FuzzSnapshotIter(f *testing.F) {
	f.Add([]byte("PUT a 1\x00PUT b 2\x00DEL a"), uint16(7))
	f.Add([]byte("PUT k v"), uint16(1))
	f.Add([]byte{}, uint16(64))
	f.Fuzz(func(t *testing.T, script []byte, maxPiece uint16) {
		s := NewStore()
		for _, op := range bytes.Split(script, []byte{0}) {
			s.Execute(op)
		}
		it := s.SnapshotIter(int(maxPiece))
		w := wire.NewWriter(64)
		for {
			p, ok := it.Next()
			if !ok {
				break
			}
			w.Raw(p)
		}
		if !bytes.Equal(w.Bytes(), s.Snapshot()) {
			t.Fatalf("iterated snapshot differs from monolithic (%d vs %d bytes)", w.Len(), len(s.Snapshot()))
		}
	})
}
