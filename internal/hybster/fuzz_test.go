package hybster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/wire"
)

// Fuzz targets for the state-transfer decoders and the chunk assembler.
// Manifests, composite heads and chunks all arrive from peers that may be
// Byzantine; decoding must never panic, and whatever decodes must be
// internally consistent and canonical (re-encoding is a fixed point).

// fuzzSnapshot builds one small chunked snapshot shared by the fuzz targets
// (read-only; each iteration works on copies).
func fuzzSnapshot(chunkSize, window int) (*testReplica, *chunkedSnapshot) {
	srv := newStateCore(0, chunkSize, window)
	store := srv.core.cfg.App.(*app.Store)
	for i := 0; i < 12; i++ {
		store.Execute([]byte(fmt.Sprintf("PUT key-%d value-%d", i, i)))
	}
	srv.core.clients[3] = &clientRecord{lastSeq: 1, seq: 2, result: []byte("OK")}
	srv.core.clients[9] = &clientRecord{seq: 5, read: true, keys: []string{"key-1"}}
	return srv, srv.core.buildChunkedSnapshot()
}

func FuzzManifestDecode(f *testing.F) {
	_, cs := fuzzSnapshot(16, 4)
	const header = 4 + 1 + 4 + 4 // magic, version, head chunks, chunk count
	f.Add(cs.manifestBytes)
	f.Add(cs.manifestBytes[:len(cs.manifestBytes)-7]) // truncated table
	f.Add(cs.manifestBytes[:9])                       // truncated header
	// Oversize chunk-count claim: valid header, absurd table length.
	huge := append([]byte(nil), cs.manifestBytes[:header-4]...)
	huge = append(huge, 0xff, 0xff, 0xff, 0xff)
	f.Add(huge)
	// Oversize and zero chunk-length claims in an otherwise valid table.
	for _, l := range []uint32{0xffffffff, 0} {
		bad := append([]byte(nil), cs.manifestBytes...)
		binary.LittleEndian.PutUint32(bad[header:], l)
		f.Add(bad)
	}
	// More head chunks than chunks.
	bad := append([]byte(nil), cs.manifestBytes...)
	binary.LittleEndian.PutUint32(bad[5:], 0xffff)
	f.Add(bad)
	f.Add([]byte{})
	f.Add([]byte("TXCM"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err != nil {
			return
		}
		// Decoded tables must be sound: the assembler trusts the chunk
		// count, the head split and the lengths downstream.
		n := m.nChunks()
		if m.headChunks == 0 || m.headChunks > n || len(m.lens) != int(n) {
			t.Fatalf("decoded manifest with %d head chunks, %d chunks, %d lengths", m.headChunks, n, len(m.lens))
		}
		for i, l := range m.lens {
			if l == 0 || l > wire.MaxBytesLen {
				t.Fatalf("chunk %d length %d outside (0, %d]", i, l, wire.MaxBytesLen)
			}
		}
		// Canonical: re-encoding is a fixed point.
		re := m.encode()
		m2, err := decodeManifest(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !bytes.Equal(re, m2.encode()) {
			t.Fatal("manifest encoding not a fixed point")
		}
	})
}

func FuzzSnapshotHead(f *testing.F) {
	srv, _ := fuzzSnapshot(16, 4)
	head := srv.core.encodeSnapshotHead()
	f.Add(head)
	f.Add(head[:len(head)-3])
	f.Add((&Core{}).encodeSnapshotHead()) // empty table
	f.Add([]byte{snapshotVersion, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{snapshotVersion + 1, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		clients, err := decodeSnapshotHead(data)
		if err != nil {
			return
		}
		// Canonical: encoding the decoded table (sorted by client ID) must
		// itself decode, and re-encode byte-identically.
		enc := (&Core{clients: clients}).encodeSnapshotHead()
		c2, err := decodeSnapshotHead(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(c2) != len(clients) {
			t.Fatalf("round trip lost clients: %d -> %d", len(clients), len(c2))
		}
		if !bytes.Equal(enc, (&Core{clients: c2}).encodeSnapshotHead()) {
			t.Fatal("head encoding not a fixed point")
		}
	})
}

// FuzzChunkAssembly drives the fetch state machine with an adversarial chunk
// schedule — duplicates, overlaps (data of one index under another), stale
// and out-of-range indices, corrupted, truncated and mis-framed payloads —
// and checks the invariants the protocol promises: buffering stays within
// the window bound, every chunk that is not the server's is refused and
// attributed to its sender, and if the transfer completes, the installed
// state is exactly the server's.
func FuzzChunkAssembly(f *testing.F) {
	// Chunks hold whole records, so the size must admit one (24 bytes here)
	// for the window bound below to be the configured one.
	const chunkSize, window = 48, 4
	srv, cs := fuzzSnapshot(chunkSize, window)
	srvSnap := srv.core.cfg.App.(*app.Store).Snapshot()
	m, err := decodeManifest(cs.manifestBytes)
	if err != nil {
		f.Fatal(err)
	}
	n := m.nChunks()

	f.Add([]byte{0, 0, 1, 0, 2, 0})       // in-order prefix
	f.Add([]byte{2, 0, 1, 0, 0, 0, 2, 0}) // out of order with duplicate
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 0}) // corrupted, truncated, overlapped, then honest
	f.Add([]byte{0, 4, 1, 5, 0, 0})       // oversize record length, record cut short, then honest
	f.Add(bytes.Repeat([]byte{9, 0}, 8))  // hammer one out-of-window index
	inOrder := make([]byte, 0, 2*n)
	for i := uint32(0); i < n; i++ {
		inOrder = append(inOrder, byte(i), 0)
	}
	f.Add(inOrder) // full transfer
	f.Fuzz(func(t *testing.T, ops []byte) {
		var env fakeEnv
		fc := newStateCore(2, chunkSize, window).core
		fc.fetch = &stateFetch{seq: 8, digest: cs.digest, peers: []msg.NodeID{0, 1}}
		fc.OnStateReply(&env, 0, &StateReply{Seq: 8, Manifest: cs.manifestBytes})
		for i := 0; i+1 < len(ops); i += 2 {
			idx := uint32(ops[i]) % (n + 3) // includes out-of-range indices
			data, ok := cs.chunk(idx % n)   // encoded afresh, ours to mutate
			if !ok {
				t.Fatalf("no chunk %d", idx%n)
			}
			honest := ops[i+1]%6 == 0
			switch ops[i+1] % 6 {
			case 1: // tamper with an entry
				data[len(data)-1] ^= 0x01
			case 2: // truncate
				data = data[:len(data)-1]
			case 3: // overlap: this index, another index's bytes
				data, _ = cs.chunk((idx + 1) % n)
				honest = n == 1
			case 4: // oversize record length, chunk length kept
				binary.LittleEndian.PutUint32(data, 0xffffffff)
			case 5: // first record one byte short, chunk length kept
				binary.LittleEndian.PutUint32(data, binary.LittleEndian.Uint32(data)-1)
			}
			live := fc.fetch != nil && idx < n && idx >= fc.fetch.next && idx < fc.fetch.next+window
			before := fc.RejectedCertsFrom(1)
			fc.OnMessage(&env, 1, &StateChunk{Seq: 8, Index: idx, Data: data})
			if live && !honest && fc.RejectedCertsFrom(1) != before+1 {
				t.Fatalf("forged chunk %d (mutation %d) not refused and attributed", idx, ops[i+1]%6)
			}
			if fc.fetch != nil && fc.fetch.buffered > window*chunkSize {
				t.Fatalf("buffered %d bytes, window bound %d", fc.fetch.buffered, window*chunkSize)
			}
		}
		if fc.LastExecuted() == 8 {
			if !bytes.Equal(fc.cfg.App.(*app.Store).Snapshot(), srvSnap) {
				t.Fatal("completed transfer installed state differing from the server's")
			}
		}
	})
}
