package hybster

import (
	"bytes"
	"fmt"
	"sort"

	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/wire"
)

// Checkpoint snapshots are a composite of the client table and the
// application snapshot. The client table is replicated state, not a local
// cache: its per-client latest-executed sequence decides whether a request
// re-proposed across a view change executes or is skipped as a duplicate
// (see execute), and its cached results answer retransmissions. A state
// transfer that installed only the application state would leave the table
// missing every entry in the jumped gap — the transferred replica would
// later re-execute a request the rest of the cluster skips, overwriting
// newer application state with an older write and silently diverging. The
// realnet chaos suite caught exactly that: a replica cut off mid-stream
// state-transferred back in, then a view-change re-proposal replayed a
// gap-covered write only on that replica.
//
// The snapshot is transferred in chunks, not as one blob, and what CHECKPOINT
// votes agree on is the digest of a *chunk manifest*: one (length, digest)
// pair per chunk, the chunks of the client-table head first and those of the
// application after them. Quorum semantics are unchanged — f+1 matching
// manifest digests still make a checkpoint stable — but a joiner that has
// fetched the manifest can verify every chunk independently as it arrives,
// re-request exactly the missing ones, and stream the application chunks into
// a restore sink without ever materializing the whole snapshot.
//
// Chunks come from app.CheckpointOf: an immutable view of the application
// state whose chunk digests are built from per-record digests, so that an
// application which remembers them (app.Store) re-hashes only what was
// written since the last checkpoint, and whose chunk bytes are encoded only
// when a peer asks for them. A retained checkpoint therefore costs what
// changed, not what exists. The chunk layout is a function of the state
// alone — a replica that executed the whole log and one that was state-
// transferred in vote the same digest.

// snapshotVersion guards the head layout; a decoder seeing any other version
// rejects the snapshot (it would be verified against the agreed digest
// anyway, so this only sharpens the error). Version 3: the head is the
// version byte and the client table and nothing follows it — the application
// state travels as chunks of its own (version 2 appended the raw application
// snapshot to the head).
const snapshotVersion uint8 = 3

// encodeSnapshotHead serializes the snapshot's head: the version byte and
// the client table — in client-ID order, so every replica produces the
// identical byte string for identical state.
func (c *Core) encodeSnapshotHead() []byte {
	w := wire.NewWriter(64)
	w.U8(snapshotVersion)
	ids := make([]uint64, 0, len(c.clients))
	for id := range c.clients {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w.U32(uint32(len(ids)))
	for _, id := range ids {
		rec := c.clients[id]
		w.U64(id)
		w.U64(rec.lastSeq)
		w.U64(rec.seq)
		w.Bool(rec.read)
		w.Raw(rec.reqDigest[:])
		w.Bytes32(rec.result)
		w.U32(uint32(len(rec.keys)))
		for _, k := range rec.keys {
			w.String(k)
		}
	}
	return w.Bytes()
}

// decodeSnapshotHead parses a head produced by encodeSnapshotHead,
// consuming the buffer exactly. Heads come from peers, so decoding must not
// trust the layout — but the caller has already verified the enclosing chunks
// against the quorum-agreed manifest, so errors here indicate version skew,
// not forgery.
func decodeSnapshotHead(data []byte) (map[uint64]*clientRecord, error) {
	r := wire.NewReader(data)
	if v := r.U8(); v != snapshotVersion && r.Err() == nil {
		return nil, fmt.Errorf("snapshot version %d, want %d", v, snapshotVersion)
	}
	n := r.SliceLen()
	clients := make(map[uint64]*clientRecord, min(n, 4096))
	for i := 0; i < n; i++ {
		id := r.U64()
		rec := &clientRecord{
			lastSeq: r.U64(),
			seq:     r.U64(),
			read:    r.Bool(),
		}
		copy(rec.reqDigest[:], r.FixedBytes(len(msg.Digest{})))
		// The table outlives data (the fetch's accumulated head): each
		// record owns its result instead of pinning the whole head.
		rec.result = bytes.Clone(r.Bytes32())
		nk := r.SliceLen()
		for j := 0; j < nk; j++ {
			rec.keys = append(rec.keys, r.String())
		}
		clients[id] = rec
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return clients, nil
}

// Manifest layout limits. maxManifestChunks bounds the table allocation when
// decoding a manifest received from an untrusted peer (36 MiB at the cap —
// far above any real snapshot, far below a crash-by-allocation).
// manifestVersion 2 lists a length beside every digest: chunks are runs of
// whole records and no longer all one size (version 1 derived every length
// from a total and a fixed chunk size).
const (
	manifestMagic     = "TXCM"
	manifestVersion   = 2
	maxManifestChunks = 1 << 20
	manifestEntryLen  = 4 + len(msg.Digest{})
)

// snapshotManifest describes a chunked snapshot: the length and digest of
// every chunk, the first headChunks of which hold the client-table head. The
// digest of the *encoded manifest* is what CHECKPOINT votes agree on, so a
// joiner holding f+1 matching votes can verify first the manifest and then
// every chunk against evidence it trusts.
type snapshotManifest struct {
	headChunks uint32
	lens       []uint32     // encoded chunk lengths, in order
	chunks     []msg.Digest // chunk digests (app.ChunkDigest), in order
}

// nChunks returns the number of chunks the manifest describes.
func (m *snapshotManifest) nChunks() uint32 { return uint32(len(m.chunks)) }

// add appends the chunks of one checkpoint part to the table.
func (m *snapshotManifest) add(cp app.Checkpoint) {
	for i := 0; i < cp.NumChunks(); i++ {
		d, size := cp.ChunkInfo(i)
		m.lens = append(m.lens, uint32(size))
		m.chunks = append(m.chunks, d)
	}
}

// encode serializes the manifest canonically.
func (m *snapshotManifest) encode() []byte {
	w := wire.NewWriter(16 + len(m.chunks)*manifestEntryLen)
	w.Raw([]byte(manifestMagic))
	w.U8(manifestVersion)
	w.U32(m.headChunks)
	w.U32(uint32(len(m.chunks)))
	for i := range m.chunks {
		w.U32(m.lens[i])
		w.Raw(m.chunks[i][:])
	}
	return w.Bytes()
}

// decodeManifest parses and validates a manifest received from a peer. The
// caller verifies the raw bytes against the agreed checkpoint digest before
// trusting the contents; validation here bounds allocations and rejects
// internally inconsistent layouts so the fetch state machine can rely on the
// table (chunk count, head split, per-chunk lengths) downstream.
func decodeManifest(data []byte) (*snapshotManifest, error) {
	r := wire.NewReader(data)
	if magic := r.FixedBytes(len(manifestMagic)); r.Err() == nil && string(magic) != manifestMagic {
		return nil, fmt.Errorf("manifest magic %q, want %q", magic, manifestMagic)
	}
	if v := r.U8(); r.Err() == nil && v != manifestVersion {
		return nil, fmt.Errorf("manifest version %d, want %d", v, manifestVersion)
	}
	m := &snapshotManifest{headChunks: r.U32()}
	n := r.U32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n > maxManifestChunks {
		return nil, fmt.Errorf("manifest claims %d chunks, cap %d", n, maxManifestChunks)
	}
	// Bound the table allocation by the bytes actually present: a short
	// message claiming a huge table must fail before allocating it.
	if uint64(n)*uint64(manifestEntryLen) != uint64(r.Remaining()) {
		return nil, fmt.Errorf("manifest claims %d chunks with %d bytes left", n, r.Remaining())
	}
	// The head is never empty: at least the version byte and the client count.
	if m.headChunks == 0 || m.headChunks > n {
		return nil, fmt.Errorf("manifest claims %d head chunks of %d", m.headChunks, n)
	}
	m.lens = make([]uint32, n)
	m.chunks = make([]msg.Digest, n)
	for i := range m.chunks {
		// A chunk travels as one message field, so no honest length
		// exceeds the field limit; zero would be a chunk with no record.
		if m.lens[i] = r.U32(); m.lens[i] == 0 || m.lens[i] > wire.MaxBytesLen {
			return nil, fmt.Errorf("manifest chunk %d length %d out of range", i, m.lens[i])
		}
		copy(m.chunks[i][:], r.FixedBytes(len(msg.Digest{})))
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// chunkedSnapshot is a retained checkpoint in serving form: the encoded
// manifest and the two checkpoint views its chunks are encoded from on
// demand. digest is the digest of the encoded manifest — the value
// CHECKPOINT votes carry; hashed is how many bytes producing it hashed.
type chunkedSnapshot struct {
	manifestBytes []byte
	digest        msg.Digest
	head, app     app.Checkpoint
	hashed        int
}

// chunk encodes chunk i.
func (cs *chunkedSnapshot) chunk(i uint32) ([]byte, bool) {
	if h := uint32(cs.head.NumChunks()); i < h {
		return cs.head.Chunk(int(i)), true
	} else if i-h < uint32(cs.app.NumChunks()) {
		return cs.app.Chunk(int(i - h)), true
	}
	return nil, false
}

// buildChunkedSnapshot cuts a checkpoint of the current state — the encoded
// client table and the application — and derives its manifest.
// SnapshotChunkSize bounds every chunk that is not a single larger record.
func (c *Core) buildChunkedSnapshot() *chunkedSnapshot {
	cs := &chunkedSnapshot{
		head: app.CheckpointOfBytes(c.encodeSnapshotHead(), c.cfg.SnapshotChunkSize),
		app:  app.CheckpointOf(c.cfg.App, c.cfg.SnapshotChunkSize),
	}
	n := cs.head.NumChunks() + cs.app.NumChunks()
	m := &snapshotManifest{
		headChunks: uint32(cs.head.NumChunks()),
		lens:       make([]uint32, 0, n),
		chunks:     make([]msg.Digest, 0, n),
	}
	m.add(cs.head)
	m.add(cs.app)
	cs.manifestBytes = m.encode()
	cs.digest = msg.DigestOf(cs.manifestBytes)
	cs.hashed = cs.head.HashedBytes() + cs.app.HashedBytes() + len(cs.manifestBytes)
	return cs
}
