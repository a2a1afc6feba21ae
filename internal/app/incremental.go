package app

import "errors"

// Incremental snapshot support: an application that can produce and consume
// its monolithic snapshot piecewise never has to hold a second full copy of
// it. The checkpoint adapter (checkpoint.go) builds on this for applications
// without native checkpoints: it reads the snapshot through the iterator and
// restores through the sink. The contract is byte-exact: the
// concatenation of every piece an iterator yields must equal Snapshot(), and
// feeding exactly those bytes through a RestoreSink followed by Commit must
// be equivalent to Restore of the same snapshot.

// ChunkIterator yields successive pieces of a snapshot in order. Pieces may
// have any nonzero length up to the iterator's configured bound; the stream
// ends when Next reports false. The iterator must be drained before the
// application executes further operations.
type ChunkIterator interface {
	// Next returns the next piece, or ok=false when the stream is complete.
	// The returned slice is owned by the caller.
	Next() (piece []byte, ok bool)
}

// RestoreSink consumes a snapshot stream piecewise. Write boundaries carry no
// meaning — the sink must accept any split of the byte stream. Commit
// atomically replaces the application state; until then the visible state is
// unchanged, so a failed or abandoned transfer leaves the application intact.
type RestoreSink interface {
	// Write feeds the next bytes of the snapshot stream. An error is
	// terminal for the sink.
	Write(p []byte) error

	// Commit validates that the stream is complete and swaps it in.
	Commit() error
}

// Incremental is implemented by applications that can snapshot and restore
// piecewise. Applications without it still work: SnapshotIterOf and
// RestoreSinkOf fall back to materializing the full snapshot in memory.
type Incremental interface {
	Application

	// SnapshotIter starts iterating the current snapshot in pieces of at
	// most maxPiece bytes (a piece may exceed maxPiece only if a single
	// indivisible entry does).
	SnapshotIter(maxPiece int) ChunkIterator

	// RestoreSink starts a piecewise restore.
	RestoreSink() RestoreSink
}

// SnapshotIterOf returns a chunk iterator over a's snapshot, using the
// incremental path when a supports it and materializing Snapshot() otherwise.
func SnapshotIterOf(a Application, maxPiece int) ChunkIterator {
	if maxPiece <= 0 {
		maxPiece = 64 << 10
	}
	if inc, ok := a.(Incremental); ok {
		return inc.SnapshotIter(maxPiece)
	}
	return &sliceIter{buf: a.Snapshot(), max: maxPiece}
}

// RestoreSinkOf returns a restore sink for a, using the incremental path when
// a supports it and buffering the whole stream for Restore otherwise.
func RestoreSinkOf(a Application) RestoreSink {
	if inc, ok := a.(Incremental); ok {
		return inc.RestoreSink()
	}
	return &bufferSink{app: a}
}

// sliceIter serves a materialized snapshot in maxPiece-sized slices.
type sliceIter struct {
	buf []byte
	off int
	max int
}

func (it *sliceIter) Next() ([]byte, bool) {
	if it.off >= len(it.buf) {
		return nil, false
	}
	end := min(it.off+it.max, len(it.buf))
	piece := it.buf[it.off:end]
	it.off = end
	return piece, true
}

// bufferSink accumulates the stream and restores in one shot at Commit.
type bufferSink struct {
	app Application
	buf []byte
	err error
}

func (sk *bufferSink) Write(p []byte) error {
	if sk.err != nil {
		return sk.err
	}
	sk.buf = append(sk.buf, p...)
	return nil
}

func (sk *bufferSink) Commit() error {
	if sk.err != nil {
		return sk.err
	}
	sk.err = errors.New("app: restore sink already committed")
	return sk.app.Restore(sk.buf)
}
