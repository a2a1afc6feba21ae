// Package wire provides small binary-encoding helpers used by all wire
// messages in the system. The encoding is deliberately simple: fixed-width
// little-endian integers and length-prefixed byte strings. Every message in
// internal/msg is marshalled with a Writer and unmarshalled with a Reader so
// that the exact same bytes flow through the real TCP transport and the
// simulated network (message sizes in the simulator are the real encoded
// sizes, not estimates).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Encoding limits. They bound allocations when decoding data received from
// untrusted peers; a correct component discards messages it cannot verify,
// and it must not be crashable by a length field pointing at 2^32 bytes.
const (
	// MaxBytesLen is the maximum length of a single length-prefixed byte
	// string. Large application payloads (HTTP pages, KV values) stay well
	// below this.
	MaxBytesLen = 64 << 20 // 64 MiB

	// MaxSliceLen is the maximum element count of an encoded slice.
	MaxSliceLen = 1 << 20
)

var (
	// ErrTruncated reports that the buffer ended before a field was complete.
	ErrTruncated = errors.New("wire: truncated input")

	// ErrTooLarge reports a length field exceeding the configured limits.
	ErrTooLarge = errors.New("wire: length exceeds limit")

	// ErrTrailing reports unconsumed bytes after a complete decode.
	ErrTrailing = errors.New("wire: trailing bytes after message")
)

// Writer accumulates an encoded message. The zero value is ready to use.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with the given initial capacity hint.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded bytes. The returned slice aliases the writer's
// internal buffer; callers must not retain it across further writes.
func (w *Writer) Bytes() []byte { return w.buf }

// Reset truncates the writer for reuse, keeping the allocated buffer.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// CopyBytes returns a copy of the encoded bytes, safe to retain after the
// writer is reset or returned to the pool.
func (w *Writer) CopyBytes() []byte {
	// The compiler fuses make+copy into one allocation that is not cleared
	// first only when the source is a local, not a field: bound here, every
	// owned body is written once (`make copy-gate` reads the assembly).
	buf := w.buf
	out := make([]byte, len(buf))
	copy(out, buf)
	return out
}

// Encoder-buffer pool. Every message encode on the hot path (transport
// framing, digests, MAC inputs) runs through a Writer; pooling the buffers
// removes one allocation plus the append-growth garbage per encode. Writers
// whose buffer grew beyond pooledWriterCap are dropped instead of pooled so
// a rare giant message (e.g. a multi-megabyte page) cannot pin memory. The
// cap sits above the two largest messages that are routine — a full batch of
// sixteen 4 KiB operations and a 64 KiB state chunk, each a little over
// 64 KiB with its headers: at 64 KiB both fell just outside the pool and
// regrew a writer from 512 bytes for every PREPARE.
const pooledWriterCap = 128 << 10

var writerPool = sync.Pool{
	New: func() any { return &Writer{buf: make([]byte, 0, 512)} },
}

// GetWriter returns an empty pooled Writer. Release it with PutWriter after
// copying out any bytes still needed (Bytes aliases the pooled buffer).
func GetWriter() *Writer {
	w := writerPool.Get().(*Writer)
	w.Reset()
	return w
}

// PutWriter returns a Writer obtained from GetWriter to the pool.
func PutWriter(w *Writer) {
	if w == nil || cap(w.buf) > pooledWriterCap {
		return
	}
	writerPool.Put(w)
}

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// U8 appends a single byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 appends a little-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Bytes32 appends a length-prefixed byte string (uint32 length).
func (w *Writer) Bytes32(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) { w.buf = AppendString(w.buf, s) }

// AppendString appends s to b in Writer.String's format, for callers that
// encode into a buffer of their own.
func AppendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// Raw appends bytes verbatim with no length prefix.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Reader decodes a message from a byte slice. Methods record the first error
// encountered; callers may check Err once after decoding all fields.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over b. The reader does not copy b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of undecoded bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Offset returns the number of bytes decoded so far. With Span it lets a
// decoder keep a run of fields it has walked as one view, still encoded.
func (r *Reader) Offset() int { return r.off }

// Span returns the bytes decoded since the reader stood at offset from, as a
// cap-limited view of the buffer like Bytes32 (nil after a decoding error).
func (r *Reader) Span(from int) []byte {
	if r.err != nil {
		return nil
	}
	return r.buf[from:r.off:r.off]
}

// Finish returns an error if decoding failed or bytes remain unconsumed.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d bytes", ErrTrailing, len(r.buf)-r.off)
	}
	return nil
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.fail(ErrTruncated)
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// U8 decodes a single byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 decodes a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 decodes a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 decodes a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Bool decodes a one-byte boolean; any nonzero byte is true.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// Bytes32 decodes a length-prefixed byte string as a view of the reader's
// buffer: no copy is made, and the slice is cap-limited so that an append by
// the caller reallocates and cannot write into the field behind it. The view
// is valid as long as the buffer is, and shares its contents — it must be
// neither modified in place nor stored in anything that outlives the buffer's
// owner without copying first (DESIGN.md §5, "Buffer ownership on the
// request path").
func (r *Reader) Bytes32() []byte {
	n := r.U32()
	if r.err != nil || n == 0 {
		return nil
	}
	if n > MaxBytesLen {
		r.fail(ErrTooLarge)
		return nil
	}
	return r.take(int(n))
}

// String decodes a length-prefixed string.
func (r *Reader) String() string {
	n := r.U32()
	if r.err != nil {
		return ""
	}
	if n > MaxBytesLen {
		r.fail(ErrTooLarge)
		return ""
	}
	b := r.take(int(n))
	return string(b)
}

// FixedBytes decodes exactly n bytes with no length prefix, as a view of the
// reader's buffer like Bytes32. Fixed-size fields (digests) are copied out of
// it into their array by the caller.
func (r *Reader) FixedBytes(n int) []byte { return r.take(n) }

// SliceLen decodes and validates a slice length header.
func (r *Reader) SliceLen() int {
	n := r.U32()
	if r.err != nil {
		return 0
	}
	if n > MaxSliceLen {
		r.fail(ErrTooLarge)
		return 0
	}
	return int(n)
}

// Frame I/O: every TCP connection in realnet exchanges length-prefixed
// frames. The 4-byte header holds the payload length.

// MaxFrameLen bounds a single transport frame.
const MaxFrameLen = MaxBytesLen + (1 << 16)

// WriteFrame writes one length-prefixed frame to w.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameLen {
		return fmt.Errorf("%w: frame of %d bytes", ErrTooLarge, len(payload))
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("write frame header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("write frame payload: %w", err)
	}
	return nil
}

// ReadFrame reads one length-prefixed frame from r.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("read frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFrameLen {
		return nil, fmt.Errorf("%w: frame of %d bytes", ErrTooLarge, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("read frame payload: %w", err)
	}
	return payload, nil
}

// In-place frame building: the specialized transport encodes the 4-byte
// frame header and the payload into one pooled buffer, so a ring slot is a
// single contiguous iovec entry for the vectored write — no intermediate
// copy, no per-frame allocation.

// BeginFrame reserves space for a frame header at the writer's current
// position and returns a mark to pass to EndFrame once the payload has been
// appended.
func (w *Writer) BeginFrame() int {
	w.U32(0)
	return w.Len()
}

// EndFrame patches the header reserved by BeginFrame with the number of
// payload bytes appended since. It fails if the payload outgrew MaxFrameLen.
func (w *Writer) EndFrame(mark int) error {
	n := w.Len() - mark
	if n > MaxFrameLen {
		return fmt.Errorf("%w: frame of %d bytes", ErrTooLarge, n)
	}
	binary.LittleEndian.PutUint32(w.buf[mark-4:mark], uint32(n))
	return nil
}

// AppendFramePayload appends one complete length-prefixed frame carrying
// payload to w. It is WriteFrame without the io.Writer: the frame lands in
// w's buffer, ready to join a vectored write.
func AppendFramePayload(w *Writer, payload []byte) error {
	mark := w.BeginFrame()
	w.Raw(payload)
	return w.EndFrame(mark)
}

// Batched frame ingress: the ring transport's receive side mirrors its send
// side. ReadFrame on a raw connection costs two blocking reads and one
// allocation per frame; a ChunkReader instead drains whatever the socket has
// buffered into a large chunk with a single read syscall and slices frames
// out of it, so a coalesced burst arriving from a vectored write is consumed
// at one syscall and one allocation per chunk rather than per frame.

// chunkSize is the ingress chunk allocation unit. Frames larger than a chunk
// get a dedicated allocation of their exact size.
const chunkSize = 64 << 10

// ChunkReader reads length-prefixed frames from r in batched chunks.
// It is not safe for concurrent use.
type ChunkReader struct {
	r   io.Reader
	buf []byte // current chunk; never reused once frames alias it
	off int    // consumed bytes
	end int    // filled bytes
}

// NewChunkReader returns a ChunkReader over r.
func NewChunkReader(r io.Reader) *ChunkReader {
	return &ChunkReader{r: r}
}

// ReadFrame returns the next frame's payload. The slice aliases the reader's
// current chunk and stays valid indefinitely: chunks are never recycled, so
// the garbage collector reclaims one when every frame sliced from it is dead.
// Errors match ReadFrame's: a clean close at a frame boundary surfaces as a
// header read error wrapping io.EOF.
func (c *ChunkReader) ReadFrame() ([]byte, error) {
	for {
		if c.end-c.off >= 4 {
			n := int(binary.LittleEndian.Uint32(c.buf[c.off:]))
			if n > MaxFrameLen {
				return nil, fmt.Errorf("%w: frame of %d bytes", ErrTooLarge, n)
			}
			if c.end-c.off >= 4+n {
				payload := c.buf[c.off+4 : c.off+4+n : c.off+4+n]
				c.off += 4 + n
				return payload, nil
			}
			if err := c.fill(4 + n); err != nil {
				return nil, fmt.Errorf("read frame payload: %w", err)
			}
			continue
		}
		if err := c.fill(4); err != nil {
			return nil, fmt.Errorf("read frame header: %w", err)
		}
	}
}

// fill grows the buffered window to at least need bytes, starting a fresh
// chunk when the current one's tail cannot hold them. Pending bytes are
// copied to the new chunk, never compacted in place: frames already returned
// still alias the old one.
func (c *ChunkReader) fill(need int) error {
	if len(c.buf)-c.off < need {
		size := chunkSize
		if need > size {
			size = need
		}
		buf := make([]byte, size)
		copy(buf, c.buf[c.off:c.end])
		c.end -= c.off
		c.off = 0
		c.buf = buf
	}
	for c.end-c.off < need {
		n, err := c.r.Read(c.buf[c.end:])
		c.end += n
		if c.end-c.off >= need {
			return nil
		}
		if err != nil {
			if err == io.EOF && c.end > c.off {
				return io.ErrUnexpectedEOF
			}
			return err
		}
		if n == 0 {
			return io.ErrUnexpectedEOF
		}
	}
	return nil
}

// SizeBytes32 returns the encoded size of a Bytes32 field.
func SizeBytes32(b []byte) int { return 4 + len(b) }
