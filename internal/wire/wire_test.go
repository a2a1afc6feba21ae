package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

func TestRoundTripScalars(t *testing.T) {
	w := NewWriter(64)
	w.U8(0xab)
	w.U32(0xdeadbeef)
	w.U64(0x0123456789abcdef)
	w.I64(-42)
	w.Bool(true)
	w.Bool(false)

	r := NewReader(w.Bytes())
	if got := r.U8(); got != 0xab {
		t.Errorf("U8 = %#x, want 0xab", got)
	}
	if got := r.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %#x, want 0xdeadbeef", got)
	}
	if got := r.U64(); got != 0x0123456789abcdef {
		t.Errorf("U64 = %#x", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d, want -42", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip failed")
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestRoundTripBytesAndStrings(t *testing.T) {
	cases := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{7}, 4096)}
	for _, c := range cases {
		w := NewWriter(16)
		w.Bytes32(c)
		w.String(string(c))
		r := NewReader(w.Bytes())
		if got := r.Bytes32(); !bytes.Equal(got, c) {
			t.Errorf("Bytes32 round trip: got %d bytes, want %d", len(got), len(c))
		}
		if got := r.String(); got != string(c) {
			t.Errorf("String round trip mismatch for len %d", len(c))
		}
		if err := r.Finish(); err != nil {
			t.Fatalf("Finish: %v", err)
		}
	}
}

// TestDecodedFieldsAreCapLimitedViews pins the reader's ownership rule: a
// decoded byte field is a view of the input (no copy), and appending to it
// reallocates instead of writing into the field that follows.
func TestDecodedFieldsAreCapLimitedViews(t *testing.T) {
	w := NewWriter(32)
	w.Bytes32([]byte("hello"))
	w.Raw([]byte("abc"))
	w.Bytes32([]byte("world"))
	buf := w.Bytes()
	want := append([]byte(nil), buf...)

	r := NewReader(buf)
	first, fixed, second := r.Bytes32(), r.FixedBytes(3), r.Bytes32()
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if &first[0] != &buf[4] || &fixed[0] != &buf[9] {
		t.Error("decoded fields were copied, want views of the input")
	}
	for _, f := range [][]byte{first, fixed, second} {
		if cap(f) != len(f) {
			t.Errorf("field %q has capacity %d beyond its length %d", f, cap(f), len(f))
		}
	}
	_ = append(first, '!')
	_ = append(fixed, '!')
	if !bytes.Equal(buf, want) || string(second) != "world" {
		t.Errorf("append to a decoded field wrote into its neighbour: %q", buf)
	}
}

func TestTruncated(t *testing.T) {
	w := NewWriter(16)
	w.U64(1)
	full := w.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		r.U64()
		if r.Err() == nil {
			t.Errorf("cut=%d: expected truncation error", cut)
		}
	}
}

func TestOversizedLength(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(MaxBytesLen+1))
	r := NewReader(hdr[:])
	if got := r.Bytes32(); got != nil {
		t.Errorf("Bytes32 on oversized length = %d bytes, want nil", len(got))
	}
	if r.Err() == nil {
		t.Error("expected ErrTooLarge")
	}
}

func TestTrailingBytes(t *testing.T) {
	w := NewWriter(8)
	w.U32(9)
	w.U8(1)
	r := NewReader(w.Bytes())
	r.U32()
	if err := r.Finish(); err == nil {
		t.Error("Finish with trailing bytes should fail")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{}, []byte("a"), bytes.Repeat([]byte{3}, 100000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	for _, p := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if !bytes.Equal(got, p) {
			t.Errorf("frame mismatch: got %d bytes, want %d", len(got), len(p))
		}
	}
}

func TestReadFrameRejectsHugeHeader(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(MaxFrameLen+1))
	// ErrTooLarge, not the EOF that follows an allocation of what the header claims.
	if _, err := ReadFrame(bytes.NewReader(hdr[:])); !errors.Is(err, ErrTooLarge) {
		t.Errorf("got %v, want ErrTooLarge", err)
	}
}

func TestQuickBytesRoundTrip(t *testing.T) {
	f := func(a, b []byte, s string, x uint64) bool {
		w := NewWriter(0)
		w.Bytes32(a)
		w.U64(x)
		w.Bytes32(b)
		w.String(s)
		r := NewReader(w.Bytes())
		ga := r.Bytes32()
		gx := r.U64()
		gb := r.Bytes32()
		gs := r.String()
		return r.Finish() == nil &&
			bytes.Equal(ga, a) && gx == x && bytes.Equal(gb, b) && gs == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickReaderNeverPanics(t *testing.T) {
	// Decoding arbitrary bytes must never panic, only error: decoders face
	// untrusted peers.
	f := func(b []byte) bool {
		r := NewReader(b)
		_ = r.U8()
		_ = r.Bytes32()
		_ = r.U32()
		_ = r.String()
		_ = r.SliceLen()
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSizeHelpers(t *testing.T) {
	if got := SizeBytes32([]byte("abc")); got != 7 {
		t.Errorf("SizeBytes32 = %d, want 7", got)
	}
}

func TestFixedBytes(t *testing.T) {
	r := NewReader([]byte{1, 2, 3, 4})
	got := r.FixedBytes(3)
	if len(got) != 3 || got[0] != 1 {
		t.Errorf("FixedBytes = %v", got)
	}
	if r.FixedBytes(2) != nil || r.Err() == nil {
		t.Error("overread not detected")
	}
}

func TestWriterConveniences(t *testing.T) {
	w := NewWriter(8)
	w.Raw([]byte{1, 2})
	w.String("ab")
	if w.Len() != 8 {
		t.Errorf("Len = %d", w.Len())
	}
	r := NewReader(w.Bytes())
	if got := r.FixedBytes(2); got[1] != 2 {
		t.Errorf("raw bytes = %v", got)
	}
	if got := r.String(); got != "ab" {
		t.Errorf("string = %q", got)
	}
}

func TestBeginEndFrameMatchesWriteFrame(t *testing.T) {
	// The in-place frame builder must produce byte-identical output to the
	// streaming WriteFrame path: receivers cannot tell which encoder ran.
	payloads := [][]byte{{}, []byte("a"), bytes.Repeat([]byte{7}, 100000)}
	w := NewWriter(0)
	var want bytes.Buffer
	for _, p := range payloads {
		mark := w.BeginFrame()
		w.Raw(p)
		if err := w.EndFrame(mark); err != nil {
			t.Fatalf("EndFrame: %v", err)
		}
		if err := WriteFrame(&want, p); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	if !bytes.Equal(w.Bytes(), want.Bytes()) {
		t.Error("BeginFrame/EndFrame encoding diverges from WriteFrame")
	}
	r := bytes.NewReader(w.Bytes())
	for _, p := range payloads {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if !bytes.Equal(got, p) {
			t.Errorf("frame mismatch: got %d bytes, want %d", len(got), len(p))
		}
	}
}

func TestAppendFramePayload(t *testing.T) {
	w := NewWriter(0)
	if err := AppendFramePayload(w, []byte("xyz")); err != nil {
		t.Fatalf("AppendFramePayload: %v", err)
	}
	got, err := ReadFrame(bytes.NewReader(w.Bytes()))
	if err != nil || !bytes.Equal(got, []byte("xyz")) {
		t.Errorf("round trip = %q, %v", got, err)
	}
}

func TestEndFrameRejectsOversizedPayload(t *testing.T) {
	// A Writer whose cursor sits MaxFrameLen+4 bytes past the header mark
	// models a payload one byte over the limit without building one byte at
	// a time.
	w := &Writer{buf: make([]byte, 4+MaxFrameLen+4)}
	if err := w.EndFrame(4); err == nil {
		t.Error("EndFrame accepted a payload beyond MaxFrameLen")
	}
}

func TestFrameEncodeZeroAlloc(t *testing.T) {
	// The pooled frame path is the transport's allocation budget: encoding a
	// frame into a caller-held Writer must not allocate at all once the
	// buffer has grown to size (the ring reuses writers across flushes).
	payload := bytes.Repeat([]byte{0x5c}, 1024)
	w := NewWriter(2048)
	if allocs := testing.AllocsPerRun(1000, func() {
		w.Reset()
		mark := w.BeginFrame()
		w.Raw(payload)
		if err := w.EndFrame(mark); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("frame encode allocates %.1f times per op, want 0", allocs)
	}
}

// chunkingReader hands out at most n bytes per Read, exercising partial
// fills and frames spanning chunk refills.
type chunkingReader struct {
	data []byte
	n    int
}

func (c *chunkingReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := c.n
	if n > len(p) {
		n = len(p)
	}
	if n > len(c.data) {
		n = len(c.data)
	}
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

func TestChunkReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{
		{},
		[]byte("a"),
		bytes.Repeat([]byte{3}, 100),
		bytes.Repeat([]byte{7}, chunkSize+5), // larger than one chunk
		[]byte("tail"),
	}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	// Dribble the stream in awkward sizes so frames straddle refills and
	// chunk boundaries.
	for _, step := range []int{1, 3, 1000, 1 << 20} {
		cr := NewChunkReader(&chunkingReader{data: append([]byte(nil), buf.Bytes()...), n: step})
		var got [][]byte
		for range payloads {
			p, err := cr.ReadFrame()
			if err != nil {
				t.Fatalf("step %d: ReadFrame: %v", step, err)
			}
			got = append(got, p)
		}
		// Earlier frames must survive later reads: chunks are never recycled.
		for i, p := range payloads {
			if !bytes.Equal(got[i], p) {
				t.Errorf("step %d: frame %d mismatch: got %d bytes, want %d", step, i, len(got[i]), len(p))
			}
		}
		if _, err := cr.ReadFrame(); !errors.Is(err, io.EOF) {
			t.Errorf("step %d: at stream end got %v, want io.EOF", step, err)
		}
	}
}

func TestChunkReaderTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		cr := NewChunkReader(bytes.NewReader(full[:cut]))
		if _, err := cr.ReadFrame(); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("cut at %d: got %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestChunkReaderRejectsHugeHeader(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(MaxFrameLen+1))
	cr := NewChunkReader(bytes.NewReader(hdr[:]))
	if _, err := cr.ReadFrame(); !errors.Is(err, ErrTooLarge) {
		t.Errorf("got %v, want ErrTooLarge", err)
	}
}
