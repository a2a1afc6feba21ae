package securechannel

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"github.com/troxy-bft/troxy/internal/testutil"
)

// collect opens record into dst and returns the frames as a slice.
func collect(s *Session, dst, record []byte) ([][]byte, error) {
	frames, err := s.OpenFrames(dst, record)
	if err != nil {
		return nil, err
	}
	return slices.Collect(frames.All()), nil
}

// checkFrameViews holds an opened record to what a view promises: the frames
// lie in the plaintext, in order, each behind its header and none overlapping
// another, and appending to one cannot reach the next.
func checkFrameViews(t testing.TB, f Frames) {
	t.Helper()
	off := 0
	for frame := range f.All() {
		if f.typ == frameCoalesced {
			off += 4
		}
		if off+len(frame) > len(f.plaintext) {
			t.Fatalf("frame of %d bytes at offset %d lies outside the %d-byte plaintext", len(frame), off, len(f.plaintext))
		}
		if len(frame) > 0 && &frame[0] != &f.plaintext[off] {
			t.Fatalf("frame at offset %d is not a view of the plaintext", off)
		}
		if cap(frame) != len(frame) {
			t.Fatalf("frame at offset %d has %d bytes of spare capacity", off, cap(frame)-len(frame))
		}
		off += len(frame)
	}
	if f.typ != 0 && off != len(f.plaintext) {
		t.Fatalf("frames cover %d of %d plaintext bytes", off, len(f.plaintext))
	}
}

// TestOpenFramesIntoScratch: a record opens the same way into a buffer the
// caller lends as into none, leaves the record as it was, and lands in the
// lent buffer whenever that is large enough.
func TestOpenFramesIntoScratch(t *testing.T) {
	payloads := [][]byte{[]byte("one"), {}, bytes.Repeat([]byte{7}, 300)}
	seal := map[string]func(*Session) ([]byte, error){
		"plain":     func(s *Session) ([]byte, error) { return s.Seal(payloads[2]) },
		"coalesced": func(s *Session) ([]byte, error) { return s.SealFrames(payloads) },
	}
	for name, sealRecord := range seal {
		for _, room := range []int{0, 16, 320, 4096} { // 320: just enough for either plaintext
			client, server := handshake(t)
			record, err := sealRecord(client)
			if err != nil {
				t.Fatal(err)
			}
			pristine := bytes.Clone(record)
			reference := *server // the same receive state, to open the record a second time

			want, err := collect(&reference, nil, record)
			if err != nil {
				t.Fatalf("%s: OpenFrames(nil): %v", name, err)
			}
			scratch := bytes.Repeat([]byte{0xEE}, room)[:0]
			frames, err := server.OpenFrames(scratch, record)
			if err != nil {
				t.Fatalf("%s: OpenFrames(scratch of %d): %v", name, room, err)
			}
			got := slices.Collect(frames.All())
			if len(got) != len(want) {
				t.Fatalf("%s, room %d: %d frames, want %d", name, room, len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Errorf("%s, room %d: frame %d = %q, want %q", name, room, i, got[i], want[i])
				}
			}
			checkFrameViews(t, frames)
			if !bytes.Equal(record, pristine) {
				t.Errorf("%s, room %d: OpenFrames changed the record", name, room)
			}
			fits := room >= len(frames.plaintext)
			if inScratch := cap(scratch) > 0 && len(frames.plaintext) > 0 && &frames.plaintext[0] == &scratch[:1][0]; inScratch != fits {
				t.Errorf("%s, room %d: plaintext in the lent buffer = %v, want %v", name, room, inScratch, fits)
			}
			if next := frames.Scratch(); len(next) != 0 || cap(next) < len(frames.plaintext) {
				t.Errorf("%s, room %d: Scratch() = len %d cap %d, want the emptied %d-byte plaintext buffer", name, room, len(next), cap(next), len(frames.plaintext))
			}
		}
	}
}

// TestAppendSealBehindAHead: a record appended behind bytes the caller wrote
// first is the record Seal makes, leaves those bytes alone, lands in the
// caller's room when there is enough of it, and opens; an unestablished
// session hands dst back as it came.
func TestAppendSealBehindAHead(t *testing.T) {
	pt := []byte("a record behind an envelope head")
	for _, room := range []int{0, Overhead + len(pt) - 1, Overhead + len(pt)} {
		client, server := handshake(t)
		reference := *client // the same send state, to seal the record a second time
		want, err := reference.Seal(pt)
		if err != nil {
			t.Fatal(err)
		}
		head := []byte("head")
		dst := append(make([]byte, 0, len(head)+room), head...)
		got, err := client.AppendSeal(dst, pt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:len(head)], head) || !bytes.Equal(got[len(head):], want) {
			t.Fatalf("room %d: appended %x behind %q, want %x", room, got[len(head):], got[:len(head)], want)
		}
		if inRoom := &got[0] == &dst[0]; inRoom != (room >= Overhead+len(pt)) {
			t.Errorf("room %d: record in the caller's buffer = %v", room, inRoom)
		}
		if opened, err := server.Open(got[len(head):]); err != nil || !bytes.Equal(opened, pt) {
			t.Errorf("room %d: opened %q, %v", room, opened, err)
		}
	}
	if got, err := (&Session{}).AppendSeal([]byte("head"), pt); !errors.Is(err, ErrNotEstablished) || string(got) != "head" {
		t.Errorf("unestablished AppendSeal = %q, %v", got, err)
	}
}

// TestFramesScratchDropsGiantBuffer: the buffer a giant record grew is not
// handed back for reuse.
func TestFramesScratchDropsGiantBuffer(t *testing.T) {
	client, server := handshake(t)
	record, err := client.Seal(make([]byte, 2*MaxCoalescedPlaintext+1))
	if err != nil {
		t.Fatal(err)
	}
	frames, err := server.OpenFrames(nil, record)
	if err != nil {
		t.Fatal(err)
	}
	if got := frames.Scratch(); got != nil {
		t.Errorf("Scratch() kept a %d-byte buffer", cap(got))
	}
}

// TestOpenFramesRejectedRecordYieldsNothing: a coalesced record that
// authenticates but is malformed is refused as a whole — whatever precedes
// the defect included — and has still consumed its sequence number.
func TestOpenFramesRejectedRecordYieldsNothing(t *testing.T) {
	for name, pt := range malformedCoalesced {
		client, server := handshake(t)
		frames, err := server.OpenFrames(nil, sealRawCoalesced(t, client, pt))
		if !errors.Is(err, ErrRecord) {
			t.Errorf("%s: error = %v", name, err)
		}
		for frame := range frames.All() {
			t.Errorf("%s: rejected record yielded %q", name, frame)
		}
		if server.recvSeq != 1 {
			t.Errorf("%s: recvSeq = %d after an authenticated record, want 1", name, server.recvSeq)
		}
	}
}

// malformedCoalesced are plaintexts no SealFrames produces.
var malformedCoalesced = map[string][]byte{
	"empty coalesced record":      nil,
	"truncated header":            {1, 0, 0, 0, 'x', 9, 0},
	"truncated sub-frame":         {1, 0, 0, 0, 'x', 9, 0, 0, 0, 'y'},
	"length beyond the plaintext": {0xff, 0xff, 0xff, 0x7f},
}

// TestConnCoalescedRecordAcrossReads: one record carrying several frames is
// surfaced as one byte stream however the reader cuts it, and the buffer it
// was decrypted into takes the next record only once it has been read dry.
func TestConnCoalescedRecordAcrossReads(t *testing.T) {
	testutil.CheckGoroutines(t)
	client, server := connPair(t, nil)

	first := make([]byte, 2*maxRecordPlaintext+5000) // three frames in one record
	for i := range first {
		first[i] = byte(i * 7)
	}
	second := bytes.Repeat([]byte("next record "), 100)
	go func() {
		for _, p := range [][]byte{first, second} {
			if _, err := client.Write(p); err != nil {
				t.Errorf("client write: %v", err)
			}
		}
	}()

	var got []byte
	buf := make([]byte, 4099) // cuts across the frame boundaries
	for len(got) < len(first)+len(second) {
		n, err := server.Read(buf)
		if err != nil {
			t.Fatalf("server read after %d bytes: %v", len(got), err)
		}
		got = append(got, buf[:n]...)
	}
	if !bytes.Equal(got, append(bytes.Clone(first), second...)) {
		t.Error("stream corrupted across reads of a coalesced record")
	}
}

// BenchmarkAllocGate: opening a record into a lent buffer and walking its
// frames allocates nothing, plain or coalesced.
func BenchmarkAllocGate(b *testing.B) {
	client, server := handshake(b)
	plain, err := client.Seal(bytes.Repeat([]byte{1}, 128))
	if err != nil {
		b.Fatal(err)
	}
	batch := make([][]byte, 16)
	for i := range batch {
		batch[i] = bytes.Repeat([]byte{byte(i)}, 128)
	}
	coalesced, err := client.SealFrames(batch)
	if err != nil {
		b.Fatal(err)
	}
	scratch := make([]byte, 0, 4096)
	open := func(seq uint64, record []byte, want int) func() {
		return func() {
			server.recvSeq = seq // the same record again
			frames, err := server.OpenFrames(scratch, record)
			if n := plaintextBytes(frames); err != nil || n != want {
				b.Fatalf("walked %d plaintext bytes, want %d (error %v)", n, want, err)
			}
			scratch = frames.Scratch()
		}
	}
	testutil.AllocGate(b, "OpenFramesPlain", 0, open(0, plain, 128))
	testutil.AllocGate(b, "OpenFramesCoalesced16", 0, open(1, coalesced, 16*128))

	// A record sealed into room its caller brought — the Troxy's record
	// buffer, a client's envelope body — allocates nothing.
	pt := bytes.Repeat([]byte{2}, 128)
	room := make([]byte, 0, 12+Overhead+len(pt))
	testutil.AllocGate(b, "AppendSealIntoRoom", 0, func() {
		var err error
		if room, err = client.AppendSeal(room[:12], pt); err != nil || len(room) != 12+Overhead+len(pt) {
			b.Fatalf("%d bytes, %v", len(room), err)
		}
	})
}

func plaintextBytes(frames Frames) (n int) {
	for frame := range frames.All() {
		n += len(frame)
	}
	return n
}
