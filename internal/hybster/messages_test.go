package hybster

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/wire"
)

// recoverySamples returns at least one message of every kind Open decodes
// itself.
func recoverySamples() []msg.Message {
	req := msg.OrderRequest{Origin: 2, Client: 77, ClientSeq: 1234, Flags: msg.FlagReadOnly, Op: []byte("GET key-17")}
	cert := func() msg.CounterCert {
		return msg.CounterCert{Replica: 1, Counter: 3, Value: 42, MAC: []byte("macmacmac")}
	}
	entry := PreparedEntry{View: 2, Seq: 129, Batch: msg.Batch{Reqs: []msg.OrderRequest{req}}, PrepareCert: cert()}
	newView := &NewView{Leader: 2, View: 2, ViewChanges: []ViewChange{
		{Replica: 1, NewView: 2, StableSeq: 128, Cert: cert()},
		{Replica: 2, NewView: 2, StableSeq: 128, Cert: cert()},
	}, Cert: cert()}
	return []msg.Message{
		&ViewChange{Replica: 1, NewView: 2, StableSeq: 128, StableDigest: msg.DigestOf([]byte("s")),
			Prepared: []PreparedEntry{entry}, Cert: cert()},
		newView,
		&StateRequest{Seq: 128, Chunks: []uint32{0, 3, 7}},
		&StateReply{Seq: 128, Manifest: []byte("manifest-bytes")},
		&StateChunk{Seq: 128, Index: 3, Data: []byte("chunk-bytes")},
		&StatePrefix{Seq: 128, LastExec: 131, Entries: []PreparedEntry{entry}},
		&StatePrefix{Seq: 128, LastExec: 131, Entries: []PreparedEntry{entry}, NewView: newView},
		&NewViewRequest{View: 2},
	}
}

// TestOpenRoundTripsTheRecoveryKinds: every recovery kind decodes to the
// message it was encoded from, and Open leaves the kinds msg decodes to
// msg.
func TestOpenRoundTripsTheRecoveryKinds(t *testing.T) {
	seen := map[msg.Kind]bool{}
	for _, m := range recoverySamples() {
		seen[m.Kind()] = true
		got, err := Open(msg.Seal(0, 1, m))
		if err != nil {
			t.Fatalf("Open(%s): %v", m.Kind(), err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%s round trip mismatch:\n got  %#v\n want %#v", m.Kind(), got, m)
		}
	}
	for k := msg.KindChannelData; k <= msg.KindReplyBatch; k++ {
		if _, err := (&msg.Envelope{Kind: k}).Open(); errors.Is(err, msg.ErrUnknownKind) != seen[k] {
			t.Errorf("%s: msg decodes it = %v, a recovery sample = %v", k, !errors.Is(err, msg.ErrUnknownKind), seen[k])
		}
	}
	cp := &msg.Checkpoint{Seq: 7}
	if got, err := Open(msg.Seal(0, 1, cp)); err != nil || !reflect.DeepEqual(got, cp) {
		t.Errorf("Open(Checkpoint) = %#v, %v", got, err)
	}
	if _, err := Open(&msg.Envelope{Kind: msg.KindStateChunk, Body: []byte{1, 2}}); err == nil {
		t.Error("a truncated StateChunk opened")
	}
}

// TestFailedDecodePreallocatesWithinBounds: a slice header is four bytes a
// peer chose, and the recovery decoders reserve room before the first
// element has decoded. Whatever a header claims — up to wire.MaxSliceLen — a
// decode that fails on the first element leaves no more than a small
// constant behind.
func TestFailedDecodePreallocatesWithinBounds(t *testing.T) {
	hostile := func(prefix int) *wire.Reader {
		w := wire.NewWriter(0)
		w.Raw(make([]byte, prefix))
		w.U32(wire.MaxSliceLen)
		return wire.NewReader(w.Bytes())
	}
	var (
		vc     ViewChange
		nv     NewView
		sreq   StateRequest
		prefix StatePrefix
	)
	cases := []struct {
		name   string
		decode func() error
		cap    func() int
		bound  int
	}{
		{"ViewChange.Prepared", func() error { return vc.UnmarshalWire(hostile(4 + 8 + 8 + 32)) }, func() int { return cap(vc.Prepared) }, 64},
		{"NewView.ViewChanges", func() error { return nv.UnmarshalWire(hostile(4 + 8)) }, func() int { return cap(nv.ViewChanges) }, 16},
		{"StateRequest.Chunks", func() error { return sreq.UnmarshalWire(hostile(8)) }, func() int { return cap(sreq.Chunks) }, 64},
		{"StatePrefix.Entries", func() error { return prefix.UnmarshalWire(hostile(8 + 8)) }, func() int { return cap(prefix.Entries) }, 64},
	}
	for _, tc := range cases {
		if err := tc.decode(); err == nil {
			t.Errorf("%s: a header of %d elements and no element decoded", tc.name, wire.MaxSliceLen)
		}
		if got := tc.cap(); got > tc.bound {
			t.Errorf("%s: a failed decode left room for %d elements, bound is %d", tc.name, got, tc.bound)
		}
	}
}

// FuzzOpen: whatever Open decodes re-encodes to a fixed point, and a
// recovery message — a kind msg does not decode — owns every byte it points
// to: its handler keeps it whole, so writing over the envelope's body after
// Open must leave the message as it was. The input is framed as msg's
// FuzzDecode frames it: the first byte is the kind, the rest the body.
func FuzzOpen(f *testing.F) {
	for _, m := range recoverySamples() {
		f.Add(append([]byte{byte(m.Kind())}, msg.EncodeBody(m)...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		e := &msg.Envelope{Kind: msg.Kind(data[0]), Body: bytes.Clone(data[1:])}
		m, err := Open(e)
		if err != nil {
			return
		}
		enc := msg.EncodeBody(m)
		again, err := Open(&msg.Envelope{Kind: e.Kind, Body: enc})
		if err != nil {
			t.Fatalf("a %s re-encoded from a decode does not decode: %v", e.Kind, err)
		}
		if !bytes.Equal(msg.EncodeBody(again), enc) {
			t.Fatalf("the encoding of a %s is not a fixed point", e.Kind)
		}
		if _, err := (&msg.Envelope{Kind: e.Kind}).Open(); !errors.Is(err, msg.ErrUnknownKind) {
			return // a view of the body, as msg decodes it
		}
		for i := range e.Body {
			e.Body[i] ^= 0xff
		}
		if !bytes.Equal(msg.EncodeBody(m), enc) {
			t.Fatalf("writing over the body of a %s after Open changed the message", e.Kind)
		}
	})
}
