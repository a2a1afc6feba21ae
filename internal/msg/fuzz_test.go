package msg

import (
	"bytes"
	"reflect"
	"testing"
)

// Fuzz targets: decoders face bytes from Byzantine peers and must never
// panic; whatever decodes must re-encode to an equivalent message. Decoding
// is by view, which adds two properties: it leaves the input untouched, and
// no decoded field can be used to write into the input or into another field.

// appendToByteFields appends one byte to every []byte reachable from v. A
// field that kept spare capacity over its neighbour would let the append
// write into the buffer it was decoded from.
func appendToByteFields(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			appendToByteFields(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				appendToByteFields(v.Field(i))
			}
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			_ = append(v.Bytes(), 0xA5)
			return
		}
		for i := 0; i < v.Len(); i++ {
			appendToByteFields(v.Index(i))
		}
	}
}

// checkView holds a decoded value to the view properties: input is what it
// was decoded from, pristine a copy taken before decoding, encode its
// canonical re-encoding.
func checkView(t *testing.T, what string, decoded any, input, pristine []byte, encode func() []byte) {
	t.Helper()
	if !bytes.Equal(input, pristine) {
		t.Fatalf("decoding %s modified its input", what)
	}
	before := encode()
	appendToByteFields(reflect.ValueOf(decoded))
	if !bytes.Equal(input, pristine) {
		t.Fatalf("appending to a decoded field of %s wrote into the input", what)
	}
	if !bytes.Equal(encode(), before) {
		t.Fatalf("appending to a decoded field of %s changed another field", what)
	}
}

// checkBatchViews walks a decoded reply batch the way a replica does — every
// reply into one reused OrderedReply — and holds each reply to the view
// properties. The replies that decode re-encode to exactly the bytes they
// were walked from, and no walk yields more than MaxBatchReplies.
func checkBatchViews(t *testing.T, batch *ReplyBatch, input, pristine []byte) {
	t.Helper()
	var rep OrderedReply
	walked := 0
	n := 0
	for it := batch.Iter(); ; n++ {
		more, _ := it.Next(&rep)
		if !more {
			break
		}
		enc := EncodeBody(&rep)
		if !bytes.Equal(enc, batch.Replies[walked:walked+len(enc)]) {
			t.Fatalf("reply %d of a batch does not re-encode to the bytes it was decoded from", n)
		}
		if rep.WireSize() != len(enc) {
			t.Fatalf("reply %d of a batch: WireSize = %d, encoding is %d bytes", n, rep.WireSize(), len(enc))
		}
		walked += len(enc)
		keys := 0
		for range rep.InvalidKeys.All() {
			keys++
		}
		if keys != rep.InvalidKeys.Len() {
			t.Fatalf("reply %d announces %d keys and iterates %d", n, rep.InvalidKeys.Len(), keys)
		}
		checkView(t, "batched reply", &rep, input, pristine, func() []byte { return EncodeBody(&rep) })
	}
	if n > MaxBatchReplies {
		t.Fatalf("a batch yielded %d replies, bound is %d", n, MaxBatchReplies)
	}
}

// FuzzDecode opens a message from its framed form: the first byte is the
// kind, the rest the envelope body.
func FuzzDecode(f *testing.F) {
	f.Add(framed(&Checkpoint{Seq: 1}))
	f.Add(framed(&Prepare{View: 1, Seq: 2,
		Batch: Batch{Reqs: []OrderRequest{{Op: []byte("x")}}},
		Cert:  CounterCert{MAC: []byte("m")}}))
	f.Add(framed(&Batch{Reqs: []OrderRequest{{Op: []byte("a")}, {Op: []byte("b")}}}))
	f.Add(framed(&OrderedReply{Result: []byte("r"), InvalidKeys: keysOf("k")}))
	f.Add(framed(NewReplyBatch(
		&OrderedReply{Executor: 1, Seq: 2, Client: 7, ClientSeq: 9, Result: []byte("r"), InvalidKeys: keysOf("k", "l"), TroxyTag: []byte("t")},
		&OrderedReply{Executor: 1, Seq: 2, Client: 8, ClientSeq: 1, Result: []byte("OK")})))
	f.Add(append(framed(NewReplyBatch(&OrderedReply{Result: []byte("r"), InvalidKeys: keysOf("k")})), 0xff, 0xff)) // a reply, then garbage
	f.Add(framed(&SpecReply{Executor: 1, View: 2, Seq: 3, Client: 7, ClientSeq: 9,
		Result: []byte("r"), Cert: CounterCert{MAC: []byte("m")}, TroxyTag: []byte("t")}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		pristine := bytes.Clone(data)
		m, err := openFramed(data)
		if err != nil {
			return
		}
		checkView(t, m.Kind().String(), m, data, pristine, func() []byte { return framed(m) })
		if batch, ok := m.(*ReplyBatch); ok {
			checkBatchViews(t, batch, data, pristine)
		}
		// Round-trip stability: re-encoding a decoded message and decoding
		// again yields the same encoding.
		re := framed(m)
		m2, err := openFramed(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !bytes.Equal(re, framed(m2)) {
			t.Fatal("encoding not a fixed point")
		}
	})
}

func FuzzBatch(f *testing.F) {
	f.Add(framed(&Batch{}))
	f.Add(framed(&Batch{Reqs: []OrderRequest{{Origin: 2, Client: 7, ClientSeq: 1, Op: []byte("GET k")}}}))
	f.Add(framed(&Batch{Reqs: []OrderRequest{
		{Origin: 2, Client: 7, ClientSeq: 1, Op: []byte("GET k")},
		{Origin: 3, Client: 8, ClientSeq: 4, Flags: FlagReadOnly, Op: []byte("PUT k v")},
	}}))
	f.Add([]byte{byte(KindBatch), 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := openFramed(data)
		if err != nil {
			return
		}
		b, ok := m.(*Batch)
		if !ok {
			return
		}
		// The digest must be a pure function of the re-encodable content.
		d1 := b.Digest()
		re := framed(b)
		m2, err := openFramed(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		b2 := m2.(*Batch)
		if d1 != b2.Digest() {
			t.Fatal("batch digest not stable across re-encode")
		}
	})
}

func FuzzDecodeEnvelope(f *testing.F) {
	f.Add(EncodeEnvelope(Seal(1, 2, &Checkpoint{Seq: 9})))
	prep := Seal(0, 1, &Prepare{View: 1, Seq: 2,
		Batch: Batch{Reqs: []OrderRequest{{Op: []byte("PUT a 1")}, {Op: []byte("PUT b 2")}}},
		Cert:  CounterCert{MAC: []byte("mac")}})
	prep.MAC = []byte("transport-mac")
	f.Add(EncodeEnvelope(prep))
	f.Add(EncodeEnvelope(Seal(2, 0, &OrderedReply{Result: []byte("r"), InvalidKeys: keysOf("k"), TroxyTag: []byte("t")})))
	f.Add(EncodeEnvelope(&Envelope{From: 2, To: 0, Kind: KindStateChunk, Body: []byte("a state chunk, which only hybster opens")}))
	f.Add(EncodeEnvelope(Seal(2, 0, NewReplyBatch(
		&OrderedReply{Executor: 2, Seq: 3, Client: 7, ClientSeq: 1, Result: []byte("r"), InvalidKeys: keysOf("k"), TroxyTag: []byte("t")},
		&OrderedReply{Executor: 2, Seq: 3, Client: 8, ClientSeq: 4, Result: []byte("OK"), TroxyTag: []byte("t")}))))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		pristine := bytes.Clone(data)
		e, err := DecodeEnvelope(data)
		if err != nil {
			return
		}
		checkView(t, "envelope", e, data, pristine, func() []byte { return EncodeEnvelope(e) })
		if m, err := e.Open(); err == nil {
			checkView(t, "opened "+e.Kind.String(), m, data, pristine, func() []byte { return EncodeBody(m) })
			if batch, ok := m.(*ReplyBatch); ok {
				checkBatchViews(t, batch, data, pristine)
			}
		}
		re := EncodeEnvelope(e)
		e2, err := DecodeEnvelope(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !bytes.Equal(re, EncodeEnvelope(e2)) {
			t.Fatal("envelope encoding not a fixed point")
		}
		// A transport decodes every frame of a connection into one envelope:
		// nothing the previous frame left in it may show through.
		reused := Envelope{From: 9, To: 9, Kind: KindCommit, Body: []byte("stale"), MAC: []byte("stale")}
		if err := reused.Decode(re); err != nil || !bytes.Equal(EncodeEnvelope(&reused), re) {
			t.Fatalf("decoding into a used envelope: %+v, %v", reused, err)
		}
	})
}

func FuzzDecodeChannelFrames(f *testing.F) {
	f.Add(EncodeChannelRequest(&ChannelRequest{Client: 1, Seq: 2, Op: []byte("GET k")}))
	f.Add(marshalOwned(&ChannelReply{Seq: 2, Status: StatusOK, Result: []byte("v")}))
	f.Fuzz(func(t *testing.T, data []byte) {
		pristine := bytes.Clone(data)
		if req, err := DecodeChannelRequest(data); err == nil {
			if !bytes.Equal(EncodeChannelRequest(&req), data) {
				t.Fatal("request decode/encode mismatch")
			}
			checkView(t, "channel request", &req, data, pristine, func() []byte { return EncodeChannelRequest(&req) })
		}
		if rep, err := DecodeChannelReply(data); err == nil {
			if !bytes.Equal(marshalOwned(&rep), data) {
				t.Fatal("reply decode/encode mismatch")
			}
			checkView(t, "channel reply", &rep, data, pristine, func() []byte { return marshalOwned(&rep) })
		}
	})
}
