package msg

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/troxy-bft/troxy/internal/wire"
)

func sampleRequest() OrderRequest {
	return OrderRequest{
		Origin:    2,
		Client:    77,
		ClientSeq: 1234,
		Flags:     FlagReadOnly,
		Op:        []byte("GET key-17"),
	}
}

func sampleCert() CounterCert {
	return CounterCert{Replica: 1, Counter: 3, Value: 42, MAC: []byte("macmacmac")}
}

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	b := Encode(m)
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode(%s): %v", m.Kind(), err)
	}
	if got.Kind() != m.Kind() {
		t.Fatalf("kind mismatch: got %s, want %s", got.Kind(), m.Kind())
	}
	return got
}

// sampleMessages returns at least one message of every kind.
func sampleMessages() []Message {
	req := sampleRequest()
	// Taken from a second copy: a request carries its digest once computed,
	// and the decoded messages compared below start without one.
	reqDigest := (&OrderRequest{Origin: req.Origin, Client: req.Client, ClientSeq: req.ClientSeq, Flags: req.Flags, Op: req.Op}).Digest()
	return []Message{
		&ChannelData{ConnID: 9, Payload: []byte("ciphertext")},
		&BFTRequest{Client: 1, ClientSeq: 2, Flags: FlagDirect, Op: []byte("op")},
		&BFTReply{Executor: 2, Client: 1, ClientSeq: 2, ReqDigest: DigestOf([]byte("r")),
			Direct: true, Conflict: false, Result: []byte("res")},
		&Forward{Req: req},
		&Batch{Reqs: []OrderRequest{req, {Origin: 3, Client: 78, ClientSeq: 1, Op: []byte("PUT k v")}}},
		&Prepare{View: 1, Seq: 10, Batch: Batch{Reqs: []OrderRequest{req}}, Cert: sampleCert()},
		&Commit{View: 1, Seq: 10, BatchDigest: (&Batch{Reqs: []OrderRequest{req}}).Digest(), Cert: sampleCert()},
		&OrderedReply{Executor: 0, Seq: 10, Client: 77, ClientSeq: 1234,
			ReqDigest: reqDigest, Result: []byte("result"),
			InvalidKeys: keysOf("a", "b"), TroxyTag: []byte("tag")},
		&Checkpoint{Seq: 128, StateDigest: DigestOf([]byte("state"))},
		&ViewChange{Replica: 1, NewView: 2, StableSeq: 128,
			StableDigest: DigestOf([]byte("s")),
			Prepared: []PreparedEntry{
				{View: 1, Seq: 129, Batch: Batch{Reqs: []OrderRequest{req}}, PrepareCert: sampleCert()},
			},
			Cert: sampleCert()},
		&NewView{Leader: 2, View: 2, ViewChanges: []ViewChange{
			{Replica: 1, NewView: 2, StableSeq: 128, Cert: sampleCert()},
			{Replica: 2, NewView: 2, StableSeq: 128, Cert: sampleCert()},
		}, Cert: sampleCert()},
		&CacheQuery{From: 0, To: 1, QueryID: 5, ReqDigest: reqDigest, Tag: []byte("t")},
		&CacheReply{From: 1, To: 0, QueryID: 5, ReqDigest: reqDigest, Found: true,
			ReplyDigest: DigestOf([]byte("reply")), Tag: []byte("t")},
		&StateRequest{Seq: 128, Chunks: []uint32{0, 3, 7}},
		&StateReply{Seq: 128, Manifest: []byte("manifest-bytes")},
		&StateChunk{Seq: 128, Index: 3, Data: []byte("chunk-bytes")},
		&StatePrefix{Seq: 128, LastExec: 131, Entries: []PreparedEntry{
			{View: 2, Seq: 129, Batch: Batch{Reqs: []OrderRequest{req}}, PrepareCert: sampleCert()},
		}},
		&StatePrefix{Seq: 128, LastExec: 131,
			Entries: []PreparedEntry{
				{View: 2, Seq: 129, Batch: Batch{Reqs: []OrderRequest{req}}, PrepareCert: sampleCert()},
			},
			NewView: &NewView{Leader: 2, View: 2, ViewChanges: []ViewChange{
				{Replica: 1, NewView: 2, StableSeq: 128, Cert: sampleCert()},
				{Replica: 2, NewView: 2, StableSeq: 128, Cert: sampleCert()},
			}, Cert: sampleCert()}},
		&NewViewRequest{View: 2},
		NewReplyBatch(
			&OrderedReply{Executor: 1, Seq: 10, Client: 77, ClientSeq: 1234, ReqDigest: reqDigest,
				Result: []byte("result"), InvalidKeys: keysOf("a", "b"), TroxyTag: []byte("tag")},
			&OrderedReply{Executor: 1, Seq: 10, Client: 78, ClientSeq: 1, Result: []byte("OK"), TroxyTag: []byte("tag")}),
		&SpecReply{Executor: 1, View: 2, Seq: 10,
			BatchDigest: (&Batch{Reqs: []OrderRequest{req}}).Digest(),
			Client:      77, ClientSeq: 1234, ReqDigest: reqDigest,
			Result: []byte("spec-result"), Cert: sampleCert(), TroxyTag: []byte("tag")},
	}
}

func TestRoundTripAllKinds(t *testing.T) {
	for _, m := range sampleMessages() {
		got := roundTrip(t, m)
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%s round trip mismatch:\n got  %#v\n want %#v", m.Kind(), got, m)
		}
	}
}

func TestDecodeRejectsUnknownKind(t *testing.T) {
	if _, err := Decode([]byte{0xff, 1, 2, 3}); err == nil {
		t.Error("expected error for unknown kind")
	}
	if _, err := Decode(nil); err == nil {
		t.Error("expected error for empty input")
	}
}

func TestDecodeRejectsTrailing(t *testing.T) {
	b := Encode(&Checkpoint{Seq: 1})
	b = append(b, 0xee)
	if _, err := Decode(b); err == nil {
		t.Error("expected error for trailing bytes")
	}
}

func TestOrderRequestDigestStable(t *testing.T) {
	a, b := sampleRequest(), sampleRequest()
	if a.Digest() != b.Digest() {
		t.Error("identical requests must have identical digests")
	}
	c := sampleRequest()
	c.ClientSeq++
	if a.Digest() == c.Digest() {
		t.Error("different requests must have different digests")
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	e := Seal(3, 0, &Checkpoint{Seq: 7, StateDigest: DigestOf([]byte("x"))})
	e.MAC = []byte("mac-bytes")
	b := EncodeEnvelope(e)
	if len(b) != e.WireSize()-4 {
		t.Errorf("WireSize = %d, want %d (+4 frame header)", e.WireSize(), len(b)+4)
	}
	got, err := DecodeEnvelope(b)
	if err != nil {
		t.Fatalf("DecodeEnvelope: %v", err)
	}
	if !reflect.DeepEqual(got, e) {
		t.Errorf("envelope mismatch: got %#v, want %#v", got, e)
	}
	m, err := got.Open()
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	cp, ok := m.(*Checkpoint)
	if !ok || cp.Seq != 7 {
		t.Errorf("opened message = %#v", m)
	}
}

func TestEnvelopeOpenRejectsGarbageBody(t *testing.T) {
	e := &Envelope{From: 1, To: 2, Kind: KindPrepare, Body: []byte{1, 2}}
	if _, err := e.Open(); err == nil {
		t.Error("expected decode error for garbage Prepare body")
	}
}

// tagInput returns the bytes a message's tag covers.
func tagInput(m interface{ TagInput(*wire.Writer) }) []byte {
	w := wire.NewWriter(64)
	m.TagInput(w)
	return w.Bytes()
}

func TestTagInputExcludesTag(t *testing.T) {
	r := &OrderedReply{Executor: 1, Result: []byte("r"), TroxyTag: []byte("A")}
	in1 := tagInput(r)
	r.TroxyTag = []byte("B")
	in2 := tagInput(r)
	if !bytes.Equal(in1, in2) {
		t.Error("TagInput must not cover the tag itself")
	}
	r.Result = []byte("other")
	if bytes.Equal(in1, tagInput(r)) {
		t.Error("TagInput must cover the result")
	}
}

func TestSpecReplyTagInputExcludesTag(t *testing.T) {
	r := &SpecReply{Executor: 1, View: 2, Seq: 3, Result: []byte("r"),
		Cert: sampleCert(), TroxyTag: []byte("A")}
	in1 := tagInput(r)
	r.TroxyTag = []byte("B")
	if !bytes.Equal(in1, tagInput(r)) {
		t.Error("TagInput must not cover the tag itself")
	}
	r.Result = []byte("other")
	if bytes.Equal(in1, tagInput(r)) {
		t.Error("TagInput must cover the result")
	}
	r.Result = []byte("r")
	r.Cert.Value++
	if bytes.Equal(in1, tagInput(r)) {
		t.Error("TagInput must cover the counter certificate")
	}
}

func TestFastCommitFlagShapesDigest(t *testing.T) {
	// The commit level is part of the canonical encoding: a fast-commit
	// request and its durable twin must never share a digest, or a replica
	// could count votes across tiers.
	a, b := sampleRequest(), sampleRequest()
	b.Flags |= FlagFastCommit
	if !b.FastCommit() || a.FastCommit() {
		t.Fatal("FastCommit() does not reflect the flag")
	}
	if a.Digest() == b.Digest() {
		t.Error("fast-commit flag must change the request digest")
	}
}

func TestChannelReplyStatusRoundTrip(t *testing.T) {
	for _, status := range []uint8{StatusOK, StatusError, StatusSpeculative, StatusRetracted} {
		rep := &ChannelReply{Seq: 4, Status: status, Result: []byte("r")}
		got, err := DecodeChannelReply(EncodeChannelReply(rep))
		if err != nil {
			t.Fatalf("status %d: %v", status, err)
		}
		if !reflect.DeepEqual(&got, rep) {
			t.Errorf("status %d mismatch: %#v vs %#v", status, got, rep)
		}
	}
}

func TestChannelFrames(t *testing.T) {
	req := &ChannelRequest{Seq: 9, Flags: FlagReadOnly, Op: []byte("GET a")}
	gotReq, err := DecodeChannelRequest(EncodeChannelRequest(req))
	if err != nil {
		t.Fatalf("DecodeChannelRequest: %v", err)
	}
	if !reflect.DeepEqual(&gotReq, req) {
		t.Errorf("request mismatch: %#v vs %#v", gotReq, req)
	}

	rep := &ChannelReply{Seq: 9, Status: StatusOK, Result: []byte("v")}
	gotRep, err := DecodeChannelReply(EncodeChannelReply(rep))
	if err != nil {
		t.Fatalf("DecodeChannelReply: %v", err)
	}
	if !reflect.DeepEqual(&gotRep, rep) {
		t.Errorf("reply mismatch: %#v vs %#v", gotRep, rep)
	}

	if _, err := DecodeChannelRequest([]byte{1}); err == nil {
		t.Error("expected error for short request frame")
	}
	if _, err := DecodeChannelReply([]byte{1}); err == nil {
		t.Error("expected error for short reply frame")
	}
}

func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = Decode(b)         // must not panic
		_, _ = DecodeEnvelope(b) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEnvelopeRoundTrip(t *testing.T) {
	f := func(from, to int32, payload, mac []byte) bool {
		e := &Envelope{From: NodeID(from), To: NodeID(to), Kind: KindChannelData,
			Body: payload, MAC: mac}
		got, err := DecodeEnvelope(EncodeEnvelope(e))
		if err != nil {
			return false
		}
		return got.From == e.From && got.To == e.To &&
			bytes.Equal(got.Body, e.Body) && bytes.Equal(got.MAC, e.MAC)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	if KindPrepare.String() != "Prepare" {
		t.Errorf("KindPrepare.String() = %q", KindPrepare.String())
	}
	if Kind(200).String() != "Kind(200)" {
		t.Errorf("unknown kind string = %q", Kind(200).String())
	}
}

func TestAppendEnvelopeFrameMatchesEncodeEnvelope(t *testing.T) {
	// The zero-copy transport encoder must emit exactly WriteFrame's bytes:
	// a 4-byte length header followed by the EncodeEnvelope encoding, so
	// receivers cannot tell which path framed an envelope.
	e := Seal(3, 0, &Checkpoint{Seq: 7, StateDigest: DigestOf([]byte("x"))})
	e.MAC = []byte("mac-bytes")
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	if err := AppendEnvelopeFrame(w, e); err != nil {
		t.Fatalf("AppendEnvelopeFrame: %v", err)
	}
	flat := EncodeEnvelope(e)
	if got := w.Bytes(); len(got) != len(flat)+4 || !bytes.Equal(got[4:], flat) {
		t.Errorf("frame body diverges from EncodeEnvelope (got %d bytes, want %d+4)",
			len(got), len(flat))
	}
	frame, err := wire.ReadFrame(bytes.NewReader(w.Bytes()))
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	got, err := DecodeEnvelope(frame)
	if err != nil {
		t.Fatalf("DecodeEnvelope: %v", err)
	}
	if !reflect.DeepEqual(got, e) {
		t.Errorf("envelope mismatch: got %#v, want %#v", got, e)
	}
}

func TestAppendEnvelopeFrameZeroAlloc(t *testing.T) {
	// Hard allocation gate for the pooled frame path (the benchmark variant
	// in bench_test.go gates the same property under -bench): encoding into
	// a warm caller-held writer must not allocate at all.
	e := Seal(0, 1, &ChannelData{ConnID: 9, Payload: bytes.Repeat([]byte{0xab}, 1024)})
	w := wire.NewWriter(4096)
	if allocs := testing.AllocsPerRun(1000, func() {
		w.Reset()
		if err := AppendEnvelopeFrame(w, e); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("pooled frame encode allocates %.1f/op, want 0", allocs)
	}
}

// keysOf and keyStrings convert between a key list and the strings it holds.
func keysOf(keys ...string) Keys { return AppendKeys(nil, keys) }

func keyStrings(k Keys) []string {
	var out []string
	for key := range k.All() {
		out = append(out, string(key))
	}
	return out
}

func TestKeysListAndIterate(t *testing.T) {
	for _, want := range [][]string{nil, {"k"}, {"a", "", "key-0001"}} {
		keys := keysOf(want...)
		if keys.Len() != len(want) {
			t.Errorf("keysOf(%q).Len() = %d", want, keys.Len())
		}
		if got := keyStrings(keys); !reflect.DeepEqual(got, want) {
			t.Errorf("keys %q iterate as %q", want, got)
		}
		// The list is what an OrderedReply encodes and decodes to.
		rep := &OrderedReply{Result: []byte("r"), InvalidKeys: keys, TroxyTag: []byte("tag")}
		got := roundTrip(t, rep).(*OrderedReply)
		if !bytes.Equal(got.InvalidKeys, keys) {
			t.Errorf("keys %q decoded as %x, encoded %x", want, got.InvalidKeys, keys)
		}
		if n := len(EncodeBody(rep)); rep.WireSize() != n {
			t.Errorf("keys %q: WireSize = %d, encoding is %d bytes", want, rep.WireSize(), n)
		}
	}
	// AppendKeys reuses the storage it is given.
	scratch := make([]byte, 0, 64)
	a := AppendKeys(scratch, []string{"first"})
	b := AppendKeys(a, []string{"2nd"})
	if &a[:1][0] != &b[:1][0] || keyStrings(b)[0] != "2nd" {
		t.Error("AppendKeys did not encode into the storage it was handed")
	}
	if empty := AppendKeys(b, nil); len(empty) != 0 {
		t.Errorf("empty list has length %d", len(empty))
	}
}

// TestKeysIterStopsAtMalformedInput: a Keys value can be cast from anything;
// the iterator must end, not panic, where the bytes stop being a list.
func TestKeysIterStopsAtMalformedInput(t *testing.T) {
	good := keysOf("a", "bb")
	for cut := 0; cut < len(good); cut++ {
		n := 0
		for range Keys(good[:cut]).All() {
			n++
		}
		if n > 2 {
			t.Errorf("cut at %d: iterated %d keys out of a two-key list", cut, n)
		}
	}
	huge := Keys{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 'x'}
	for range huge.All() {
		t.Error("a key longer than the list was returned")
	}
}

func TestOrderedReplyRejectsMalformedKeys(t *testing.T) {
	enc := Encode(&OrderedReply{Result: []byte("r"), InvalidKeys: keysOf("a", "b"), TroxyTag: []byte("t")})
	for cut := 1; cut < len(enc); cut++ {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Errorf("reply truncated to %d of %d bytes decoded", cut, len(enc))
		}
	}
}

func TestReplyBatchWalk(t *testing.T) {
	replies := []*OrderedReply{
		{Executor: 1, Seq: 4, Client: 7, ClientSeq: 1, Result: []byte("OK"), InvalidKeys: keysOf("k"), TroxyTag: []byte("t1")},
		{Executor: 1, Seq: 4, Client: 8, ClientSeq: 9, Result: []byte("VALUE v"), TroxyTag: []byte("t2")},
		{Executor: 1, Seq: 5, Client: 7, ClientSeq: 2},
	}
	batch := NewReplyBatch(replies...)
	// A batch of one is exactly as long as its reply.
	if one := NewReplyBatch(replies[0]); !bytes.Equal(EncodeBody(one), EncodeBody(replies[0])) {
		t.Error("a batch of one differs from the reply's own encoding")
	}

	var rep OrderedReply // one reply, decoded into again and again
	i := 0
	for it := batch.Iter(); ; i++ {
		more, err := it.Next(&rep)
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
		if !reflect.DeepEqual(&rep, replies[i]) {
			t.Errorf("reply %d = %+v, want %+v", i, rep, *replies[i])
		}
	}
	if i != len(replies) {
		t.Errorf("walked %d replies, want %d", i, len(replies))
	}

	// A malformed reply ends the walk with an error after the good ones.
	cut := &ReplyBatch{Replies: batch.Replies[:len(batch.Replies)-3]}
	good := 0
	for it := cut.Iter(); ; good++ {
		more, err := it.Next(&rep)
		if !more {
			if err == nil {
				t.Error("a truncated batch ended without an error")
			}
			break
		}
	}
	if good != 2 {
		t.Errorf("truncated batch yielded %d replies before the error, want 2", good)
	}

	// One reply more than the bound is an error, not a longer walk.
	var many []*OrderedReply
	for i := 0; i <= MaxBatchReplies; i++ {
		many = append(many, &OrderedReply{Client: uint64(i)})
	}
	n := 0
	for it := NewReplyBatch(many...).Iter(); ; n++ {
		more, err := it.Next(&rep)
		if !more {
			if err != ErrBatchTooLong {
				t.Errorf("over-long batch ended with %v", err)
			}
			break
		}
	}
	if n != MaxBatchReplies {
		t.Errorf("over-long batch yielded %d replies, bound is %d", n, MaxBatchReplies)
	}
}

// TestChannelDataWithoutMessageObject: SealChannelData (and ChannelDataBody,
// which it is built on) and OpenChannelData are Seal and Open for the one
// kind, byte for byte and error for error —
// any other kind, a truncated body and trailing bytes are all refused, as Open
// followed by the type assertion refused them.
func TestChannelDataWithoutMessageObject(t *testing.T) {
	payload := []byte("opaque record bytes")
	want := Seal(3, 9, &ChannelData{ConnID: 77, Payload: payload})
	got := SealChannelData(3, 9, 77, payload)
	if got.From != want.From || got.To != want.To || got.Kind != want.Kind || !bytes.Equal(got.Body, want.Body) || got.MAC != nil {
		t.Fatalf("SealChannelData = %+v, want %+v", got, want)
	}
	// A body begun for a payload of n bytes has room for exactly those, and
	// appending them there is the same encoding.
	body := ChannelDataBody(77, len(payload))
	if spare := cap(body) - len(body); spare != len(payload) {
		t.Errorf("ChannelDataBody left room for %d bytes, want %d", spare, len(payload))
	}
	if whole := append(body, payload...); &whole[0] != &body[0] || !bytes.Equal(whole, want.Body) {
		t.Errorf("head + payload = %x (in place: %v), want %x", whole, &whole[0] == &body[0], want.Body)
	}
	payload[0] = 'X'
	if got.Body[12] != 'o' {
		t.Error("the sealed body aliases the caller's payload")
	}

	cd, err := got.OpenChannelData()
	if err != nil || cd.ConnID != 77 || string(cd.Payload) != "opaque record bytes" {
		t.Fatalf("OpenChannelData = %+v, %v", cd, err)
	}
	if &cd.Payload[0] != &got.Body[12] || cap(cd.Payload) != len(cd.Payload) {
		t.Error("the payload is not a cap-limited view of the body")
	}
	empty, err := SealChannelData(3, 9, 78, nil).OpenChannelData()
	if err != nil || empty.ConnID != 78 || len(empty.Payload) != 0 {
		t.Errorf("empty payload = %+v, %v", empty, err)
	}

	// Whatever Open + assertion refused, OpenChannelData refuses.
	refused := map[string]*Envelope{
		"truncated body": {Kind: KindChannelData, Body: got.Body[:len(got.Body)-1]},
		"trailing bytes": {Kind: KindChannelData, Body: append(bytes.Clone(got.Body), 0)},
		"no body":        {Kind: KindChannelData},
		"unknown kind":   {Kind: Kind(200), Body: got.Body},
	}
	for k := KindChannelData + 1; k <= KindReplyBatch; k++ {
		refused[k.String()] = &Envelope{Kind: k, Body: got.Body}
	}
	for name, e := range refused {
		viaOpen := false
		if m, err := e.Open(); err == nil {
			_, viaOpen = m.(*ChannelData)
		}
		if viaOpen {
			t.Errorf("%s: Open yields a ChannelData; the case tests nothing", name)
		}
		if cd, err := e.OpenChannelData(); err == nil {
			t.Errorf("%s: OpenChannelData accepted it as %+v", name, cd)
		}
	}
}
