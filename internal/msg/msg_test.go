package msg

import (
	"bytes"
	"errors"
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
	got, err := Seal(0, 1, m).Open()
	if err != nil {
		t.Fatalf("Open(%s): %v", m.Kind(), err)
	}
	if got.Kind() != m.Kind() {
		t.Fatalf("kind mismatch: got %s, want %s", got.Kind(), m.Kind())
	}
	return got
}

// framed is m's encoding behind a kind byte, the form the fuzz corpora hold.
func framed(m Message) []byte { return append([]byte{byte(m.Kind())}, EncodeBody(m)...) }

// openFramed opens what framed encoded: data[0] is the kind, data[1:] the
// body.
func openFramed(data []byte) (Message, error) {
	if len(data) == 0 {
		return nil, wire.ErrTruncated
	}
	return (&Envelope{Kind: Kind(data[0]), Body: data[1:]}).Open()
}

// sampleMessages returns at least one message of every kind Envelope.Open
// decodes.
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
		&CacheQuery{From: 0, To: 1, QueryID: 5, ReqDigest: reqDigest, Tag: []byte("t")},
		&CacheReply{From: 1, To: 0, QueryID: 5, ReqDigest: reqDigest, Found: true,
			ReplyDigest: DigestOf([]byte("reply")), Tag: []byte("t")},
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
	// Unknown here are the recovery kinds too: hybster decodes those.
	for _, k := range []Kind{0, 0xff, KindViewChange, KindStateChunk} {
		if _, err := (&Envelope{Kind: k, Body: []byte{1, 2, 3}}).Open(); !errors.Is(err, ErrUnknownKind) {
			t.Errorf("%s: Open error = %v, want ErrUnknownKind", k, err)
		}
	}
	if _, err := openFramed(nil); err == nil {
		t.Error("expected error for empty input")
	}
}

func TestDecodeRejectsTrailing(t *testing.T) {
	e := Seal(0, 1, &Checkpoint{Seq: 1})
	e.Body = append(e.Body, 0xee)
	if _, err := e.Open(); err == nil {
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
		got, err := DecodeChannelReply(marshalOwned(rep))
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
	gotRep, err := DecodeChannelReply(marshalOwned(rep))
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
		_, _ = openFramed(b)     // must not panic
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
	// Hard allocation gate for the pooled frame path (the AppendEnvelopeFrame
	// row of BenchmarkAllocGate holds the same property under -bench):
	// encoding into a warm caller-held writer must not allocate at all.
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
	enc := EncodeBody(&OrderedReply{Result: []byte("r"), InvalidKeys: keysOf("a", "b"), TroxyTag: []byte("t")})
	for cut := 0; cut < len(enc); cut++ {
		if _, err := (&Envelope{Kind: KindOrderedReply, Body: enc[:cut]}).Open(); err == nil {
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

// TestChannelDataWithoutMessageObject: SealChannelData (and
// AppendChannelDataHead, which it is built on) and OpenChannelData are Seal and Open for the one
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
	// A head appended behind what a buffer holds, then the payload, is the
	// same encoding, in that buffer.
	buf := make([]byte, 0, 64)
	buf = append(buf, "kept"...)
	body := AppendChannelDataHead(buf, 77, len(payload))
	if whole := append(body, payload...); &whole[0] != &buf[:1][0] || !bytes.Equal(whole[4:], want.Body) || string(whole[:4]) != "kept" {
		t.Errorf("head + payload = %x (in place: %v), want kept + %x", whole, &whole[0] == &buf[:1][0], want.Body)
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

// TestDecodedRequestHasNoDigestUntilComputed: no wire decoder installs a
// request digest, and decoding into a request that carried one forgets it — a
// replica checks certificates and MACs against digests of the bytes it
// received, never against a digest that came with them. SetDigest is for the
// one decoder whose input is this replica's own trusted subsystem.
func TestDecodedRequestHasNoDigestUntilComputed(t *testing.T) {
	first, second := sampleRequest(), sampleRequest()
	second.Op = []byte("PUT key-17 other")
	want := second.Digest()

	into := first
	if into.Digest() == want {
		t.Fatal("two different requests with one digest")
	}
	if err := into.UnmarshalWire(wire.NewReader(marshalOwned(&second))); err != nil {
		t.Fatal(err)
	}
	if into.Digest() != want {
		t.Error("a request decoded over another kept the other's digest")
	}

	lied := sampleRequest()
	lied.SetDigest(want)
	if lied.Digest() != want {
		t.Error("SetDigest did not install the digest")
	}
	fwd := &Forward{}
	if err := fwd.UnmarshalWire(wire.NewReader(EncodeBody(&Forward{Req: lied}))); err != nil {
		t.Fatal(err)
	}
	if fwd.Req.Digest() != first.Digest() {
		t.Error("an installed digest survived the wire")
	}
}

// TestFailedDecodePreallocatesWithinBounds: a slice header is four bytes a
// peer chose, and a batch reserves room before its first request has
// decoded. Whatever the header claims — up to wire.MaxSliceLen — a decode
// that fails on the first request leaves no more than a small constant
// behind. (hybster's recovery messages have a test of their own.)
func TestFailedDecodePreallocatesWithinBounds(t *testing.T) {
	// One past the limit reserves nothing at all.
	for n, bound := range map[uint32]int{wire.MaxSliceLen: 64, wire.MaxSliceLen + 1: 0} {
		w := wire.NewWriter(0)
		w.U32(n)
		var batch Batch
		if err := batch.UnmarshalWire(wire.NewReader(w.Bytes())); err == nil {
			t.Errorf("a header of %d requests and no request decoded", n)
		}
		if cap(batch.Reqs) > bound {
			t.Errorf("a header of %d requests: a failed decode left room for %d, bound is %d", n, cap(batch.Reqs), bound)
		}
	}
}
