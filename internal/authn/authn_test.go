package authn

import (
	"bytes"
	"testing"
	"testing/quick"

	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/testutil"
)

func newDir(t *testing.T) *Directory {
	t.Helper()
	d, err := NewDirectory([]byte("test-master-secret"))
	if err != nil {
		t.Fatalf("NewDirectory: %v", err)
	}
	return d
}

func TestNewDirectoryRejectsEmpty(t *testing.T) {
	if _, err := NewDirectory(nil); err == nil {
		t.Error("expected error for empty master secret")
	}
}

func TestPairKeySymmetric(t *testing.T) {
	d := newDir(t)
	if !bytes.Equal(d.PairKey(1, 2), d.PairKey(2, 1)) {
		t.Error("PairKey must be symmetric")
	}
	if bytes.Equal(d.PairKey(1, 2), d.PairKey(1, 3)) {
		t.Error("distinct pairs must have distinct keys")
	}
	if len(d.PairKey(0, 1)) != KeySize {
		t.Errorf("key size = %d, want %d", len(d.PairKey(0, 1)), KeySize)
	}
}

func TestDistinctRoleKeys(t *testing.T) {
	d := newDir(t)
	if bytes.Equal(d.TroxyGroupKey(), d.CounterKey()) {
		t.Error("group key and counter key must differ")
	}
	if bytes.Equal(d.TroxyGroupKey(), d.PairKey(0, 1)) {
		t.Error("group key must differ from pair keys")
	}
}

func TestDirectoryCopiesMaster(t *testing.T) {
	master := []byte("secret")
	d, err := NewDirectory(master)
	if err != nil {
		t.Fatal(err)
	}
	before := d.TroxyGroupKey()
	master[0] = 'X'
	if !bytes.Equal(before, d.TroxyGroupKey()) {
		t.Error("directory must copy the master secret at the boundary")
	}
}

func TestSealVerifyMAC(t *testing.T) {
	d := newDir(t)
	sender := NewAuthenticator(1, d)
	receiver := NewAuthenticator(2, d)

	e := msg.Seal(1, 2, &msg.Checkpoint{Seq: 5})
	sender.SealMAC(e)
	if !receiver.VerifyMAC(e) {
		t.Fatal("valid MAC rejected")
	}

	// Any mutation must break verification.
	tampered := *e
	tampered.Body = append([]byte{}, e.Body...)
	tampered.Body[0] ^= 1
	if receiver.VerifyMAC(&tampered) {
		t.Error("tampered body accepted")
	}

	wrongFrom := *e
	wrongFrom.From = 0
	if receiver.VerifyMAC(&wrongFrom) {
		t.Error("spoofed sender accepted")
	}

	wrongKind := *e
	wrongKind.Kind = msg.KindCommit
	if receiver.VerifyMAC(&wrongKind) {
		t.Error("kind substitution accepted")
	}

	// Replaying to a different destination must fail: node 3 shares a
	// different key with node 1.
	third := NewAuthenticator(3, d)
	redirected := *e
	redirected.To = 3
	if third.VerifyMAC(&redirected) {
		t.Error("redirected envelope accepted")
	}
}

// TestSealVerifyMessage: SealMessage is SealMAC for a kind that orders no
// request, and for a FORWARD or PREPARE a MAC over the header and the request
// digests: the receiver verifies it against the message it decoded, a
// whole-body check does not pass for it nor it for one, and a body that
// decodes to other requests fails.
func TestSealVerifyMessage(t *testing.T) {
	d := newDir(t)
	sender, receiver := NewAuthenticator(1, d), NewAuthenticator(2, d)
	open := func(e *msg.Envelope) msg.Message {
		t.Helper()
		m, err := e.Open()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	cp := &msg.Checkpoint{Seq: 5}
	whole, sealed := msg.Seal(1, 2, cp), msg.Seal(1, 2, cp)
	sender.SealMAC(whole)
	if n := sender.SealMessage(sealed, cp); n != len(sealed.Body) || !bytes.Equal(sealed.MAC, whole.MAC) {
		t.Errorf("SealMessage of a CHECKPOINT covered %d of %d bytes, tag equal to SealMAC's: %v", n, len(sealed.Body), bytes.Equal(sealed.MAC, whole.MAC))
	}
	if ok, n := receiver.VerifyMessage(sealed, open(sealed)); !ok || n != len(sealed.Body) {
		t.Errorf("VerifyMessage of a CHECKPOINT = %v over %d bytes", ok, n)
	}

	fwd := &msg.Forward{Req: msg.OrderRequest{Origin: 1, Client: 7, ClientSeq: 3, Op: make([]byte, 4096)}}
	e := msg.Seal(1, 2, fwd)
	if n := sender.SealMessage(e, fwd); n != len(msg.Digest{}) {
		t.Errorf("SealMessage of a FORWARD covered %d bytes, want a digest", n)
	}
	if ok, n := receiver.VerifyMessage(e, open(e)); !ok || n != len(msg.Digest{}) {
		t.Errorf("VerifyMessage of a FORWARD = %v over %d bytes", ok, n)
	}
	if receiver.VerifyMAC(e) {
		t.Error("a FORWARD's tag passed as a whole-body MAC")
	}
	wholeFwd := msg.Seal(1, 2, fwd)
	sender.SealMAC(wholeFwd)
	if ok, _ := receiver.VerifyMessage(wholeFwd, open(wholeFwd)); ok {
		t.Error("a whole-body MAC passed as a FORWARD's tag")
	}
	tampered := *e
	tampered.Body = bytes.Clone(e.Body)
	tampered.Body[len(tampered.Body)-1] ^= 1
	if ok, _ := receiver.VerifyMessage(&tampered, open(&tampered)); ok {
		t.Error("a FORWARD with another operation verified")
	}
	if ok, _ := NewAuthenticator(3, d).VerifyMessage(e, open(e)); ok {
		t.Error("a FORWARD verified under another pair's key")
	}
}

func TestVerifyMACRejectsShortTag(t *testing.T) {
	d := newDir(t)
	receiver := NewAuthenticator(2, d)
	e := msg.Seal(1, 2, &msg.Checkpoint{Seq: 5})
	e.MAC = []byte{1, 2, 3}
	if receiver.VerifyMAC(e) {
		t.Error("short MAC accepted")
	}
	e.MAC = nil
	if receiver.VerifyMAC(e) {
		t.Error("missing MAC accepted")
	}
}

func TestGroupTagger(t *testing.T) {
	d := newDir(t)
	tagger := NewGroupTagger(d.TroxyGroupKey())
	verifier := NewGroupTagger(d.TroxyGroupKey())

	input := []byte("reply-content")
	tag := tagger.Tag(nil, msg.KindOrderedReply, 0, input)
	if !verifier.Verify(msg.KindOrderedReply, 0, input, tag) {
		t.Fatal("valid group tag rejected")
	}
	// A tag is bound to the producing instance.
	if verifier.Verify(msg.KindOrderedReply, 1, input, tag) {
		t.Error("tag accepted for wrong instance")
	}
	if verifier.Verify(msg.KindOrderedReply, 0, []byte("other"), tag) {
		t.Error("tag accepted for wrong input")
	}
	if verifier.Verify(msg.KindOrderedReply, 0, input, tag[:10]) {
		t.Error("truncated tag accepted")
	}
}

// TestGroupTagIsBoundToItsKind: the same bytes from the same instance tagged
// as two kinds of message are two different tags, and neither verifies as the
// other kind. A message only Troxies check travels without a host MAC, so
// this is what keeps, say, a cache reply's tag from passing for a reply's over
// bytes that happen to decode as both.
func TestGroupTagIsBoundToItsKind(t *testing.T) {
	tagger := NewGroupTagger(newDir(t).TroxyGroupKey())
	kinds := []msg.Kind{msg.KindOrderedReply, msg.KindSpecReply, msg.KindCacheQuery, msg.KindCacheReply}
	input := []byte("the same bytes")
	for _, made := range kinds {
		tag := tagger.Tag(nil, made, 1, input)
		for _, other := range kinds {
			if other == made {
				continue
			}
			if bytes.Equal(tag, tagger.Tag(nil, other, 1, input)) {
				t.Errorf("%s and %s tag the same bytes alike", made, other)
			}
			if tagger.Verify(other, 1, input, tag) {
				t.Errorf("a %s tag verifies as a %s's", made, other)
			}
		}
		if !tagger.Verify(made, 1, input, tag) {
			t.Errorf("a %s tag does not verify as its own kind", made)
		}
	}
}

func TestGroupTaggerDifferentKeysDisagree(t *testing.T) {
	a := NewGroupTagger([]byte("key-a"))
	b := NewGroupTagger([]byte("key-b"))
	input := []byte("x")
	if b.Verify(msg.KindCacheQuery, 0, input, a.Tag(nil, msg.KindCacheQuery, 0, input)) {
		t.Error("tag from different key accepted")
	}
}

func TestQuickMACRoundTrip(t *testing.T) {
	d := newDir(t)
	f := func(body []byte, fromRaw, toRaw uint8) bool {
		from := msg.NodeID(fromRaw % 8)
		to := msg.NodeID(toRaw % 8)
		if from == to {
			to = (to + 1) % 8
		}
		e := &msg.Envelope{From: from, To: to, Kind: msg.KindChannelData, Body: body}
		NewAuthenticator(from, d).SealMAC(e)
		return NewAuthenticator(to, d).VerifyMAC(e)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTamperDetected(t *testing.T) {
	d := newDir(t)
	sender := NewAuthenticator(1, d)
	receiver := NewAuthenticator(2, d)
	f := func(body []byte, flip uint16) bool {
		if len(body) == 0 {
			return true
		}
		e := &msg.Envelope{From: 1, To: 2, Kind: msg.KindChannelData, Body: body}
		sender.SealMAC(e)
		idx := int(flip) % len(body)
		e.Body[idx] ^= 0x80
		return !receiver.VerifyMAC(e)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkAllocGate: a transport MAC hashes header and body where they lie
// and allocates only the tag it attaches; verification — transport or group —
// sums into scratch and allocates nothing. (A reply batch has no MAC to
// check: what its receiver pays to open and walk it is msg's
// DecodeOpenWalkReplyBatch5.)
func BenchmarkAllocGate(b *testing.B) {
	d, err := NewDirectory([]byte("gate"))
	if err != nil {
		b.Fatal(err)
	}
	sender, receiver := NewAuthenticator(0, d), NewAuthenticator(1, d)
	e := msg.Seal(0, 1, &msg.Forward{Req: msg.OrderRequest{Op: make([]byte, 128)}})
	testutil.AllocGate(b, "SealMAC", 1, func() { sender.SealMAC(e) })
	testutil.AllocGate(b, "VerifyMAC", 0, func() {
		if !receiver.VerifyMAC(e) {
			b.Fatal("MAC rejected")
		}
	})
	// The MAC of its kind: the digest it covers goes through a pooled writer.
	fwd, err := e.Open()
	if err != nil {
		b.Fatal(err)
	}
	testutil.AllocGate(b, "SealMessage", 1, func() { sender.SealMessage(e, fwd) })
	testutil.AllocGate(b, "VerifyMessage", 0, func() {
		if ok, _ := receiver.VerifyMessage(e, fwd); !ok {
			b.Fatal("MAC rejected")
		}
	})
	tagger := NewGroupTagger(d.TroxyGroupKey())
	input := make([]byte, 200)
	tag := tagger.Tag(nil, msg.KindOrderedReply, 2, input)
	testutil.AllocGate(b, "GroupTaggerVerify", 0, func() {
		if !tagger.Verify(msg.KindOrderedReply, 2, input, tag) {
			b.Fatal("tag rejected")
		}
	})
	// A tag lands in the buffer the caller brought.
	into := make([]byte, 0, TagSize)
	testutil.AllocGate(b, "GroupTaggerTagInto", 0, func() { into = tagger.Tag(into[:0], msg.KindOrderedReply, 2, input) })
}
