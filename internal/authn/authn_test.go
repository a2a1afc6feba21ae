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
// request, and for a FORWARD a MAC over the header and the request's
// digest: the receiver verifies it against the message it decoded, a
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

// TestForgedSendersLeaveNoKeyCached: a frame's From is only a claim until its
// MAC verifies, so frames from ever new senders, none of whose MACs verifies,
// cache no key, and one valid frame caches exactly its sender's. Sealing
// caches the destination's key: a node picks its own destinations.
func TestForgedSendersLeaveNoKeyCached(t *testing.T) {
	d := newDir(t)
	receiver := NewAuthenticator(0, d)
	body := msg.EncodeBody(&msg.Checkpoint{Seq: 5})
	for from := msg.NodeID(1); from <= 2000; from++ {
		e := &msg.Envelope{From: from, To: 0, Kind: msg.KindCheckpoint, Body: body, MAC: make([]byte, TagSize)}
		if receiver.VerifyMAC(e) {
			t.Fatalf("a zero tag from %d verified", from)
		}
		if ok, _ := receiver.VerifyMessage(e, &msg.Checkpoint{Seq: 5}); ok {
			t.Fatalf("a zero tag from %d verified as a message", from)
		}
	}
	if n := len(receiver.macs); n != 0 {
		t.Fatalf("%d keys cached after forged frames from 2000 senders, want none", n)
	}
	e := msg.Seal(7, 0, &msg.Checkpoint{Seq: 5})
	NewAuthenticator(7, d).SealMAC(e)
	if !receiver.VerifyMAC(e) {
		t.Fatal("valid MAC rejected")
	}
	if _, ok := receiver.macs[7]; !ok || len(receiver.macs) != 1 {
		t.Fatalf("%d keys cached after one valid frame from 7, want its one", len(receiver.macs))
	}
	receiver.SealMAC(msg.Seal(0, 3, &msg.Checkpoint{Seq: 5}))
	if len(receiver.macs) != 2 {
		t.Fatalf("%d keys cached after sealing for a new destination, want 2", len(receiver.macs))
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
// and allocates only the tag SealMAC attaches — SealMessage sums its tag into
// the authenticator's scratch; verification sums into scratch and allocates
// nothing. (A reply batch has no MAC to
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
	testutil.AllocGate(b, "SealMessage", 0, func() { sender.SealMessage(e, fwd) })
	testutil.AllocGate(b, "VerifyMessage", 0, func() {
		if ok, _ := receiver.VerifyMessage(e, fwd); !ok {
			b.Fatal("MAC rejected")
		}
	})
}

// TestSealMessageLendsItsTag: SealMessage sums a tag into the
// authenticator's scratch, which its next seal overwrites — the envelope is
// one to hand to Send, which copies it — while SealMAC's tag is an allocation
// of its own, left as it was by every later seal, whoever still holds it.
func TestSealMessageLendsItsTag(t *testing.T) {
	d, err := NewDirectory([]byte("room"))
	if err != nil {
		t.Fatal(err)
	}
	sender, receiver := NewAuthenticator(0, d), NewAuthenticator(1, d)
	fwd := &msg.Forward{Req: msg.OrderRequest{Op: []byte("PUT k v")}}
	e := msg.Seal(0, 1, fwd)
	sender.SealMessage(e, fwd)
	if ok, _ := receiver.VerifyMessage(e, fwd); !ok {
		t.Fatal("the lent tag does not verify")
	}
	lent := e.MAC
	other := msg.Seal(0, 2, fwd)
	sender.SealMessage(other, fwd)
	if &other.MAC[0] != &lent[0] {
		t.Error("a second SealMessage did not sum into the scratch the first lent")
	}

	cp := msg.Seal(0, 1, &msg.Checkpoint{Seq: 5})
	sender.SealMAC(cp)
	owned, held := cp.MAC, bytes.Clone(cp.MAC)
	sender.SealMessage(e, fwd)
	cp.To = 2 // another recipient, another tag
	sender.SealMAC(cp)
	if &cp.MAC[0] == &owned[0] || &owned[0] == &lent[0] || !bytes.Equal(owned, held) {
		t.Error("a later seal overwrote a tag SealMAC attached")
	}
}
