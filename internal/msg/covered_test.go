package msg_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/troxy-bft/troxy/internal/authn"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/wire"
)

// What a point-to-point MAC covers of each kind of this package
// (authn.Covered), held to the encodings defined here.

func request() msg.OrderRequest {
	return msg.OrderRequest{Origin: 2, Client: 77, ClientSeq: 1234, Flags: msg.FlagReadOnly, Op: []byte("GET key-17")}
}

func cert() msg.CounterCert {
	return msg.CounterCert{Replica: 1, Counter: 3, Value: 42, MAC: []byte("macmacmac")}
}

func batch(n int) msg.Batch {
	b := msg.Batch{Reqs: make([]msg.OrderRequest, n)}
	for i := range b.Reqs {
		b.Reqs[i] = msg.OrderRequest{
			Origin:    msg.NodeID(i % 3),
			Client:    uint64(100 + i),
			ClientSeq: uint64(i + 1),
			Op:        []byte(fmt.Sprintf("PUT key-%d value-%d", i, i)),
		}
	}
	return b
}

// samples returns a message of every kind Envelope.Open decodes.
func samples() []msg.Message {
	req := request()
	return []msg.Message{
		&msg.ChannelData{ConnID: 9, Payload: []byte("ciphertext")},
		&msg.BFTRequest{Client: 1, ClientSeq: 2, Flags: msg.FlagDirect, Op: []byte("op")},
		&msg.BFTReply{Executor: 2, Client: 1, ClientSeq: 2, Result: []byte("res")},
		&msg.Forward{Req: req},
		&msg.Batch{Reqs: []msg.OrderRequest{req}},
		&msg.Prepare{View: 1, Seq: 10, Batch: batch(2), Cert: cert()},
		&msg.Commit{View: 1, Seq: 10, Cert: cert()},
		&msg.OrderedReply{Executor: 0, Seq: 10, Client: 77, ClientSeq: 1234, Result: []byte("result"), TroxyTag: []byte("tag")},
		&msg.Checkpoint{Seq: 128},
		&msg.CacheQuery{From: 0, To: 1, QueryID: 5, Tag: []byte("t")},
		&msg.CacheReply{From: 1, To: 0, QueryID: 5, Found: true, Tag: []byte("t")},
		msg.NewReplyBatch(&msg.OrderedReply{Executor: 1, Client: 78, ClientSeq: 1, Result: []byte("OK"), TroxyTag: []byte("tag")}),
		&msg.SpecReply{Executor: 1, View: 2, Seq: 10, Result: []byte("spec-result"), Cert: cert(), TroxyTag: []byte("tag")},
	}
}

// covered returns a copy of what a point-to-point MAC covers of m.
func covered(m msg.Message) []byte {
	w := wire.NewWriter(0)
	return bytes.Clone(authn.Covered(w, m, msg.EncodeBody(m)))
}

// TestCoveredIsTheBodyExceptForForwardAndPrepare: a kind that orders no
// request is covered byte for byte — Covered hands back the very body — and
// so, since its certificate took over from its MAC, is a PREPARE, which no
// longer carries one (authn.HostMACed); CoversDigests names exactly the kind
// that is not, a FORWARD. The kinds this package does not decode are
// hybster's recovery messages, which order no request.
func TestCoveredIsTheBodyExceptForForwardAndPrepare(t *testing.T) {
	seen := map[msg.Kind]bool{}
	for _, m := range samples() {
		seen[m.Kind()] = true
		body := msg.EncodeBody(m)
		w := wire.NewWriter(0)
		got := authn.Covered(w, m, body)
		whole := len(got) == len(body) && (len(body) == 0 || &got[0] == &body[0])
		if whole == authn.CoversDigests(m.Kind()) {
			t.Errorf("%s: covered whole = %v, CoversDigests = %v", m.Kind(), whole, authn.CoversDigests(m.Kind()))
		}
		if whole && w.Len() != 0 {
			t.Errorf("%s: %d bytes written for a kind covered whole", m.Kind(), w.Len())
		}
	}
	for k := msg.KindChannelData; k <= msg.KindReplyBatch; k++ {
		if _, err := (&msg.Envelope{Kind: k}).Open(); !seen[k] && !errors.Is(err, msg.ErrUnknownKind) {
			t.Errorf("no sample message of kind %s", k)
		}
		if authn.CoversDigests(k) != (k == msg.KindForward) {
			t.Errorf("%s: CoversDigests = %v", k, authn.CoversDigests(k))
		}
	}
}

// TestTroxyTaggedKindsAreTheCacheExchangeAndReplyBatches: the kinds a Troxy
// tags are exactly the cache exchange and reply batches, none of them orders
// a request, and none carries a point-to-point MAC.
func TestTroxyTaggedKindsAreTheCacheExchangeAndReplyBatches(t *testing.T) {
	for k := msg.KindChannelData; k <= msg.KindReplyBatch; k++ {
		want := k == msg.KindCacheQuery || k == msg.KindCacheReply || k == msg.KindReplyBatch
		if k.TroxyTagged() != want || (want && (authn.CoversDigests(k) || authn.HostMACed(k))) {
			t.Errorf("%s: TroxyTagged = %v, CoversDigests = %v, HostMACed = %v", k, k.TroxyTagged(), authn.CoversDigests(k), authn.HostMACed(k))
		}
	}
}

// TestHostMACedKinds: the kinds that travel without a point-to-point MAC are
// the client hop's channel data (the secure channel's), the three a Troxy
// tags (their tags'), and PREPARE and COMMIT (their counter certificates');
// every other kind carries one, the recovery kinds hybster decodes included.
func TestHostMACedKinds(t *testing.T) {
	for k := range 256 {
		k := msg.Kind(k)
		want := !k.TroxyTagged() && k != msg.KindChannelData && k != msg.KindPrepare && k != msg.KindCommit
		if authn.HostMACed(k) != want {
			t.Errorf("%s: HostMACed = %v", k, authn.HostMACed(k))
		}
	}
	for _, k := range []msg.Kind{msg.KindForward, msg.KindCheckpoint, msg.KindSpecReply, msg.KindBFTRequest, msg.KindBFTReply, msg.KindViewChange, msg.KindNewView, msg.KindStateChunk} {
		if !authn.HostMACed(k) {
			t.Errorf("%s travels without a MAC", k)
		}
	}
}

// TestCoveredBindsEveryField: the covered encoding of a FORWARD is its
// request's digest — so changing any field of the request changes it, and its
// length does not depend on the size of the operation — and a PREPARE, which
// carries no MAC, is covered whole like every kind but a FORWARD.
func TestCoveredBindsEveryField(t *testing.T) {
	forward := func(mutate func(*msg.OrderRequest)) []byte {
		req := request()
		mutate(&req)
		return covered(&msg.Forward{Req: req})
	}
	req := request()
	digest := req.Digest()
	base := forward(func(*msg.OrderRequest) {})
	if !bytes.Equal(base, digest[:]) {
		t.Errorf("covered FORWARD = %x, want the request digest %x", base, digest)
	}
	for name, mutate := range map[string]func(*msg.OrderRequest){
		"origin":     func(r *msg.OrderRequest) { r.Origin++ },
		"client":     func(r *msg.OrderRequest) { r.Client++ },
		"client seq": func(r *msg.OrderRequest) { r.ClientSeq++ },
		"flags":      func(r *msg.OrderRequest) { r.Flags ^= msg.FlagFastCommit },
		"op":         func(r *msg.OrderRequest) { r.Op = bytes.Clone(r.Op); r.Op[0] ^= 1 },
		"op length":  func(r *msg.OrderRequest) { r.Op = r.Op[:4] },
	} {
		if bytes.Equal(forward(mutate), base) {
			t.Errorf("a FORWARD with another %s has the same covered encoding", name)
		}
	}
	if big := forward(func(r *msg.OrderRequest) { r.Op = make([]byte, 4096) }); len(big) != len(base) {
		t.Errorf("covered FORWARD grew from %d to %d bytes with a 4 KiB operation", len(base), len(big))
	}
	p := &msg.Prepare{View: 3, Seq: 9, Batch: batch(4), Cert: cert()}
	if body := msg.EncodeBody(p); !bytes.Equal(covered(p), body) {
		t.Errorf("covered PREPARE is %d bytes, not its %d-byte body", len(covered(p)), len(body))
	}
}

// FuzzCoveredEncoding: the MAC of a FORWARD covers the covered encoding, not
// the body, so the covered encoding has to bind the body — two bodies of one
// kind that both decode and are covered alike are the same bytes. (The
// encoding is fixed-width integers and length-prefixed strings, Open rejects
// trailing bytes, and the request enters by SHA-256.) A PREPARE, covered
// whole, holds it trivially; what the fuzzer still asks of it is that a body
// that decodes re-encodes to itself, so two PREPAREs that differ in a byte
// differ in a field — the field its certificate, which binds view, sequence
// number and batch digest, or the receiver's lane check then sees.
func FuzzCoveredEncoding(f *testing.F) {
	prep := &msg.Prepare{View: 1, Seq: 2, Batch: batch(2), Cert: cert()}
	body := msg.EncodeBody(prep)
	f.Add(body, body, true)
	for _, at := range []int{0, 8, 16, 20, 30, len(body) - 40, len(body) - 1} {
		other := bytes.Clone(body)
		other[at] ^= 1
		f.Add(body, other, true)
	}
	f.Add(body, body[:len(body)-1], true)
	f.Add(body, append(bytes.Clone(body), 0), true)
	fwd := msg.EncodeBody(&msg.Forward{Req: request()})
	f.Add(fwd, fwd, false)
	for _, at := range []int{0, 4, 12, 20, 21, len(fwd) - 1} {
		other := bytes.Clone(fwd)
		other[at] ^= 1
		f.Add(fwd, other, false)
	}
	f.Add(fwd, body, false)
	f.Fuzz(func(t *testing.T, a, b []byte, prepare bool) {
		kind := msg.KindForward
		if prepare {
			kind = msg.KindPrepare
		}
		ma, err := (&msg.Envelope{Kind: kind, Body: a}).Open()
		if err != nil {
			return
		}
		wa := wire.NewWriter(0)
		ca := authn.Covered(wa, ma, a)
		if !bytes.Equal(a, msg.EncodeBody(ma)) {
			t.Fatalf("a %s body that decodes does not re-encode to itself", kind)
		}
		mb, err := (&msg.Envelope{Kind: kind, Body: b}).Open()
		if err != nil {
			return
		}
		wb := wire.NewWriter(0)
		if alike, same := bytes.Equal(ca, authn.Covered(wb, mb, b)), bytes.Equal(a, b); alike != same {
			t.Fatalf("two %s bodies, equal = %v, covered alike = %v", kind, same, alike)
		}
	})
}
