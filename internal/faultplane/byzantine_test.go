package faultplane_test

import (
	"bytes"
	"testing"

	"github.com/troxy-bft/troxy/internal/authn"
	"github.com/troxy-bft/troxy/internal/faultplane"
	"github.com/troxy-bft/troxy/internal/hybster"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
)

// repliesOf decodes the replies of a reply-batch envelope.
func repliesOf(t *testing.T, e msg.Envelope) []msg.OrderedReply {
	t.Helper()
	m, err := e.Open()
	if err != nil {
		t.Fatal(err)
	}
	var out []msg.OrderedReply
	for it := m.(*msg.ReplyBatch).Iter(); ; {
		var rep msg.OrderedReply
		more, err := it.Next(&rep)
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			return out
		}
		out = append(out, rep)
	}
}

// TestByzantineTampersInsideReplyBatches: replies travel in batches, and both
// reply behaviors have to reach the replies inside them — every reply of a
// corrupted batch is corrupted under its honest tag, and a client's previous
// reply is replayed, in front of the honest batch, when its next one leaves.
func TestByzantineTampersInsideReplyBatches(t *testing.T) {
	dir, err := authn.NewDirectory([]byte("byz"))
	if err != nil {
		t.Fatal(err)
	}
	tag := bytes.Repeat([]byte{1}, 32)
	first := msg.NewReplyBatch(
		&msg.OrderedReply{Client: 5, ClientSeq: 1, Result: []byte("OK"), TroxyTag: tag},
		&msg.OrderedReply{Client: 6, ClientSeq: 1, Result: []byte("VALUE a"), TroxyTag: tag})
	second := msg.NewReplyBatch(
		&msg.OrderedReply{Client: 5, ClientSeq: 2, Result: []byte("VALUE b"), TroxyTag: tag},
		&msg.OrderedReply{Client: 7, ClientSeq: 1, Result: []byte("OK"), TroxyTag: tag})

	t.Run("CorruptReplies", func(t *testing.T) {
		rec := &recordingEnv{}
		faultplane.NewByzantine(sendOnStart{msg.Seal(2, 0, first)}, 2, 3, dir, faultplane.CorruptReplies).OnStart(rec)
		if len(rec.sent) != 1 || rec.sent[0].Kind != msg.KindReplyBatch {
			t.Fatalf("sent %d envelopes, want one reply batch", len(rec.sent))
		}
		if rec.sent[0].MAC != nil {
			t.Error("the tampered batch carries a MAC: a replica sends reply batches without one")
		}
		got := repliesOf(t, rec.sent[0])
		if len(got) != 2 {
			t.Fatalf("tampered batch carries %d replies, want 2", len(got))
		}
		for i, want := range []string{"OK#byz", "VALUE a#byz"} {
			if string(got[i].Result) != want || !bytes.Equal(got[i].TroxyTag, tag) {
				t.Errorf("reply %d: result %q tag %x, want %q under the honest tag", i, got[i].Result, got[i].TroxyTag, want)
			}
		}
	})

	t.Run("ReplayStaleReplies", func(t *testing.T) {
		rec := &recordingEnv{}
		byz := faultplane.NewByzantine(echo{}, 2, 3, dir, faultplane.ReplayStaleReplies)
		byz.OnEnvelope(rec, msg.Seal(2, 0, first))
		if len(rec.sent) != 1 || !bytes.Equal(rec.sent[0].Body, first.Replies) {
			t.Fatalf("first batch: %d envelopes; a client's first reply has nothing to replay", len(rec.sent))
		}
		rec.sent = nil
		byz.OnEnvelope(rec, msg.Seal(2, 0, second))
		if len(rec.sent) != 2 {
			t.Fatalf("second batch: %d envelopes, want the stale batch and the honest one", len(rec.sent))
		}
		stale := repliesOf(t, rec.sent[0])
		if len(stale) != 1 || stale[0].Client != 5 || stale[0].ClientSeq != 1 || string(stale[0].Result) != "OK" {
			t.Errorf("stale batch = %+v, want client 5's reply to sequence 1", stale)
		}
		if !bytes.Equal(rec.sent[1].Body, second.Replies) {
			t.Error("the honest batch did not follow unmodified")
		}
	})
}

// echo is a replica stand-in that sends whatever it is delivered.
type echo struct{}

func (echo) OnStart(node.Env)                         {}
func (echo) OnEnvelope(env node.Env, e *msg.Envelope) { env.Send(e) }
func (echo) OnTimer(node.Env, node.TimerKey)          {}

// sendOnStart is a replica stand-in whose only act is to send one envelope.
type sendOnStart struct{ e *msg.Envelope }

func (s sendOnStart) OnStart(env node.Env)             { env.Send(s.e) }
func (sendOnStart) OnEnvelope(node.Env, *msg.Envelope) {}
func (sendOnStart) OnTimer(node.Env, node.TimerKey)    {}

// recordingEnv keeps what reaches the network, by value: Send copies the
// header it is handed.
type recordingEnv struct {
	node.Env
	sent []msg.Envelope
}

func (r *recordingEnv) Send(e *msg.Envelope) { r.sent = append(r.sent, *e) }

// passedThrough reports whether e is h sent on as it is: h's header over h's
// very body and MAC, not a re-encoding of them.
func passedThrough(e msg.Envelope, h *msg.Envelope) bool {
	same := func(a, b []byte) bool { return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0]) }
	return e.From == h.From && e.To == h.To && e.Kind == h.Kind && same(e.Body, h.Body) && same(e.MAC, h.MAC)
}

// TestByzantineSendLeavesHonestEnvelopeIntact: the body of the envelope the
// correct core hands to Send is shared — with the other recipients of a
// broadcast and, under the in-process router, with the receiver — so every
// tampering mode must work on a copy. Decoding is by view, so mutating a decoded message in
// place would rewrite the honest envelope's body.
func TestByzantineSendLeavesHonestEnvelopeIntact(t *testing.T) {
	dir, err := authn.NewDirectory([]byte("byz"))
	if err != nil {
		t.Fatal(err)
	}
	cert := msg.CounterCert{Replica: 0, Counter: 1, Value: 7, MAC: bytes.Repeat([]byte{9}, 32)}
	cases := []struct {
		name string
		mode faultplane.Behavior
		m    msg.Message
	}{
		{"CorruptReplies", faultplane.CorruptReplies, msg.NewReplyBatch(
			&msg.OrderedReply{Client: 5, ClientSeq: 2, Result: []byte("VALUE v"), InvalidKeys: msg.AppendKeys(nil, []string{"k"}), TroxyTag: bytes.Repeat([]byte{1}, 32)},
			&msg.OrderedReply{Client: 6, ClientSeq: 9, Result: []byte("OK"), TroxyTag: bytes.Repeat([]byte{2}, 32)})},
		{"ReplayStaleReplies", faultplane.ReplayStaleReplies, msg.NewReplyBatch(
			&msg.OrderedReply{Client: 5, ClientSeq: 2, Result: []byte("VALUE v"), TroxyTag: bytes.Repeat([]byte{1}, 32)})},
		{"EquivocateCerts/Prepare", faultplane.EquivocatePrepares,
			&msg.Prepare{View: 1, Seq: 7, Cert: cert, Batch: msg.Batch{Reqs: []msg.OrderRequest{{Origin: 0, Client: 5, ClientSeq: 2, Op: []byte("PUT k v")}}}}},
		{"EquivocateCerts/Commit", faultplane.EquivocateCommits,
			&msg.Commit{View: 1, Seq: 7, BatchDigest: msg.DigestOf([]byte("b")), Cert: cert}},
		{"EquivocateSpecReplies", faultplane.EquivocateSpecReplies,
			&msg.SpecReply{View: 1, Seq: 7, Client: 5, ClientSeq: 2, Result: []byte("OK"), Cert: cert, TroxyTag: bytes.Repeat([]byte{1}, 32)}},
		{"CorruptStateChunks", faultplane.CorruptStateChunks,
			&hybster.StateChunk{Seq: 128, Index: 3, Data: []byte("chunk-bytes")}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			honest := msg.Seal(0, 1, tc.m) // to a higher ID: the equivocation target
			if authn.HostMACed(honest.Kind) {
				authn.NewAuthenticator(0, dir).SealMAC(honest)
			}
			want := faultplane.CloneEnvelope(honest)

			rec := &recordingEnv{}
			faultplane.NewByzantine(sendOnStart{honest}, 0, 3, dir, tc.mode).OnStart(rec)

			if !bytes.Equal(honest.Body, want.Body) || !bytes.Equal(honest.MAC, want.MAC) ||
				honest.From != want.From || honest.To != want.To || honest.Kind != want.Kind {
				t.Fatalf("the envelope handed to Send was modified:\n got %x\nwant %x", honest.Body, want.Body)
			}
			if len(rec.sent) == 0 {
				t.Fatal("nothing was sent")
			}
			if tc.mode == faultplane.ReplayStaleReplies {
				return // the first reply of a client passes through untouched
			}
			for _, e := range rec.sent {
				if bytes.Equal(e.Body, want.Body) {
					t.Errorf("mode %s sent the honest body unmodified", tc.name)
				}
				// Re-sealed the way a replica seals that kind, so the receiver's
				// transport lets the mutation through to the check it is for.
				m, err := hybster.Open(&e)
				if err != nil {
					t.Fatal(err)
				}
				if !authn.HostMACed(e.Kind) {
					if e.MAC != nil {
						t.Errorf("mode %s: a %s went with a MAC a replica does not attach", tc.name, e.Kind)
					}
				} else if ok, _ := authn.NewAuthenticator(e.To, dir).VerifyMessage(&e, m); !ok {
					t.Errorf("mode %s: the receiver's transport would drop the tampered %s", tc.name, e.Kind)
				}
			}
		})
	}
}

// TestByzantineMisdirectsCacheMessages: a cache query or reply goes to its
// addressee as the correct replica sent it, and the same envelope body to
// every other replica of the group but the sender; anything else passes
// through alone.
func TestByzantineMisdirectsCacheMessages(t *testing.T) {
	dir, err := authn.NewDirectory([]byte("byz"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []msg.Message{
		&msg.CacheQuery{From: 1, To: 0, QueryID: 3, Tag: bytes.Repeat([]byte{1}, 32)},
		&msg.CacheReply{From: 1, To: 0, QueryID: 3, Found: true, Tag: bytes.Repeat([]byte{1}, 32)},
	} {
		honest := msg.Seal(1, 0, m)
		rec := &recordingEnv{}
		faultplane.NewByzantine(sendOnStart{honest}, 1, 3, dir, faultplane.MisdirectCacheMessages).OnStart(rec)
		if len(rec.sent) != 2 || !passedThrough(rec.sent[1], honest) || rec.sent[0].To != 2 || !bytes.Equal(rec.sent[0].Body, honest.Body) {
			t.Errorf("%s: sent %d envelopes, want a copy to replica 2 and the honest one to 0", m.Kind(), len(rec.sent))
		}
	}
	rec := &recordingEnv{}
	batch := msg.Seal(1, 0, msg.NewReplyBatch(&msg.OrderedReply{Client: 5, Result: []byte("OK")}))
	faultplane.NewByzantine(sendOnStart{batch}, 1, 3, dir, faultplane.MisdirectCacheMessages).OnStart(rec)
	if len(rec.sent) != 1 || !passedThrough(rec.sent[0], batch) {
		t.Errorf("a reply batch was misdirected: %d envelopes", len(rec.sent))
	}
}
