package faultplane_test

import (
	"bytes"
	"testing"

	"github.com/troxy-bft/troxy/internal/authn"
	"github.com/troxy-bft/troxy/internal/faultplane"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
)

// sendOnStart is a replica stand-in whose only act is to send one envelope.
type sendOnStart struct{ e *msg.Envelope }

func (s sendOnStart) OnStart(env node.Env)             { env.Send(s.e) }
func (sendOnStart) OnEnvelope(node.Env, *msg.Envelope) {}
func (sendOnStart) OnTimer(node.Env, node.TimerKey)    {}

// recordingEnv keeps what reaches the network.
type recordingEnv struct {
	node.Env
	sent []*msg.Envelope
}

func (r *recordingEnv) Send(e *msg.Envelope) { r.sent = append(r.sent, e) }

// TestByzantineSendLeavesHonestEnvelopeIntact: the envelope the correct core
// hands to Send is shared — with the other recipients of a broadcast and,
// under the in-process router, with the receiver — so every tampering mode
// must work on a copy. Decoding is by view, so mutating a decoded message in
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
		{"CorruptReplies", faultplane.CorruptReplies,
			&msg.OrderedReply{Client: 5, ClientSeq: 2, Result: []byte("VALUE v"), InvalidKeys: []string{"k"}, TroxyTag: bytes.Repeat([]byte{1}, 32)}},
		{"ReplayStaleReplies", faultplane.ReplayStaleReplies,
			&msg.OrderedReply{Client: 5, ClientSeq: 2, Result: []byte("VALUE v"), TroxyTag: bytes.Repeat([]byte{1}, 32)}},
		{"EquivocateCerts/Prepare", faultplane.EquivocateCerts,
			&msg.Prepare{View: 1, Seq: 7, Cert: cert, Batch: msg.Batch{Reqs: []msg.OrderRequest{{Origin: 0, Client: 5, ClientSeq: 2, Op: []byte("PUT k v")}}}}},
		{"EquivocateCerts/Commit", faultplane.EquivocateCerts,
			&msg.Commit{View: 1, Seq: 7, BatchDigest: msg.DigestOf([]byte("b")), Cert: cert}},
		{"EquivocateSpecReplies", faultplane.EquivocateSpecReplies,
			&msg.SpecReply{View: 1, Seq: 7, Client: 5, ClientSeq: 2, Result: []byte("OK"), Cert: cert, TroxyTag: bytes.Repeat([]byte{1}, 32)}},
		{"CorruptStateChunks", faultplane.CorruptStateChunks,
			&msg.StateChunk{Seq: 128, Index: 3, Data: []byte("chunk-bytes")}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			honest := msg.Seal(0, 1, tc.m) // to a higher ID: the equivocation target
			authn.NewAuthenticator(0, dir).SealMAC(honest)
			want := faultplane.CloneEnvelope(honest)

			rec := &recordingEnv{}
			faultplane.NewByzantine(sendOnStart{honest}, 0, dir, tc.mode).OnStart(rec)

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
			}
		})
	}
}
