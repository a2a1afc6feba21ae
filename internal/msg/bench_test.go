package msg

import (
	"fmt"
	"testing"

	"github.com/troxy-bft/troxy/internal/testutil"
	"github.com/troxy-bft/troxy/internal/wire"
)

func benchBatch(n int) *Batch {
	b := &Batch{Reqs: make([]OrderRequest, n)}
	for i := range b.Reqs {
		b.Reqs[i] = OrderRequest{
			Origin:    NodeID(i % 3),
			Client:    uint64(100 + i),
			ClientSeq: uint64(i + 1),
			Op:        []byte(fmt.Sprintf("PUT key-%d value-%d", i, i)),
		}
	}
	return b
}

// BenchmarkAllocGate holds the codec side of the request path's buffer
// discipline (DESIGN.md §5): encoding appends into a writer the caller
// brought, decoding returns views, and what is left to allocate is the
// message objects themselves — never a copy of a field.
func BenchmarkAllocGate(b *testing.B) {
	rep := &OrderedReply{Executor: 1, Seq: 9, Client: 100, ClientSeq: 3,
		Result: make([]byte, 128), InvalidKeys: keysOf("key-0001"), TroxyTag: make([]byte, 32)}
	cert := CounterCert{Replica: 1, Counter: 1, Value: 7, MAC: make([]byte, 32)}
	batch := benchBatch(16)
	prep := &Prepare{View: 1, Seq: 7, Batch: *batch, Cert: cert}
	commit := &Commit{View: 1, Seq: 7, Cert: cert}
	fwd := &Forward{Req: batch.Reqs[0]}
	query := &CacheQuery{From: 1, To: 2, QueryID: 5, Tag: make([]byte, 32)}
	answer := &CacheReply{From: 2, To: 1, QueryID: 5, Found: true, ReplyData: make([]byte, 128), Tag: make([]byte, 32)}
	w := wire.GetWriter()
	defer wire.PutWriter(w)

	// Every encoder of a message on the request path appends into a warm
	// writer and allocates nothing; a row that fails names the function
	// that began to.
	for _, enc := range []struct {
		name string
		fn   func(*wire.Writer)
	}{
		{"ChannelData.MarshalWire", (&ChannelData{ConnID: 7, Payload: make([]byte, 160)}).MarshalWire},
		{"OrderRequest.MarshalWire", fwd.Req.MarshalWire},
		{"Batch.MarshalWire", batch.MarshalWire},
		{"CounterCert.MarshalWire", cert.MarshalWire},
		{"Forward.MarshalWire", fwd.MarshalWire},
		{"Prepare.MarshalWire", prep.MarshalWire},
		{"Commit.MarshalWire", commit.MarshalWire},
		{"OrderedReply.MarshalWire", rep.MarshalWire},
		{"OrderedReply.TagInput", rep.TagInput},
		{"ReplyBatch.MarshalWire", NewReplyBatch(rep, rep, rep).MarshalWire},
		{"CacheQuery.TagInput", query.TagInput},
		{"CacheReply.TagInput", answer.TagInput},
		{"ChannelRequest.MarshalWire", (&ChannelRequest{Client: 100, Seq: 3, Op: make([]byte, 128)}).MarshalWire},
		{"ChannelReply.MarshalWire", (&ChannelReply{Seq: 3, Status: StatusOK, Result: make([]byte, 128)}).MarshalWire},
	} {
		testutil.AllocGate(b, enc.name, 0, func() {
			w.Reset()
			enc.fn(w)
		})
	}

	// The ring transport's frame encoder writes header and envelope into the
	// pooled writer that becomes a ring slot, with no intermediate copy: one
	// stray allocation here multiplies by every frame the transport sends.
	env := Seal(0, 1, commit)
	testutil.AllocGate(b, "AppendEnvelopeFrame", 0, func() {
		w.Reset()
		if err := AppendEnvelopeFrame(w, env); err != nil {
			b.Fatal(err)
		}
	})

	// An owned encoding is the one allocation of EncodeBody and
	// EncodeEnvelope, and a batch is digested where it lies.
	testutil.AllocGate(b, "EncodeForward", 1, func() { EncodeBody(fwd) })
	testutil.AllocGate(b, "EncodePrepareBatch16", 1, func() { EncodeBody(prep) })
	testutil.AllocGate(b, "EncodeEnvelope", 1, func() { EncodeEnvelope(env) })
	testutil.AllocGate(b, "BatchDigest16", 0, func() { batch.Digest() })

	// A reply decodes into an OrderedReply the caller brought without
	// allocating: result, key list and tag are views.
	replyBody := EncodeBody(rep)
	var into OrderedReply
	testutil.AllocGate(b, "OrderedReplyUnmarshal", 0, func() {
		if err := into.UnmarshalWire(wire.NewReader(replyBody)); err != nil {
			b.Fatal(err)
		}
	})
	keys := 0
	testutil.AllocGate(b, "KeysIterate", 0, func() {
		for range into.InvalidKeys.All() {
			keys++
		}
	})

	// A request is hashed where it lies: no encoding of it is built, nothing
	// is allocated, whatever the operation's size.
	op := make([]byte, 4096)
	testutil.AllocGate(b, "RequestDigest4K", 0, func() {
		req := OrderRequest{Origin: 1, Client: 100, ClientSeq: 3, Op: op}
		if req.Digest() == (Digest{}) {
			b.Fatal("zero digest")
		}
	})

	// Decoding allocates the envelope and the message: 2 for a bare reply.
	// A batch of five takes 1, the message: its envelope, read and dropped
	// in the row itself, stays on the stack, and walking its replies into
	// one reused OrderedReply adds nothing. The 16 operations and the
	// certificate of a PREPARE are views, so it takes 3: envelope, message,
	// request slice.
	sealed := func(m Message) []byte {
		e := Seal(0, 1, m)
		e.MAC = make([]byte, 32)
		return EncodeEnvelope(e)
	}
	open := func(frame []byte) func() {
		return func() {
			e, err := DecodeEnvelope(frame)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := e.Open(); err != nil {
				b.Fatal(err)
			}
		}
	}
	testutil.AllocGate(b, "DecodeOpenOrderedReply", 2, open(sealed(rep)))
	batchFrame := sealed(NewReplyBatch(rep, rep, rep, rep, rep))
	testutil.AllocGate(b, "DecodeOpenWalkReplyBatch5", 1, func() {
		e, err := DecodeEnvelope(batchFrame)
		if err != nil {
			b.Fatal(err)
		}
		m, err := e.Open()
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for it := m.(*ReplyBatch).Iter(); ; n++ {
			if more, err := it.Next(&into); err != nil {
				b.Fatal(err)
			} else if !more {
				break
			}
		}
		if n != 5 {
			b.Fatalf("walked %d replies", n)
		}
	})
	testutil.AllocGate(b, "DecodeOpenPrepare16", 3, open(sealed(prep)))

	// The client-bound hop has no message object in either direction: sealing
	// allocates the envelope and its body, opening nothing.
	record := make([]byte, 160)
	var channel *Envelope
	testutil.AllocGate(b, "SealChannelData", 2, func() { channel = SealChannelData(0, 100, 7, record) })
	testutil.AllocGate(b, "OpenChannelData", 0, func() {
		if cd, err := channel.OpenChannelData(); err != nil || cd.ConnID != 7 || len(cd.Payload) != len(record) {
			b.Fatalf("%+v, %v", cd, err)
		}
	})
}
