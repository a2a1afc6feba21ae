package msg

import (
	"fmt"
	"testing"

	"github.com/troxy-bft/troxy/internal/testutil"
	"github.com/troxy-bft/troxy/internal/wire"
)

// Allocation benchmarks for the encode hot path. The pooled writers in
// internal/wire should keep steady-state encoding at one allocation per call
// (the returned copy); run with -benchmem to see it.

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

func BenchmarkEncodeForward(b *testing.B) {
	fwd := &Forward{Req: benchBatch(1).Reqs[0]}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(fwd)
	}
}

func BenchmarkEncodePrepareBatch16(b *testing.B) {
	prep := &Prepare{View: 1, Seq: 7, Batch: *benchBatch(16),
		Cert: CounterCert{Replica: 0, Counter: 1, Value: 7, MAC: make([]byte, 32)}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(prep)
	}
}

func BenchmarkEncodeEnvelope(b *testing.B) {
	env := Seal(0, 1, &Commit{View: 1, Seq: 7,
		Cert: CounterCert{Replica: 1, Counter: 1, Value: 7, MAC: make([]byte, 32)}})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EncodeEnvelope(env)
	}
}

func BenchmarkBatchDigest16(b *testing.B) {
	batch := benchBatch(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Digest()
	}
}

// BenchmarkAppendEnvelopeFrame measures the specialized transport's encode
// path: frame header plus envelope appended into a pooled writer that
// becomes a ring slot, with no intermediate copy. The benchmark gates, not
// just reports: any allocation per op fails it (`make bench-quick` runs it
// in CI), because one stray alloc here multiplies by every frame the
// transport sends.
func BenchmarkAppendEnvelopeFrame(b *testing.B) {
	env := Seal(0, 1, &Commit{View: 1, Seq: 7,
		Cert: CounterCert{Replica: 1, Counter: 1, Value: 7, MAC: make([]byte, 32)}})
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	if allocs := testing.AllocsPerRun(1000, func() {
		w.Reset()
		if err := AppendEnvelopeFrame(w, env); err != nil {
			b.Fatal(err)
		}
	}); allocs != 0 {
		b.Fatalf("pooled frame encode allocates %.1f/op, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset()
		if err := AppendEnvelopeFrame(w, env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocGate holds the codec side of the request path's buffer
// discipline (DESIGN.md §5): encoding appends into a writer the caller
// brought, decoding returns views, and what is left to allocate is the
// message objects themselves — never a copy of a field.
func BenchmarkAllocGate(b *testing.B) {
	rep := &OrderedReply{Executor: 1, Seq: 9, Client: 100, ClientSeq: 3,
		Result: make([]byte, 128), InvalidKeys: keysOf("key-0001"), TroxyTag: make([]byte, 32)}
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	testutil.AllocGate(b, "OrderedReplyMarshalAndTagInput", 0, func() {
		w.Reset()
		rep.MarshalWire(w)
		w.Reset()
		rep.TagInput(w)
	})

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

	// Decoding allocates the envelope and the message: 2, for a bare reply
	// and for a batch of five alike — walking the batch's replies into one
	// reused OrderedReply adds nothing. The 16 operations and the
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
	testutil.AllocGate(b, "DecodeOpenWalkReplyBatch5", 2, func() {
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
	testutil.AllocGate(b, "DecodeOpenPrepare16", 3, open(sealed(&Prepare{View: 1, Seq: 7, Batch: *benchBatch(16),
		Cert: CounterCert{Replica: 0, Counter: 1, Value: 7, MAC: make([]byte, 32)}})))

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
