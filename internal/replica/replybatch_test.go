package replica

import (
	"math/rand"
	"testing"
	"time"

	"github.com/troxy-bft/troxy/internal/authn"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/testutil"
	itroxy "github.com/troxy-bft/troxy/internal/troxy"
	"github.com/troxy-bft/troxy/internal/wire"
)

// tapEnv is a handler invocation's env reduced to what the reply path uses:
// it records what is sent (each envelope by value, as a runtime's Send copies
// it), how many timers are set and the length of every MAC charged, and its
// clock is the test's to move.
type tapEnv struct {
	self     msg.NodeID
	now      time.Duration
	sent     []msg.Envelope
	timers   int
	macBytes []int
}

func (e *tapEnv) Self() msg.NodeID                      { return e.self }
func (e *tapEnv) Now() time.Duration                    { return e.now }
func (e *tapEnv) Send(env *msg.Envelope)                { e.sent = append(e.sent, *env) }
func (e *tapEnv) SetTimer(time.Duration, node.TimerKey) { e.timers++ }
func (e *tapEnv) CancelTimer(node.TimerKey)             {}
func (e *tapEnv) Rand() *rand.Rand                      { return nil }
func (e *tapEnv) Logf(string, ...any)                   {}
func (e *tapEnv) Charge(_ node.Profile, k node.ChargeKind, n int) {
	if k == node.ChargeMAC {
		e.macBytes = append(e.macBytes, n)
	}
}

// repliesIn decodes the replies of a reply-batch envelope, each into a value
// of its own.
func repliesIn(t testing.TB, e msg.Envelope) []msg.OrderedReply {
	t.Helper()
	if e.Kind != msg.KindReplyBatch {
		t.Fatalf("envelope of kind %s, want a reply batch", e.Kind)
	}
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

func request(origin msg.NodeID, client, seq uint64) *msg.OrderRequest {
	return &msg.OrderRequest{Origin: origin, Client: client, ClientSeq: seq, Op: []byte("PUT k v")}
}

// TestRepliesLeavePerInvocationAndOrigin: what one handler invocation
// executes for an origin leaves as one envelope when the invocation ends, with
// no transport MAC and charged none. Nothing leaves as a bare OrderedReply,
// and the replies inside are what Committed was told, each under this
// replica's Troxy tag.
func TestRepliesLeavePerInvocationAndOrigin(t *testing.T) {
	reps, _, _ := newTroxyCluster(t)
	r, env := reps[0], &tapEnv{self: 0}
	for i := uint64(1); i <= 4; i++ {
		r.Committed(env, 7, request(1, 100+i, i), []byte("OK"), []string{"k"}, false, true)
		r.Committed(env, 7, request(2, 200+i, i), []byte("OK"), []string{"k"}, false, true)
	}
	if len(env.sent) != 0 {
		t.Fatalf("%d envelopes left before the invocation ended", len(env.sent))
	}
	env.macBytes = nil                              // the Troxy's tags; what the flush charges is checked below
	r.OnTimer(env, node.TimerKey{Kind: "nobody's"}) // any invocation's epilogue flushes
	if len(env.sent) != 2 {
		t.Fatalf("%d envelopes for two origins, want one each", len(env.sent))
	}
	for i, e := range env.sent {
		to := msg.NodeID(i + 1)
		if e.To != to || e.MAC != nil {
			t.Errorf("envelope %d: to %d with a %d-byte MAC, want %d with none", i, e.To, len(e.MAC), to)
		}
		got := repliesIn(t, e)
		if len(got) != 4 {
			t.Fatalf("origin %d got %d replies in its envelope, want 4", to, len(got))
		}
		for j, rep := range got {
			j := uint64(j + 1)
			want := request(to, uint64(100*int(to))+j, j)
			var keys []string
			for k := range rep.InvalidKeys.All() {
				keys = append(keys, string(k))
			}
			if rep.Client != want.Client || rep.ClientSeq != want.ClientSeq || rep.ReqDigest != want.Digest() ||
				rep.Seq != 7 || string(rep.Result) != "OK" || len(keys) != 1 || keys[0] != "k" || len(rep.TroxyTag) != authn.TagSize {
				t.Errorf("origin %d reply %d = %+v", to, j, rep)
			}
		}
	}
	if len(env.macBytes) != 0 {
		t.Errorf("%d MACs charged for two reply batches, want none", len(env.macBytes))
	}
	// Nothing is left for the next invocation.
	env.sent = nil
	r.OnTimer(env, node.TimerKey{Kind: "nobody's"})
	if len(env.sent) != 0 {
		t.Errorf("an idle invocation sent %d envelopes", len(env.sent))
	}
}

// TestQueuedReplyWaitsNoLongerThanTheBound: an invocation that is still
// executing when its oldest queued reply has waited replyBatchWait sends
// that origin's batch before it goes on — whichever origin the request it
// goes on with has, the replica's own included — and leaves younger queues
// alone.
func TestQueuedReplyWaitsNoLongerThanTheBound(t *testing.T) {
	reps, _, _ := newTroxyCluster(t)
	r, env := reps[0], &tapEnv{self: 0}
	r.Committed(env, 7, request(1, 101, 1), []byte("OK"), nil, false, true)
	env.now += replyBatchWait - 1
	r.Committed(env, 7, request(1, 102, 1), []byte("OK"), nil, false, true)
	r.Committed(env, 7, request(2, 201, 1), []byte("OK"), nil, false, true)
	if len(env.sent) != 0 {
		t.Fatalf("%d envelopes left inside the bound", len(env.sent))
	}
	env.now++ // origin 1's oldest reply is replyBatchWait old, origin 2's is not
	r.Committed(env, 7, request(0, 1, 1), []byte("OK"), nil, false, true)
	if len(env.sent) != 1 || env.sent[0].To != 1 || len(repliesIn(t, env.sent[0])) != 2 {
		t.Fatalf("after the bound: %d envelopes, want origin 1's two replies", len(env.sent))
	}
	// The clock of a queue starts with the reply that opens it.
	env.now += replyBatchWait - 2
	r.Committed(env, 7, request(1, 103, 1), []byte("OK"), nil, false, true)
	if len(env.sent) != 1 {
		t.Fatalf("origin 2's reply left inside the bound")
	}
	env.now++
	r.Committed(env, 7, request(1, 104, 1), []byte("OK"), nil, false, true)
	if len(env.sent) != 2 || env.sent[1].To != 2 {
		t.Fatalf("origin 2's reply is still queued after the bound")
	}
	r.OnTimer(env, node.TimerKey{Kind: "nobody's"})
	if len(env.sent) != 3 || len(repliesIn(t, env.sent[2])) != 2 {
		t.Fatalf("the epilogue did not send origin 1's second batch")
	}
}

// TestFullReplyBatchLeavesAtOnce: a destination that reaches the cap does not
// wait for the invocation to end, and a reply that would take a batch past
// BatchFlushBytes does not join it: only a reply that is larger by itself
// makes a larger envelope.
func TestFullReplyBatchLeavesAtOnce(t *testing.T) {
	reps, _, _ := newTroxyCluster(t)
	r, env := reps[0], &tapEnv{self: 0}
	for i := uint64(0); i < msg.MaxBatchReplies+2; i++ { // a full batch, two more
		r.Committed(env, 9, request(1, 100, i), []byte("OK"), nil, false, true)
	}
	if len(env.sent) != 1 || len(repliesIn(t, env.sent[0])) != msg.MaxBatchReplies {
		t.Fatalf("%d envelopes after %d replies, want one full batch", len(env.sent), msg.MaxBatchReplies+2)
	}

	// 60 KiB queued, then a large reply: the queue leaves first and the
	// large reply travels alone, in the frame it fitted when every reply did
	// (a frame holds MaxBytesLen and BatchFlushBytes more, not both twice).
	r.Committed(env, 9, request(1, 100, 50), make([]byte, 60<<10), nil, false, true)
	if len(env.sent) != 1 {
		t.Fatalf("a batch of %d bytes left before it was full", r.outbox[1].w.Len())
	}
	r.Committed(env, 9, request(1, 100, 51), make([]byte, 1<<20), nil, false, true)
	if len(env.sent) != 3 || len(repliesIn(t, env.sent[1])) != 3 || len(repliesIn(t, env.sent[2])) != 1 {
		t.Fatalf("%d envelopes, want the 60 KiB queue and then the large reply alone", len(env.sent))
	}
	if n := len(env.sent[1].Body); n > msg.BatchFlushBytes {
		t.Errorf("a batch of three replies is %d bytes, bound is %d", n, msg.BatchFlushBytes)
	}
	if r.outbox[1].w.Len() != 0 || r.outbox[1].n != 0 {
		t.Error("the flushed queue was not reset")
	}

	// A batch that fills up exactly leaves too.
	env.sent = nil
	r.Committed(env, 9, request(1, 100, 60), make([]byte, msg.BatchFlushBytes), nil, false, true)
	if len(env.sent) != 1 {
		t.Fatalf("a batch past %d bytes did not leave at once", msg.BatchFlushBytes)
	}
}

// TestReplyOutboxIsBoundedByTheGroup: the outbox holds one queue per replica
// whatever origins replies are committed for; a reply for an origin that is
// not a replica leaves at once as a batch of one; and after any Committed no
// queue, and no batch that left, holds more than a batch's count of replies,
// nor more than its bytes unless a single reply is larger by itself.
func TestReplyOutboxIsBoundedByTheGroup(t *testing.T) {
	reps, _, _ := newTroxyCluster(t)
	r, env := reps[0], &tapEnv{self: 0}
	rng := rand.New(rand.NewSource(1))
	origins := []msg.NodeID{0, 1, 2, 3, 7, 1 << 20, -2}
	sizes := []int{0, 100, 100, 100, 1 << 10, 1 << 10, 20 << 10, 2 * msg.BatchFlushBytes}
	for i := uint64(1); i <= 2000; i++ {
		origin := origins[rng.Intn(len(origins))]
		r.Committed(env, i, request(origin, 100, i), make([]byte, sizes[rng.Intn(len(sizes))]), nil, false, true)
		if len(r.outbox) != 3 {
			t.Fatalf("%d queues in the outbox of a group of 3", len(r.outbox))
		}
		if outside := origin < 0 || origin >= 3; outside &&
			(len(env.sent) != 1 || env.sent[0].To != origin || len(repliesIn(t, env.sent[0])) != 1) {
			t.Fatalf("a reply for origin %d left in %d envelopes, want one batch of one", origin, len(env.sent))
		}
		for to := range r.outbox {
			if q := &r.outbox[to]; q.n > msg.MaxBatchReplies || (q.n > 1 && q.w.Len() > msg.BatchFlushBytes) {
				t.Fatalf("queue %d holds %d replies in %d bytes after Committed", to, q.n, q.w.Len())
			}
		}
		if rng.Intn(64) == 0 {
			r.OnTimer(env, node.TimerKey{Kind: "nobody's"}) // an invocation ends
		}
		for _, e := range env.sent {
			if n := len(repliesIn(t, e)); n > msg.MaxBatchReplies || (n > 1 && len(e.Body) > msg.BatchFlushBytes) {
				t.Fatalf("a batch of %d replies in %d bytes left", n, len(e.Body))
			}
		}
		env.sent = env.sent[:0]
	}
}

// batchTo puts the given reply encodings into one batch from→to, as a replica
// sends it: with no MAC.
func batchTo(from, to msg.NodeID, body []byte) *msg.Envelope {
	return msg.Seal(from, to, &msg.ReplyBatch{Replies: body})
}

// TestMalformedReplyCostsTheRestOfItsBatch: a reply that does not decode ends
// the walk of its batch. The replies in front of it are handled, each by its
// own tag check, the rest of the envelope is dropped, and the event is
// counted — not as a bad MAC.
func TestMalformedReplyCostsTheRestOfItsBatch(t *testing.T) {
	reps, _, _ := newTroxyCluster(t)
	r, env := reps[0], &tapEnv{self: 0}
	w := wire.NewWriter(0)
	(&msg.OrderedReply{Executor: 1, Client: 5, ClientSeq: 1, Result: []byte("OK")}).MarshalWire(w)
	(&msg.OrderedReply{Executor: 1, Client: 6, ClientSeq: 1, Result: []byte("OK")}).MarshalWire(w)
	good := w.Len()
	w.Raw([]byte{1, 2, 3}) // not a reply
	r.OnEnvelope(env, batchTo(1, 0, w.Bytes()))
	st, ts := r.Stats(), mustStats(t, r)
	if st.BadBatches != 1 || st.BadMACs != 0 {
		t.Errorf("BadBatches = %d, BadMACs = %d, want 1 and 0", st.BadBatches, st.BadMACs)
	}
	// Both well-formed replies reached the Troxy (which drops them for their
	// missing tags: that is its count, not the transport's).
	if ts.BadReplies != 2 {
		t.Errorf("the Troxy saw %d replies, want the 2 in front of the malformed one", ts.BadReplies)
	}
	r.OnEnvelope(env, batchTo(1, 0, w.Bytes()[:good]))
	if st := r.Stats(); st.BadBatches != 1 {
		t.Errorf("a well-formed batch raised BadBatches to %d", st.BadBatches)
	}

	// One reply more than the bound: the first MaxBatchReplies are handled.
	w.Reset()
	for i := 0; i <= msg.MaxBatchReplies; i++ {
		(&msg.OrderedReply{Executor: 1, Client: uint64(10 + i), ClientSeq: 1}).MarshalWire(w)
	}
	before := mustStats(t, r).BadReplies
	r.OnEnvelope(env, batchTo(1, 0, w.Bytes()))
	if st := r.Stats(); st.BadBatches != 2 {
		t.Errorf("BadBatches = %d after an over-long batch, want 2", st.BadBatches)
	}
	if got := mustStats(t, r).BadReplies - before; got != msg.MaxBatchReplies {
		t.Errorf("an over-long batch fed %d replies to the Troxy, bound is %d", got, msg.MaxBatchReplies)
	}
}

func mustStats(t testing.TB, r *Replica) (s struct{ BadReplies uint64 }) {
	t.Helper()
	ts, err := r.proxy.Stats()
	if err != nil {
		t.Fatal(err)
	}
	s.BadReplies = ts.BadReplies
	return s
}

// TestReplyBatchWithoutTroxyIsUnhandled: a baseline replica has no voter.
func TestReplyBatchWithoutTroxyIsUnhandled(t *testing.T) {
	reps, dir, _ := newBaselineCluster(t)
	w := wire.NewWriter(0)
	(&msg.OrderedReply{Executor: 1, Client: 5, ClientSeq: 1}).MarshalWire(w)
	reps[0].OnEnvelope(&tapEnv{self: 0}, batchTo(1, 0, w.Bytes()))
	if st := reps[0].Stats(); st.Unhandled != 1 || st.BadBatches != 0 || st.BadMACs != 0 {
		t.Errorf("stats = %+v, want one unhandled message", st)
	}
	// Nor has any replica a handler for a client-bound kind, which neither
	// the dispatch nor the core owns, and a baseline replica has no voter for
	// a speculative reply: each is counted.
	for i, m := range []msg.Message{
		&msg.BFTReply{Executor: 1, Client: 5, ClientSeq: 1},
		&msg.SpecReply{Executor: 1, Client: 5, ClientSeq: 1},
	} {
		stray := msg.Seal(1, 0, m)
		authn.NewAuthenticator(1, dir).SealMAC(stray)
		reps[0].OnEnvelope(&tapEnv{self: 0}, stray)
		if st := reps[0].Stats(); st.Unhandled != uint64(2+i) || st.BadMACs != 0 {
			t.Errorf("after a stray %s: stats = %+v, want %d unhandled messages", m.Kind(), st, 2+i)
		}
	}
}

// BenchmarkAllocGate: a reply for a remote origin is built in the replica's
// reused reply, tagged into the storage of the last tag, and appended to the
// origin's queue — no allocation once the buffers exist. The envelope that
// carries a batch out costs its body: the header is the replica's own, which
// Send copies. A peer's cache query is opened into the replica's scratch and
// answered with the body its Troxy encoded: the binding's copy-out and the
// Actions' Queries slice.
func BenchmarkAllocGate(b *testing.B) {
	reps, _, _ := newTroxyCluster(b)
	r, env := reps[0], &tapEnv{self: 0}
	req, result, keys := request(1, 100, 1), make([]byte, 128), []string{"key-0001"}
	req.Digest()
	testutil.AllocGate(b, "CommittedRemoteOrigin", 0, func() {
		r.Committed(env, 9, req, result, keys, false, true)
		r.outbox[1].w.Reset() // stands for the flush, which is gated below
		r.outbox[1].n = 0
	})
	testutil.AllocGate(b, "FlushReplyBatch5", 1, func() {
		for i := 0; i < 5; i++ {
			r.Committed(env, 9, req, result, keys, false, true)
		}
		r.flushTo(env, 1)
		env.sent = env.sent[:0]
	})

	tagger := itroxy.NewGroupTagger(troxyDir(b).TroxyGroupKey())
	q := &msg.CacheQuery{From: 1, To: 0, QueryID: 7, ReqDigest: msg.DigestOf([]byte("GET k"))}
	q.Tag = tagger.Tag(nil, q.Kind(), q.From, tagInputOf(q))
	query := &msg.Envelope{From: 1, To: 0, Kind: msg.KindCacheQuery, Body: msg.EncodeBody(q)}
	testutil.AllocGate(b, "CacheQueryInReplyOut", 2, func() {
		r.OnEnvelope(env, query)
		if len(env.sent) != 1 || env.sent[0].Kind != msg.KindCacheReply || env.sent[0].To != 1 || env.sent[0].MAC != nil {
			b.Fatalf("a cache query was answered with %d envelopes", len(env.sent))
		}
		env.sent, env.macBytes = env.sent[:0], env.macBytes[:0]
	})
}
