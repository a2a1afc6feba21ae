package replica

import (
	"math/rand"
	"testing"
	"time"

	"github.com/troxy-bft/troxy/internal/authn"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/testutil"
	"github.com/troxy-bft/troxy/internal/wire"
)

// tapEnv is a handler invocation's env reduced to what the reply path uses:
// it records what is sent.
type tapEnv struct {
	self msg.NodeID
	sent []*msg.Envelope
}

func (e *tapEnv) Self() msg.NodeID                          { return e.self }
func (e *tapEnv) Now() time.Duration                        { return 0 }
func (e *tapEnv) Send(env *msg.Envelope)                    { e.sent = append(e.sent, env) }
func (e *tapEnv) SetTimer(time.Duration, node.TimerKey)     {}
func (e *tapEnv) CancelTimer(node.TimerKey)                 {}
func (e *tapEnv) Rand() *rand.Rand                          { return nil }
func (e *tapEnv) Charge(node.Profile, node.ChargeKind, int) {}
func (e *tapEnv) Logf(string, ...any)                       {}

// repliesIn decodes the replies of a reply-batch envelope, each into a value
// of its own.
func repliesIn(t testing.TB, e *msg.Envelope) []msg.OrderedReply {
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

// TestRepliesLeavePerInvocationAndOrigin: the first reply an invocation
// produces for an origin leaves at once, alone; the rest of what it executes
// for that origin leaves as one MAC'd envelope when the invocation ends.
// Nothing leaves as a bare OrderedReply, and the replies inside are what
// Committed was told, each under this replica's Troxy tag.
func TestRepliesLeavePerInvocationAndOrigin(t *testing.T) {
	reps, _, _ := newTroxyCluster(t)
	r, env := reps[0], &tapEnv{self: 0}
	for i := uint64(1); i <= 4; i++ {
		r.Committed(env, 7, request(1, 100+i, i), []byte("OK"), []string{"k"}, false, true)
		r.Committed(env, 7, request(2, 200+i, i), []byte("OK"), []string{"k"}, false, true)
	}
	if len(env.sent) != 2 {
		t.Fatalf("%d envelopes left before the invocation ended, want each origin's leading reply", len(env.sent))
	}
	r.OnTimer(env, node.TimerKey{Kind: "nobody's"}) // any invocation's epilogue flushes
	if len(env.sent) != 4 {
		t.Fatalf("%d envelopes for two origins, want a leading reply and a batch each", len(env.sent))
	}
	next := map[msg.NodeID]uint64{1: 1, 2: 1}
	for i, e := range env.sent {
		to := msg.NodeID(i%2 + 1)
		if e.To != to || !authn.NewAuthenticator(to, r.cfg.Directory).VerifyMAC(e) {
			t.Errorf("envelope %d: to %d, want %d under a valid MAC", i, e.To, to)
		}
		got := repliesIn(t, e)
		if want := map[bool]int{true: 1, false: 3}[i < 2]; len(got) != want {
			t.Fatalf("envelope %d for origin %d carries %d replies, want %d", i, to, len(got), want)
		}
		for _, rep := range got {
			j := next[to]
			next[to]++
			want := request(to, uint64(100*int(to))+j, j)
			if rep.Client != want.Client || rep.ClientSeq != want.ClientSeq || rep.ReqDigest != want.Digest() ||
				rep.Seq != 7 || string(rep.Result) != "OK" || rep.InvalidKeys.Strings()[0] != "k" || len(rep.TroxyTag) != authn.TagSize {
				t.Errorf("origin %d reply %d = %+v", to, j, rep)
			}
		}
	}
	// Nothing is left for the next invocation, whose first reply leads again.
	env.sent = nil
	r.OnTimer(env, node.TimerKey{Kind: "nobody's"})
	if len(env.sent) != 0 {
		t.Errorf("an idle invocation sent %d envelopes", len(env.sent))
	}
	r.Committed(env, 8, request(1, 101, 9), []byte("OK"), nil, false, true)
	if len(env.sent) != 1 {
		t.Errorf("the next invocation's first reply waited")
	}
}

// TestFullReplyBatchLeavesAtOnce: a destination that reaches the cap does not
// wait for the invocation to end.
func TestFullReplyBatchLeavesAtOnce(t *testing.T) {
	reps, _, _ := newTroxyCluster(t)
	r, env := reps[0], &tapEnv{self: 0}
	for i := uint64(0); i <= msg.MaxBatchReplies+2; i++ { // the leading reply, a full batch, two more
		r.Committed(env, 9, request(1, 100, i), []byte("OK"), nil, false, true)
	}
	if len(env.sent) != 2 || len(repliesIn(t, env.sent[1])) != msg.MaxBatchReplies {
		t.Fatalf("%d envelopes after %d replies, want the leading reply and one full batch", len(env.sent), msg.MaxBatchReplies+3)
	}
	big := make([]byte, msg.BatchFlushBytes)
	r.Committed(env, 9, request(1, 100, 99), big, nil, false, true)
	if len(env.sent) != 3 || len(repliesIn(t, env.sent[2])) != 3 {
		t.Fatalf("a batch past %d bytes did not leave at once", msg.BatchFlushBytes)
	}
	if r.outbox[1].w.Len() != 0 || r.outbox[1].n != 0 {
		t.Error("the flushed queue was not reset")
	}
}

// batchTo seals the given reply encodings into one MAC'd batch from→to.
func batchTo(dir *authn.Directory, from, to msg.NodeID, body []byte) *msg.Envelope {
	e := msg.Seal(from, to, &msg.ReplyBatch{Replies: body})
	authn.NewAuthenticator(from, dir).SealMAC(e)
	return e
}

// TestMalformedReplyCostsTheRestOfItsBatch: the transport MAC covers the
// whole batch, so a reply that does not decode is the (authenticated)
// sender's doing. The replies in front of it are handled, the rest of the
// envelope is dropped, and the event is counted — not as a bad MAC.
func TestMalformedReplyCostsTheRestOfItsBatch(t *testing.T) {
	reps, _, _ := newTroxyCluster(t)
	r, env := reps[0], &tapEnv{self: 0}
	w := wire.NewWriter(0)
	(&msg.OrderedReply{Executor: 1, Client: 5, ClientSeq: 1, Result: []byte("OK")}).MarshalWire(w)
	(&msg.OrderedReply{Executor: 1, Client: 6, ClientSeq: 1, Result: []byte("OK")}).MarshalWire(w)
	good := w.Len()
	w.Raw([]byte{1, 2, 3}) // not a reply
	r.OnEnvelope(env, batchTo(r.cfg.Directory, 1, 0, w.Bytes()))
	st, ts := r.Stats(), mustStats(t, r)
	if st.BadBatches != 1 || st.BadMACs != 0 {
		t.Errorf("BadBatches = %d, BadMACs = %d, want 1 and 0", st.BadBatches, st.BadMACs)
	}
	// Both well-formed replies reached the Troxy (which drops them for their
	// missing tags: that is its count, not the transport's).
	if ts.BadReplies != 2 {
		t.Errorf("the Troxy saw %d replies, want the 2 in front of the malformed one", ts.BadReplies)
	}
	r.OnEnvelope(env, batchTo(r.cfg.Directory, 1, 0, w.Bytes()[:good]))
	if st := r.Stats(); st.BadBatches != 1 {
		t.Errorf("a well-formed batch raised BadBatches to %d", st.BadBatches)
	}

	// One reply more than the bound: the first MaxBatchReplies are handled.
	w.Reset()
	for i := 0; i <= msg.MaxBatchReplies; i++ {
		(&msg.OrderedReply{Executor: 1, Client: uint64(10 + i), ClientSeq: 1}).MarshalWire(w)
	}
	before := mustStats(t, r).BadReplies
	r.OnEnvelope(env, batchTo(r.cfg.Directory, 1, 0, w.Bytes()))
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
	reps[0].OnEnvelope(&tapEnv{self: 0}, batchTo(dir, 1, 0, w.Bytes()))
	if st := reps[0].Stats(); st.Unhandled != 1 || st.BadBatches != 0 || st.BadMACs != 0 {
		t.Errorf("stats = %+v, want one unhandled message", st)
	}
}

// BenchmarkAllocGate: a reply for a remote origin is built in the replica's
// reused reply, tagged into the storage of the last tag, and appended to the
// origin's queue — no allocation once the buffers exist. The envelope that
// carries a batch out costs three: its body, itself and its MAC.
func BenchmarkAllocGate(b *testing.B) {
	reps, _, _ := newTroxyCluster(b)
	r, env := reps[0], &tapEnv{self: 0}
	req, result, keys := request(1, 100, 1), make([]byte, 128), []string{"key-0001"}
	req.Digest()
	r.Committed(env, 9, req, result, keys, false, true) // the invocation's leading reply: the rest queue
	testutil.AllocGate(b, "CommittedRemoteOrigin", 0, func() {
		r.Committed(env, 9, req, result, keys, false, true)
		r.outbox[1].w.Reset() // stands for the flush, which is gated below
		r.outbox[1].n = 0
	})
	testutil.AllocGate(b, "FlushReplyBatch5", 3, func() {
		for i := 0; i < 5; i++ {
			r.Committed(env, 9, req, result, keys, false, true)
		}
		r.flushTo(env, 1)
		env.sent = env.sent[:0]
	})
}
