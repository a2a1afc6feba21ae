package replica

import (
	"bytes"
	"testing"

	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/securechannel"
	itroxy "github.com/troxy-bft/troxy/internal/troxy"
	"github.com/troxy-bft/troxy/internal/wire"
)

// A cache query, a cache reply and a reply batch travel without a transport
// MAC: the replica opens them and hands them to its Troxy, which checks the
// group tags inside. These tests hold that path to what the MAC used to give:
// whatever is done to such a body, the Troxy takes nothing but the message its
// tags cover, and the envelope's From — which no tag covers — changes nothing.

// troxyHost is replica 0 in Troxy mode with a legacy client connected to its
// Troxy, driven through the Core for the client's part.
type troxyHost struct {
	r      *Replica
	core   *itroxy.Core
	env    *tapEnv
	tagger *itroxy.GroupTagger
	client *securechannel.Session
	seq    uint64
}

// clientNode is the machine the legacy client's records go to.
const clientNode msg.NodeID = 90

// keyStream is deterministic key material for the client's handshake.
type keyStream struct{ n byte }

func (k *keyStream) Read(p []byte) (int, error) {
	for i := range p {
		k.n++
		p[i] = k.n
	}
	return len(p), nil
}

func newTroxyHost(t testing.TB) *troxyHost {
	t.Helper()
	dir := troxyDir(t)
	r, core := newTroxyReplica(t, dir, 0)
	h := &troxyHost{r: r, core: core, env: &tapEnv{self: 0}, tagger: itroxy.NewGroupTagger(dir.TroxyGroupKey())}
	hs, hello, err := securechannel.NewClientHandshake(servicePub(dir), &keyStream{})
	if err != nil {
		t.Fatal(err)
	}
	acts, err := core.HandleClientData(0, 1, clientNode, hello)
	if err != nil || len(acts.Client) != 1 {
		t.Fatalf("handshake: %d frames, %v", len(acts.Client), err)
	}
	if h.client, err = hs.Finish(acts.Client[0].Frame); err != nil {
		t.Fatal(err)
	}
	return h
}

// request has the client send op; what it returns is the Core's scratch.
func (h *troxyHost) request(t testing.TB, op string) itroxy.Actions {
	t.Helper()
	h.seq++
	rec, err := h.client.Seal(msg.EncodeChannelRequest(&msg.ChannelRequest{Client: 100, Seq: h.seq, Op: []byte(op)}))
	if err != nil {
		t.Fatal(err)
	}
	acts, err := h.core.HandleClientData(0, 1, clientNode, rec)
	if err != nil {
		t.Fatal(err)
	}
	return acts
}

// sent counts what the replica sent of a kind since the last reset.
func (h *troxyHost) sent(kind msg.Kind) int {
	n := 0
	for _, e := range h.env.sent {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// tagged is a message a Troxy tags.
type tagged interface {
	Kind() msg.Kind
	TagInput(*wire.Writer)
}

func tagInputOf(m tagged) []byte {
	w := wire.NewWriter(0)
	m.TagInput(w)
	return w.Bytes()
}

// sameAs reports whether a decoded message is the genuine one as far as any
// tag can tell: the same bytes under the tag, and the same tag.
func sameAs(m tagged, tag []byte, genuine tagged, genuineTag []byte) bool {
	return bytes.Equal(tagInputOf(m), tagInputOf(genuine)) && bytes.Equal(tag, genuineTag)
}

// flipped returns body with byte i flipped, in a copy.
func flipped(body []byte, i int) []byte {
	c := bytes.Clone(body)
	c[i] ^= 1 << (i % 8)
	return c
}

// cachedRead has the client read "GET k", which this replica's Troxy has
// cached, and returns the query it sends and the answer of the queried peer,
// tagged by that peer's Troxy.
func (h *troxyHost) cachedRead(t testing.TB) (msg.CacheQuery, *msg.CacheReply) {
	t.Helper()
	own := &msg.OrderedReply{Executor: 0, Seq: 1, Result: []byte("VALUE v"), InvalidKeys: msg.AppendKeys(nil, []string{"k"})}
	if err := h.core.AuthenticateReply(own, true, true, msg.DigestOf([]byte("GET k")), nil); err != nil {
		t.Fatal(err)
	}
	acts := h.request(t, "GET k")
	if len(acts.Queries) != 1 || acts.Queries[0].Query == nil {
		t.Fatalf("a cached read sent %+v, want one cache query", acts.Queries)
	}
	q := *acts.Queries[0].Query
	rep := &msg.CacheReply{From: q.To, To: q.From, QueryID: q.QueryID, ReqDigest: q.ReqDigest,
		Found: true, ReplyDigest: msg.DigestOf([]byte("VALUE v"))}
	rep.Tag = h.tagger.Tag(nil, rep.Kind(), rep.From, tagInputOf(rep))
	return q, rep
}

// writesVotedByReplica2 has the client send two writes, casts replica 2's
// vote for each, and returns replica 1's replies to both, tagged by its Troxy:
// either completes its vote.
func (h *troxyHost) writesVotedByReplica2(t testing.TB) []*msg.OrderedReply {
	t.Helper()
	var replies []*msg.OrderedReply
	for _, op := range []string{"PUT a 1", "PUT b 2"} {
		acts := h.request(t, op)
		if len(acts.Submits) != 1 {
			t.Fatalf("%s submitted %d requests", op, len(acts.Submits))
		}
		req := &acts.Submits[0]
		for _, executor := range []msg.NodeID{2, 1} {
			rep := &msg.OrderedReply{Executor: executor, Seq: h.seq, Client: req.Client, ClientSeq: req.ClientSeq,
				ReqDigest: req.Digest(), Result: []byte("OK"), InvalidKeys: msg.AppendKeys(nil, []string{op[4:5]})}
			rep.TroxyTag = h.tagger.Tag(nil, rep.Kind(), executor, tagInputOf(rep))
			if executor == 2 {
				if out, err := h.core.HandleReply(0, rep); err != nil || len(out.Client) != 0 {
					t.Fatalf("one vote answered the client: %+v, %v", out, err)
				}
				continue
			}
			replies = append(replies, rep)
		}
	}
	return replies
}

// TestTroxyTaggedBodyFlipsAreRejectedOrInert flips every byte of a cache
// query's, a cache reply's and a reply batch's body, one at a time, and
// delivers each to a replica in Troxy mode. Each flip fails to decode (a bad
// MAC, the transport's one count for these kinds), is rejected and counted by
// the Troxy, or decodes to a message whose tagged fields and tag are the
// genuine one's and is handled as that. Nothing else reaches a vote, a cache
// or a client.
func TestTroxyTaggedBodyFlipsAreRejectedOrInert(t *testing.T) {
	t.Run("CacheQuery", func(t *testing.T) {
		h := newTroxyHost(t)
		q := &msg.CacheQuery{From: 1, To: 0, QueryID: 7, ReqDigest: msg.DigestOf([]byte("GET k"))}
		q.Tag = h.tagger.Tag(nil, q.Kind(), 1, tagInputOf(q))
		body := msg.EncodeBody(q)
		for i := range body {
			e := &msg.Envelope{From: 1, To: 0, Kind: msg.KindCacheQuery, Body: flipped(body, i)}
			before, tsBefore := h.r.Stats(), h.core.Stats()
			h.env.sent = nil
			h.r.OnEnvelope(h.env, e)
			m, err := e.Open()
			switch {
			case err != nil:
				if got := h.r.Stats().BadMACs - before.BadMACs; got != 1 || len(h.env.sent) != 0 {
					t.Errorf("byte %d: undecodable query counted %d times, %d envelopes sent", i, got, len(h.env.sent))
				}
			case sameAs(m.(*msg.CacheQuery), m.(*msg.CacheQuery).Tag, q, q.Tag):
				if h.sent(msg.KindCacheReply) != 1 {
					t.Errorf("byte %d: an encoding of the genuine query went unanswered", i)
				}
			default:
				if got := h.core.Stats().BadQueries - tsBefore.BadQueries; got != 1 || len(h.env.sent) != 0 {
					t.Errorf("byte %d: altered query counted %d times, %d envelopes sent", i, got, len(h.env.sent))
				}
			}
		}
		h.env.sent = nil
		h.r.OnEnvelope(h.env, &msg.Envelope{From: 1, To: 0, Kind: msg.KindCacheQuery, Body: body})
		if len(h.env.sent) != 1 || h.env.sent[0].Kind != msg.KindCacheReply || h.env.sent[0].To != 1 {
			t.Fatalf("the genuine query was not answered to replica 1: %d envelopes", len(h.env.sent))
		}
	})

	t.Run("CacheReply", func(t *testing.T) {
		_, genuine := newTroxyHost(t).cachedRead(t)
		body := msg.EncodeBody(genuine)
		for i := range body {
			h := newTroxyHost(t) // a fresh fast read for each: an equivalent flip completes it
			h.cachedRead(t)
			e := &msg.Envelope{From: genuine.From, To: 0, Kind: msg.KindCacheReply, Body: flipped(body, i)}
			h.r.OnEnvelope(h.env, e)
			st, ts := h.r.Stats(), h.core.Stats()
			m, err := e.Open()
			switch {
			case err != nil:
				if st.BadMACs != 1 || len(h.env.sent) != 0 || ts.FastReadOK+ts.FastReadFell != 0 {
					t.Errorf("byte %d: undecodable reply: stats %+v, %+v, %d envelopes sent", i, st, ts, len(h.env.sent))
				}
			case sameAs(m.(*msg.CacheReply), m.(*msg.CacheReply).Tag, genuine, genuine.Tag):
				if h.sent(msg.KindChannelData) != 1 || ts.FastReadOK != 1 {
					t.Errorf("byte %d: an encoding of the genuine reply did not complete the fast read", i)
				}
			default:
				if ts.BadQueries != 1 || len(h.env.sent) != 0 || ts.FastReadOK+ts.FastReadFell != 0 {
					t.Errorf("byte %d: altered reply: Troxy stats %+v, %d envelopes sent", i, ts, len(h.env.sent))
				}
			}
		}
		h := newTroxyHost(t)
		h.cachedRead(t)
		h.r.OnEnvelope(h.env, &msg.Envelope{From: genuine.From, To: 0, Kind: msg.KindCacheReply, Body: body})
		if h.sent(msg.KindChannelData) != 1 {
			t.Fatal("the genuine cache reply did not answer the client")
		}
	})

	t.Run("ReplyBatch", func(t *testing.T) {
		genuine := newTroxyHost(t).writesVotedByReplica2(t)
		body := msg.EncodeBody(msg.NewReplyBatch(genuine...))
		for i := range body {
			h := newTroxyHost(t) // fresh votes for each: an intact reply completes its own
			h.writesVotedByReplica2(t)
			h.r.OnEnvelope(h.env, &msg.Envelope{From: 1, To: 0, Kind: msg.KindReplyBatch, Body: flipped(body, i)})
			// Walk the flipped batch as the replica does and sort its replies.
			intact, forged, cut := 0, 0, uint64(0)
			var rep msg.OrderedReply
			for it := (&msg.ReplyBatch{Replies: flipped(body, i)}).Iter(); ; {
				more, err := it.Next(&rep)
				if err != nil {
					cut = 1
				}
				if !more {
					break
				}
				if sameAs(&rep, rep.TroxyTag, genuine[0], genuine[0].TroxyTag) || sameAs(&rep, rep.TroxyTag, genuine[1], genuine[1].TroxyTag) {
					intact++
				} else {
					forged++
				}
			}
			st, ts := h.r.Stats(), h.core.Stats()
			if forged == 0 && cut == 0 && intact != len(genuine) {
				t.Fatalf("byte %d: the flip went unseen by the walk", i)
			}
			if h.sent(msg.KindChannelData) != intact || ts.BadReplies != uint64(forged) || st.BadBatches != cut || st.BadMACs != 0 {
				t.Errorf("byte %d: %d intact, %d altered replies, cut %d: %d answers, BadReplies %d, BadBatches %d, BadMACs %d",
					i, intact, forged, cut, h.sent(msg.KindChannelData), ts.BadReplies, st.BadBatches, st.BadMACs)
			}
		}
		h := newTroxyHost(t)
		h.writesVotedByReplica2(t)
		h.r.OnEnvelope(h.env, &msg.Envelope{From: 1, To: 0, Kind: msg.KindReplyBatch, Body: body})
		if h.sent(msg.KindChannelData) != len(genuine) {
			t.Fatal("the genuine batch did not complete both votes")
		}
	})
}

// TestTroxyTaggedEnvelopeSenderIsInert: the envelope's From of a kind a Troxy
// tags is covered by nothing, so nothing reads it. A query, a cache reply and
// a reply batch whose envelopes claim another sender — a peer, a stranger, no
// node — are handled as from whom their tags name: the query is answered to
// its tagged querier, the reply completes the fast read that asked its tagged
// peer, the batch's reply counts for its executor. No per-sender counter of
// the ordering core moves, and no envelope counts as a bad MAC.
func TestTroxyTaggedEnvelopeSenderIsInert(t *testing.T) {
	for _, forged := range []msg.NodeID{2, 100, msg.NoNode} {
		h := newTroxyHost(t)
		q := &msg.CacheQuery{From: 1, To: 0, QueryID: 7, ReqDigest: msg.DigestOf([]byte("GET k"))}
		q.Tag = h.tagger.Tag(nil, q.Kind(), 1, tagInputOf(q))
		_, reply := h.cachedRead(t)
		replies := h.writesVotedByReplica2(t)
		metrics := h.r.core.Metrics()

		h.r.OnEnvelope(h.env, &msg.Envelope{From: forged, To: 0, Kind: msg.KindCacheQuery, Body: msg.EncodeBody(q)})
		if len(h.env.sent) != 1 || h.env.sent[0].Kind != msg.KindCacheReply || h.env.sent[0].To != 1 {
			t.Errorf("from %d: the query was not answered to its tagged querier", forged)
		}
		h.env.sent = nil
		h.r.OnEnvelope(h.env, &msg.Envelope{From: forged, To: 0, Kind: msg.KindCacheReply, Body: msg.EncodeBody(reply)})
		if h.sent(msg.KindChannelData) != 1 {
			t.Errorf("from %d: the cache reply did not complete the fast read", forged)
		}
		h.env.sent = nil
		h.r.OnEnvelope(h.env, &msg.Envelope{From: forged, To: 0, Kind: msg.KindReplyBatch, Body: msg.EncodeBody(msg.NewReplyBatch(replies...))})
		if h.sent(msg.KindChannelData) != len(replies) {
			t.Errorf("from %d: the batch's replies did not count for their executor", forged)
		}

		if h.r.core.Metrics() != metrics || h.r.Stats() != (Stats{}) {
			t.Errorf("from %d: the ordering core or the transport counted something: %+v, %+v", forged, h.r.core.Metrics(), h.r.Stats())
		}
		for _, id := range []msg.NodeID{0, 1, 2, 100, msg.NoNode} {
			if n := h.r.core.RejectedCertsFrom(id); n != 0 {
				t.Errorf("from %d: %d certificates rejected from %d", forged, n, id)
			}
		}
		if ts := h.core.Stats(); ts.BadQueries+ts.BadReplies != 0 || ts.FastReadOK != 1 || ts.VotesCompleted != uint64(len(replies)) {
			t.Errorf("from %d: Troxy stats %+v", forged, ts)
		}
	}
}
