package troxy

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/securechannel"
	"github.com/troxy-bft/troxy/internal/wire"
)

// testSecrets builds a provisioning bundle and the matching verifier state.
func testSecrets(t testing.TB) (map[string][]byte, ed25519.PublicKey, *GroupTagger) {
	t.Helper()
	seed := bytes.Repeat([]byte{7}, ed25519.SeedSize)
	group := []byte("group-secret")
	secrets := map[string][]byte{
		SecretIdentity: seed,
		SecretGroup:    group,
		"counter-key":  []byte("ck"),
	}
	pub := ed25519.NewKeyFromSeed(seed).Public().(ed25519.PublicKey)
	return secrets, pub, NewGroupTagger(group)
}

func classifyKV(op []byte) bool { return strings.HasPrefix(string(op), "GET ") }

func newTestCore(t testing.TB, fastReads bool) (*Core, ed25519.PublicKey, *GroupTagger) {
	t.Helper()
	core := NewCore(Config{
		Self:         0,
		N:            3,
		F:            1,
		Seed:         5,
		Classify:     classifyKV,
		FastReads:    fastReads,
		QueryTimeout: 100 * time.Millisecond,
	})
	secrets, pub, tagger := testSecrets(t)
	if err := core.ProvisionSecrets(secrets); err != nil {
		t.Fatal(err)
	}
	return core, pub, tagger
}

// clientChannel is a test helper holding the client side of a secure channel
// to a core.
type clientChannel struct {
	sess   *securechannel.Session
	connID uint64
	client uint64
	seq    uint64
}

func openChannel(t testing.TB, core *Core, pub ed25519.PublicKey, connID, client uint64) *clientChannel {
	t.Helper()
	hs, hello, err := securechannel.NewClientHandshake(pub, deterministicRand(t))
	if err != nil {
		t.Fatal(err)
	}
	acts, err := core.HandleClientData(0, connID, msg.NodeID(90), hello)
	if err != nil {
		t.Fatal(err)
	}
	if len(acts.Client) != 1 {
		t.Fatalf("handshake produced %d frames", len(acts.Client))
	}
	sess, err := hs.Finish(acts.Client[0].Frame)
	if err != nil {
		t.Fatal(err)
	}
	return &clientChannel{sess: sess, connID: connID, client: client}
}

func deterministicRand(t testing.TB) *bytesReader {
	t.Helper()
	return &bytesReader{}
}

// bytesReader is a deterministic io.Reader for handshake key material.
type bytesReader struct{ n byte }

func (b *bytesReader) Read(p []byte) (int, error) {
	for i := range p {
		b.n++
		p[i] = b.n
	}
	return len(p), nil
}

// request encrypts a generic-protocol operation into channel bytes.
func (cc *clientChannel) request(t testing.TB, core *Core, now time.Duration, op string, read bool) Actions {
	t.Helper()
	cc.seq++
	flags := uint8(0)
	if read {
		flags = msg.FlagReadOnly
	}
	plain := msg.EncodeChannelRequest(&msg.ChannelRequest{
		Client: cc.client, Seq: cc.seq, Flags: flags, Op: []byte(op),
	})
	record, err := cc.sess.Seal(plain)
	if err != nil {
		t.Fatal(err)
	}
	acts, err := core.HandleClientData(now, cc.connID, msg.NodeID(90), record)
	if err != nil {
		t.Fatal(err)
	}
	return acts
}

// tagInput returns the bytes a message's group tag covers.
func tagInput(m interface{ TagInput(*wire.Writer) }) []byte {
	w := wire.NewWriter(128)
	m.TagInput(w)
	return w.Bytes()
}

// openPeer decodes a cache message from a copy of its Body, as the peer's
// replica opens it, and fails the test unless it is an M: what it returns
// outlives the Core's scratch the Body may be a view of.
func openPeer[M msg.Message](t testing.TB, pm PeerCacheMsg) M {
	t.Helper()
	m, err := (&msg.Envelope{Kind: pm.Kind, Body: bytes.Clone(pm.Body)}).Open()
	typed, ok := m.(M)
	if err != nil || !ok {
		t.Fatalf("the %v to %d does not open as a %T: %v", pm.Kind, pm.To, typed, err)
	}
	return typed
}

// decode decrypts a reply record addressed to this channel.
func (cc *clientChannel) decode(t *testing.T, rec ClientRecord) *msg.ChannelReply {
	t.Helper()
	plain, err := cc.sess.Open(rec.Frame)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := msg.DecodeChannelReply(plain)
	if err != nil {
		t.Fatal(err)
	}
	return &rep
}

// reply fabricates an authenticated OrderedReply from a given executor.
func makeReply(tagger *GroupTagger, executor msg.NodeID, req msg.OrderRequest, result string, keys []string) *msg.OrderedReply {
	rep := &msg.OrderedReply{
		Executor:    executor,
		Seq:         1,
		Client:      req.Client,
		ClientSeq:   req.ClientSeq,
		ReqDigest:   req.Digest(),
		Result:      []byte(result),
		InvalidKeys: msg.AppendKeys(nil, keys),
	}
	rep.TroxyTag = tagger.Tag(nil, rep.Kind(), executor, tagInput(rep))
	return rep
}

func TestWriteVoteCompletesAtQuorum(t *testing.T) {
	core, pub, tagger := newTestCore(t, false)
	cc := openChannel(t, core, pub, 1, 100)
	acts := cc.request(t, core, 0, "PUT k v", false)
	if len(acts.Submits) != 1 {
		t.Fatalf("submits = %d", len(acts.Submits))
	}
	req := acts.Submits[0]
	if req.Flags&msg.FlagReadOnly != 0 {
		t.Error("write classified read-only")
	}

	// First reply: no quorum yet.
	out, err := core.HandleReply(0, makeReply(tagger, 1, req, "OK", []string{"k"}))
	if err != nil || len(out.Client) != 0 {
		t.Fatalf("after 1 reply: %v, %d frames", err, len(out.Client))
	}
	// Second matching reply completes the vote (f+1 = 2).
	out, err = core.HandleReply(0, makeReply(tagger, 2, req, "OK", []string{"k"}))
	if err != nil || len(out.Client) != 1 {
		t.Fatalf("after 2 replies: %v, %d frames", err, len(out.Client))
	}
	rep := cc.decode(t, out.Client[0])
	if rep.Seq != 1 || string(rep.Result) != "OK" {
		t.Errorf("client reply = %+v", rep)
	}
	if core.Stats().VotesCompleted != 1 {
		t.Errorf("votes completed = %d", core.Stats().VotesCompleted)
	}
}

func TestMismatchedRepliesDoNotComplete(t *testing.T) {
	core, pub, tagger := newTestCore(t, false)
	cc := openChannel(t, core, pub, 1, 100)
	req := cc.request(t, core, 0, "PUT k v", false).Submits[0]

	out, _ := core.HandleReply(0, makeReply(tagger, 1, req, "OK", nil))
	if len(out.Client) != 0 {
		t.Fatal("one reply completed a vote")
	}
	out, _ = core.HandleReply(0, makeReply(tagger, 2, req, "WRONG", nil))
	if len(out.Client) != 0 {
		t.Fatal("mismatched replies completed a vote")
	}
	// A third reply matching the first reaches quorum.
	out, _ = core.HandleReply(0, makeReply(tagger, 0, req, "OK", nil))
	if len(out.Client) != 1 {
		t.Fatal("matching quorum did not complete")
	}
}

func TestForgedTagRejected(t *testing.T) {
	core, pub, _ := newTestCore(t, false)
	cc := openChannel(t, core, pub, 1, 100)
	req := cc.request(t, core, 0, "PUT k v", false).Submits[0]

	evil := NewGroupTagger([]byte("wrong-secret"))
	out, _ := core.HandleReply(0, makeReply(evil, 1, req, "EVIL", nil))
	if len(out.Client) != 0 {
		t.Fatal("forged reply produced client output")
	}
	if core.Stats().BadReplies != 1 {
		t.Errorf("bad replies = %d", core.Stats().BadReplies)
	}
	// Impersonation: executor 1's tag presented as executor 2.
	core2, pub2, tagger := newTestCore(t, false)
	cc2 := openChannel(t, core2, pub2, 1, 100)
	req2 := cc2.request(t, core2, 0, "PUT k v", false).Submits[0]
	rep := makeReply(tagger, 1, req2, "X", nil)
	rep.Executor = 2 // tag no longer matches the claimed instance
	if out, _ := core2.HandleReply(0, rep); len(out.Client) != 0 {
		t.Fatal("impersonated reply accepted")
	}
}

func TestMatchingResultButDifferentKeysDoesNotCount(t *testing.T) {
	// A faulty replica matching the result while lying about the touched
	// keys must not contribute to the quorum (the vote hash covers keys).
	core, pub, tagger := newTestCore(t, true)
	cc := openChannel(t, core, pub, 1, 100)
	req := cc.request(t, core, 0, "PUT k v", false).Submits[0]

	core.HandleReply(0, makeReply(tagger, 1, req, "OK", []string{"k"}))
	out, _ := core.HandleReply(0, makeReply(tagger, 2, req, "OK", []string{"other"}))
	if len(out.Client) != 0 {
		t.Fatal("replies with diverging key sets completed a vote")
	}
}

func TestReadVotePopulatesCacheAndFastReadRoundTrip(t *testing.T) {
	core, pub, tagger := newTestCore(t, true)
	cc := openChannel(t, core, pub, 1, 100)

	// Ordered read populates the cache from the voted result.
	acts := cc.request(t, core, 0, "GET k", true)
	if len(acts.Submits) != 1 {
		t.Fatalf("first read should be ordered (cache miss); submits=%d", len(acts.Submits))
	}
	req := acts.Submits[0]
	core.HandleReply(0, makeReply(tagger, 1, req, "VALUE v", []string{"k"}))
	out, _ := core.HandleReply(0, makeReply(tagger, 2, req, "VALUE v", []string{"k"}))
	if len(out.Client) != 1 {
		t.Fatal("ordered read vote did not complete")
	}
	// Consume the reply record to keep the channel's sequence in step.
	if rep := cc.decode(t, out.Client[0]); string(rep.Result) != "VALUE v" {
		t.Fatalf("ordered read result = %q", rep.Result)
	}

	// Second identical read takes the fast path: a cache query goes out.
	acts = cc.request(t, core, time.Millisecond, "GET k", true)
	if len(acts.Submits) != 0 {
		t.Fatal("fast-read attempt submitted for ordering")
	}
	if len(acts.Queries) != 1 || acts.Queries[0].Kind != msg.KindCacheQuery {
		t.Fatalf("expected 1 cache query, got %+v", acts.Queries)
	}
	q := openPeer[*msg.CacheQuery](t, acts.Queries[0])

	// The remote Troxy answers from its own cache. Simulate it with a
	// second provisioned core holding the same entry.
	remote := NewCore(Config{Self: acts.Queries[0].To, N: 3, F: 1, Seed: 6,
		Classify: classifyKV, FastReads: true})
	secrets, _, _ := testSecrets(t)
	if err := remote.ProvisionSecrets(secrets); err != nil {
		t.Fatal(err)
	}
	remote.cache.Put(msg.DigestOf([]byte("GET k")), []byte("VALUE v"), []string{"k"})
	racts, err := remote.HandleCacheQuery(q)
	if err != nil || len(racts.Queries) != 1 || racts.Queries[0].Kind != msg.KindCacheReply {
		t.Fatalf("remote cache query: %v / %+v", err, racts)
	}

	out, err = core.HandleCacheReply(2*time.Millisecond, openPeer[*msg.CacheReply](t, racts.Queries[0]))
	if err != nil || len(out.Client) != 1 {
		t.Fatalf("fast read did not complete: %v / %d frames", err, len(out.Client))
	}
	rep := cc.decode(t, out.Client[0])
	if string(rep.Result) != "VALUE v" {
		t.Errorf("fast read result = %q", rep.Result)
	}
	if core.Stats().FastReadOK != 1 {
		t.Errorf("FastReadOK = %d", core.Stats().FastReadOK)
	}
}

func TestFastReadMismatchFallsBack(t *testing.T) {
	core, pub, tagger := newTestCore(t, true)
	cc := openChannel(t, core, pub, 1, 100)

	// Seed the local cache directly.
	core.cache.Put(msg.DigestOf([]byte("GET k")), []byte("stale"), []string{"k"})
	acts := cc.request(t, core, 0, "GET k", true)
	if len(acts.Queries) != 1 {
		t.Fatalf("expected cache query, got %+v", acts)
	}
	q := openPeer[*msg.CacheQuery](t, acts.Queries[0])

	// The remote reports a different digest (e.g. a concurrent write or a
	// malicious stale replay): the read must be ordered.
	mismatch := &msg.CacheReply{
		From: acts.Queries[0].To, To: q.From, QueryID: q.QueryID, ReqDigest: q.ReqDigest,
		Found: true, ReplyDigest: msg.DigestOf([]byte("different")),
	}
	mismatch.Tag = tagger.Tag(nil, mismatch.Kind(), mismatch.From, tagInput(mismatch))
	out, err := core.HandleCacheReply(time.Millisecond, mismatch)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Submits) != 1 {
		t.Fatalf("fallback did not order the read: %+v", out)
	}
	if core.Stats().FastReadFell != 1 {
		t.Errorf("FastReadFell = %d", core.Stats().FastReadFell)
	}
	// Not-found falls back the same way.
	core.cache.Put(msg.DigestOf([]byte("GET k2")), []byte("v"), []string{"k2"})
	acts = cc.request(t, core, 0, "GET k2", true)
	q = openPeer[*msg.CacheQuery](t, acts.Queries[0])
	notFound := &msg.CacheReply{From: acts.Queries[0].To, To: q.From, QueryID: q.QueryID, ReqDigest: q.ReqDigest}
	notFound.Tag = tagger.Tag(nil, notFound.Kind(), notFound.From, tagInput(notFound))
	out, _ = core.HandleCacheReply(time.Millisecond, notFound)
	if len(out.Submits) != 1 {
		t.Fatal("not-found did not fall back to ordering")
	}
}

func TestFastReadTimeoutFallsBack(t *testing.T) {
	core, pub, _ := newTestCore(t, true)
	cc := openChannel(t, core, pub, 1, 100)
	core.cache.Put(msg.DigestOf([]byte("GET k")), []byte("v"), []string{"k"})
	acts := cc.request(t, core, 0, "GET k", true)
	if len(acts.Queries) != 1 {
		t.Fatal("no cache query issued")
	}
	// No remote answer; the tick after the timeout falls back.
	out := core.Tick(50 * time.Millisecond)
	if len(out.Submits) != 0 {
		t.Fatal("fell back before the timeout")
	}
	out = core.Tick(150 * time.Millisecond)
	if len(out.Submits) != 1 {
		t.Fatal("timeout did not fall back to ordering")
	}
}

// TestExpiredFastReadsFallBackInQueryOrder: the fast reads one Tick expires
// are handed to ordering in the order they were started, whatever order the
// map of pending queries yields them in. The order of Actions.Submits is the
// order the requests are forwarded and proposed in, so a simulation is only
// reproducible per seed — and a client's reads only stay in the order it sent
// them — if it is fixed. (Eight queries, so map order passes for sorted once
// in 40 320 runs.)
func TestExpiredFastReadsFallBackInQueryOrder(t *testing.T) {
	core, pub, _ := newTestCore(t, true)
	cc := openChannel(t, core, pub, 1, 100)
	const reads = 8
	for i := 0; i < reads; i++ {
		op := fmt.Sprintf("GET k%d", i)
		core.cache.Put(msg.DigestOf([]byte(op)), []byte("v"), []string{op[4:]})
		if acts := cc.request(t, core, 0, op, true); len(acts.Queries) != 1 {
			t.Fatalf("read %d issued %d cache queries, want 1", i, len(acts.Queries))
		}
	}
	out := core.Tick(150 * time.Millisecond)
	if len(out.Submits) != reads {
		t.Fatalf("%d of %d timed-out reads fell back to ordering", len(out.Submits), reads)
	}
	for i, req := range out.Submits {
		if want := fmt.Sprintf("GET k%d", i); req.ClientSeq != uint64(i+1) || string(req.Op) != want {
			t.Errorf("fallback %d is request %d %q, want request %d %q: expiry left query order",
				i, req.ClientSeq, req.Op, i+1, want)
		}
	}
}

// TestFreeListsStayWithinTheirCap: client churn — half again as many clients
// as a free list holds, each with a write and a cached read in flight at once,
// the writes voted to completion and the reads confirmed by their remote, and
// all of it twice — never puts more than maxFree votes or fast reads on a free
// list, and fills both. An ended fast read leaves nothing behind: no vote or
// query stays indexed, and a Tick long after has nothing to expire.
func TestFreeListsStayWithinTheirCap(t *testing.T) {
	core, pub, tagger := newTestCore(t, true)
	read := msg.DigestOf([]byte("GET k"))
	core.cache.Put(read, []byte("VALUE v"), []string{"k"})
	channels := make([]*clientChannel, 3*maxFree/2)
	for i := range channels {
		channels[i] = openChannel(t, core, pub, uint64(i+1), uint64(100+i))
	}
	within := func(round int, step string) {
		t.Helper()
		if len(core.freeVotes) > maxFree || len(core.freeQueries) > maxFree {
			t.Fatalf("round %d, %s: %d votes and %d fast reads on the free lists, cap %d",
				round, step, len(core.freeVotes), len(core.freeQueries), maxFree)
		}
	}
	for round := 0; round < 2; round++ {
		writes := make([]msg.OrderRequest, len(channels))
		queries := make([]*msg.CacheQuery, len(channels))
		for i, cc := range channels {
			writes[i] = cc.request(t, core, 0, fmt.Sprintf("PUT w%d v", i), false).Submits[0]
			acts := cc.request(t, core, 0, "GET k", true)
			if len(acts.Queries) != 1 {
				t.Fatalf("round %d: client %d's read sent %d cache queries", round, i, len(acts.Queries))
			}
			queries[i] = openPeer[*msg.CacheQuery](t, acts.Queries[0]) // from a copy: the Core's scratch is overwritten by the next call
		}
		for i, w := range writes {
			for _, executor := range []msg.NodeID{1, 2} {
				if _, err := core.HandleReply(0, makeReply(tagger, executor, w, "OK", []string{fmt.Sprintf("w%d", i)})); err != nil {
					t.Fatal(err)
				}
				within(round, "votes")
			}
		}
		for _, q := range queries {
			rep := &msg.CacheReply{From: q.To, To: q.From, QueryID: q.QueryID, ReqDigest: read, Found: true, ReplyDigest: msg.DigestOf([]byte("VALUE v"))}
			rep.Tag = tagger.Tag(nil, rep.Kind(), rep.From, tagInput(rep))
			if out, err := core.HandleCacheReply(time.Millisecond, rep); err != nil || len(out.Client) != 1 {
				t.Fatalf("round %d: a confirmed fast read answered %d records, %v", round, len(out.Client), err)
			}
			within(round, "fast reads")
		}
		if len(core.freeVotes) != maxFree || len(core.freeQueries) != maxFree {
			t.Errorf("round %d: free lists hold %d votes and %d fast reads, want both full at %d",
				round, len(core.freeVotes), len(core.freeQueries), maxFree)
		}
	}
	if len(core.votes)+len(core.queries)+len(core.queryOf) != 0 {
		t.Errorf("%d votes, %d queries and %d query index entries outlive their requests", len(core.votes), len(core.queries), len(core.queryOf))
	}
	if out := core.Tick(time.Hour); len(out.Submits)+len(out.Client)+len(out.Queries) != 0 {
		t.Errorf("a Tick after every request ended acted: %+v", out)
	}
}

func TestForgedCacheMessagesRejected(t *testing.T) {
	core, _, _ := newTestCore(t, true)
	evil := NewGroupTagger([]byte("wrong"))

	q := &msg.CacheQuery{From: 1, QueryID: 9, ReqDigest: d("op")}
	q.Tag = evil.Tag(nil, q.Kind(), 1, tagInput(q))
	out, _ := core.HandleCacheQuery(q)
	if len(out.Queries) != 0 {
		t.Error("forged cache query answered")
	}
	r := &msg.CacheReply{From: 1, QueryID: 9, ReqDigest: d("op"), Found: true}
	r.Tag = evil.Tag(nil, r.Kind(), 1, tagInput(r))
	if out, _ := core.HandleCacheReply(0, r); len(out.Submits)+len(out.Client) != 0 {
		t.Error("forged cache reply acted upon")
	}
	if core.Stats().BadQueries != 2 {
		t.Errorf("BadQueries = %d", core.Stats().BadQueries)
	}
}

func TestAuthenticateReplyInvalidatesOnWriteCachesOnRead(t *testing.T) {
	core, _, tagger := newTestCore(t, true)
	opHash := msg.DigestOf([]byte("GET k"))
	core.cache.Put(opHash, []byte("old"), []string{"k"})

	// Write reply: invalidates before tagging.
	wrep := &msg.OrderedReply{Executor: 0, Client: 1, ClientSeq: 1,
		Result: []byte("OK"), InvalidKeys: msg.AppendKeys(nil, []string{"k"})}
	if err := core.AuthenticateReply(wrep, false, true, msg.DigestOf([]byte("PUT k v2")), nil); err != nil {
		t.Fatal(err)
	}
	if !tagger.Verify(wrep.Kind(), 0, tagInput(wrep), wrep.TroxyTag) {
		t.Error("tag does not verify")
	}
	if core.cache.Get(opHash) != nil {
		t.Error("write reply did not invalidate the cache entry")
	}

	// Read reply: populates this replica's cache.
	rrep := &msg.OrderedReply{Executor: 0, Client: 1, ClientSeq: 2,
		Result: []byte("VALUE v2"), InvalidKeys: msg.AppendKeys(nil, []string{"k"})}
	if err := core.AuthenticateReply(rrep, true, true, opHash, nil); err != nil {
		t.Fatal(err)
	}
	if got := core.cache.Get(opHash); string(got) != "VALUE v2" {
		t.Errorf("read reply not cached: %q", got)
	}
}

// TestReplayedReplyDoesNotRepoisonCache pins the regression the chaos suite
// found: a client retransmission makes every replica replay its cached reply
// for the old read, and those replays — authentic, but current only as of
// the original execution — must not re-enter any fast-read cache after a
// later write invalidated the entry. Both insertion points are covered: the
// executor side (AuthenticateReply with fresh == false) and the voter side
// (a vote completing on replies whose sequence number trails a locally
// executed write).
func TestReplayedReplyDoesNotRepoisonCache(t *testing.T) {
	core, _, tagger := newTestCore(t, true)
	opHash := msg.DigestOf([]byte("GET k"))

	// Fresh read executed at seq 3 caches; write at seq 4 invalidates.
	rrep := &msg.OrderedReply{Executor: 0, Seq: 3, Client: 1, ClientSeq: 1,
		ReqDigest: d("req-read"), Result: []byte("VALUE v1"), InvalidKeys: msg.AppendKeys(nil, []string{"k"})}
	if err := core.AuthenticateReply(rrep, true, true, opHash, nil); err != nil {
		t.Fatal(err)
	}
	wrep := &msg.OrderedReply{Executor: 0, Seq: 4, Client: 2, ClientSeq: 1,
		Result: []byte("OK"), InvalidKeys: msg.AppendKeys(nil, []string{"k"})}
	if err := core.AuthenticateReply(wrep, false, true, msg.DigestOf([]byte("PUT k v2")), nil); err != nil {
		t.Fatal(err)
	}
	if core.cache.Get(opHash) != nil {
		t.Fatal("write did not invalidate the read entry")
	}

	// Executor side: the replayed read is tagged again but stays out of the
	// cache.
	replay := &msg.OrderedReply{Executor: 0, Seq: 3, Client: 1, ClientSeq: 1,
		ReqDigest: d("req-read"), Result: []byte("VALUE v1"), InvalidKeys: msg.AppendKeys(nil, []string{"k"})}
	if err := core.AuthenticateReply(replay, true, false, opHash, nil); err != nil {
		t.Fatal(err)
	}
	if !tagger.Verify(replay.Kind(), 0, tagInput(replay), replay.TroxyTag) {
		t.Error("replayed reply not tagged")
	}
	if core.cache.Get(opHash) != nil {
		t.Error("replayed read reply re-entered the executor cache")
	}
	// There the applied-order pin would have refused the replay by itself
	// (3 < 4). It lets one through when the invalidating write shared the
	// read's batch and followed it there — equal sequence numbers pass the
	// pin — and only the fresh flag keeps that one out.
	batched, _, _ := newTestCore(t, true)
	first, write, again := *rrep, *wrep, *replay
	write.Seq = 3
	for _, step := range []struct {
		rep         *msg.OrderedReply
		read, fresh bool
	}{{&first, true, true}, {&write, false, true}, {&again, true, false}} {
		if err := batched.AuthenticateReply(step.rep, step.read, step.fresh, opHash, nil); err != nil {
			t.Fatal(err)
		}
	}
	if batched.cache.Get(opHash) != nil {
		t.Error("replayed read re-entered the executor cache past a write of its own batch")
	}

	// Voter side: a quorum of replayed replies completes the vote (the
	// client gets its answer) but the stale winner stays out of the cache.
	key := voteKey{client: 1, clientSeq: 1}
	core.votes[key] = &voteState{
		reqDigest: d("req-read"),
		opHash:    opHash,
		read:      true,
	}
	peer := *replay
	peer.Executor = 1
	peer.TroxyTag = tagger.Tag(nil, peer.Kind(), 1, tagInput(&peer))
	if _, err := core.HandleReply(0, replay); err != nil {
		t.Fatal(err)
	}
	if _, err := core.HandleReply(0, &peer); err != nil {
		t.Fatal(err)
	}
	if _, pending := core.votes[key]; pending {
		t.Fatal("vote on replayed replies did not complete")
	}
	if core.cache.Get(opHash) != nil {
		t.Error("stale vote winner re-entered the voter cache")
	}
	if core.Stats().VotesCompleted != 1 {
		t.Errorf("VotesCompleted = %d, want 1", core.Stats().VotesCompleted)
	}
}

// TestFreshReadBehindAppliedWriteNotCached pins the applied-order guard the
// ordering pipeline relies on: fresh read results are cached only if they
// executed at or after the last write this replica applied. A correct core
// delivers Committed in applied order, so the guard never fires there; it
// protects against any future execution fan-out that reports a read from
// before a write *after* that write (certification order, speculative
// replays) re-poisoning the fast-read cache.
func TestFreshReadBehindAppliedWriteNotCached(t *testing.T) {
	core, _, tagger := newTestCore(t, true)
	opHash := msg.DigestOf([]byte("GET k"))

	wrep := &msg.OrderedReply{Executor: 0, Seq: 5, Client: 2, ClientSeq: 1,
		Result: []byte("OK"), InvalidKeys: msg.AppendKeys(nil, []string{"k"})}
	if err := core.AuthenticateReply(wrep, false, true, msg.DigestOf([]byte("PUT k v2")), nil); err != nil {
		t.Fatal(err)
	}

	// A fresh read from behind the applied write must be tagged (the client
	// still needs its reply) but refused by the cache.
	rrep := &msg.OrderedReply{Executor: 0, Seq: 3, Client: 1, ClientSeq: 1,
		ReqDigest: d("req-read"), Result: []byte("VALUE v1"), InvalidKeys: msg.AppendKeys(nil, []string{"k"})}
	if err := core.AuthenticateReply(rrep, true, true, opHash, nil); err != nil {
		t.Fatal(err)
	}
	if !tagger.Verify(rrep.Kind(), 0, tagInput(rrep), rrep.TroxyTag) {
		t.Error("refused read reply not tagged")
	}
	if core.cache.Get(opHash) != nil {
		t.Error("read from behind the applied write entered the cache")
	}
	if core.Stats().StaleFreshRead != 1 {
		t.Errorf("StaleFreshRead = %d, want 1", core.Stats().StaleFreshRead)
	}

	// A read batched together with the write (same sequence number, fanned
	// out after it) reflects the write and must still be cacheable.
	sameBatch := &msg.OrderedReply{Executor: 0, Seq: 5, Client: 1, ClientSeq: 2,
		ReqDigest: d("req-read-2"), Result: []byte("VALUE v2"), InvalidKeys: msg.AppendKeys(nil, []string{"k"})}
	if err := core.AuthenticateReply(sameBatch, true, true, opHash, nil); err != nil {
		t.Fatal(err)
	}
	if got := core.cache.Get(opHash); string(got) != "VALUE v2" {
		t.Errorf("same-batch read not cached: %q", got)
	}
}

func TestUnprovisionedCoreRefuses(t *testing.T) {
	core := NewCore(Config{Self: 0, N: 3, F: 1, Seed: 1})
	if _, err := core.HandleClientData(0, 1, 9, []byte{1, 2, 3}); !errors.Is(err, ErrNotProvisioned) {
		t.Errorf("HandleClientData: %v", err)
	}
	if err := core.AuthenticateReply(&msg.OrderedReply{}, false, true, msg.Digest{}, nil); !errors.Is(err, ErrNotProvisioned) {
		t.Errorf("AuthenticateReply: %v", err)
	}
}

func TestResetWipesEverything(t *testing.T) {
	core, pub, _ := newTestCore(t, true)
	cc := openChannel(t, core, pub, 1, 100)
	cc.request(t, core, 0, "PUT k v", false)
	core.cache.Put(d("GET k"), []byte("v"), []string{"k"})

	core.Reset()
	if core.Provisioned() {
		t.Error("reset core still provisioned")
	}
	if len(core.channels.sessions) != 0 || len(core.votes) != 0 || core.cache.Stats().Entries != 0 {
		t.Error("reset left volatile state behind")
	}
}

// A handshake frame that fails leaves the connection's session as it was: one
// garbage frame on an established connection must not cut it off. The Troxy,
// the standalone server and the Prophecy middlebox all terminate channels
// through Channels, so all three keep this rule.
func TestFailedHandshakeKeepsSession(t *testing.T) {
	core, pub, _ := newTestCore(t, false)
	cc := openChannel(t, core, pub, 1, 100)
	if _, err := core.HandleClientData(0, cc.connID, 90, []byte{1, 2, 3}); !errors.Is(err, ErrBadChannel) {
		t.Fatalf("garbage handshake frame: %v, want ErrBadChannel", err)
	}
	if acts := cc.request(t, core, 0, "PUT k v", false); len(acts.Submits) != 1 {
		t.Fatalf("the next record produced %d submits, want 1", len(acts.Submits))
	}
}

func TestChannelReplayRejected(t *testing.T) {
	core, pub, _ := newTestCore(t, false)
	cc := openChannel(t, core, pub, 1, 100)
	plain := msg.EncodeChannelRequest(&msg.ChannelRequest{Client: 100, Seq: 1, Op: []byte("PUT k v")})
	record, err := cc.sess.Seal(plain)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.HandleClientData(0, 1, 90, record); err != nil {
		t.Fatal(err)
	}
	// Replaying the exact ciphertext must fail (record sequence numbers).
	if _, err := core.HandleClientData(0, 1, 90, record); err == nil {
		t.Fatal("replayed record accepted")
	}
	if core.Stats().Requests != 1 {
		t.Errorf("requests = %d, want 1", core.Stats().Requests)
	}
}

func TestChooseReplicasNeverSelf(t *testing.T) {
	core, _, _ := newTestCore(t, true)
	for i := 0; i < 100; i++ {
		for _, r := range core.chooseReplicas(1) {
			if r == core.cfg.Self {
				t.Fatal("chose self as remote replica")
			}
			if r < 0 || int(r) >= core.cfg.N {
				t.Fatalf("chose out-of-range replica %d", r)
			}
		}
	}
}

func TestMaliciousClientCannotPoisonCacheViaFlags(t *testing.T) {
	// A client marking a write as read-only must not get it cached: the
	// Troxy classifies operations itself.
	core, pub, tagger := newTestCore(t, true)
	cc := openChannel(t, core, pub, 1, 100)
	acts := cc.request(t, core, 0, "PUT k v", true) // lying flag
	if len(acts.Submits) != 1 {
		t.Fatal("lying request not ordered")
	}
	req := acts.Submits[0]
	if req.Flags&msg.FlagReadOnly != 0 {
		t.Fatal("Troxy trusted the client's read-only flag")
	}
	core.HandleReply(0, makeReply(tagger, 1, req, "OK", []string{"k"}))
	core.HandleReply(0, makeReply(tagger, 2, req, "OK", []string{"k"}))
	if core.cache.Get(msg.DigestOf([]byte("PUT k v"))) != nil {
		t.Fatal("write result cached")
	}
}

func TestFullReplyCacheExchange(t *testing.T) {
	core := NewCore(Config{
		Self: 0, N: 3, F: 1, Seed: 5,
		Classify: classifyKV, FastReads: true, FullCacheReplies: true,
	})
	secrets, pub, tagger := testSecrets(t)
	if err := core.ProvisionSecrets(secrets); err != nil {
		t.Fatal(err)
	}
	cc := openChannel(t, core, pub, 1, 100)

	core.cache.Put(msg.DigestOf([]byte("GET k")), []byte("VALUE v"), []string{"k"})
	acts := cc.request(t, core, 0, "GET k", true)
	if len(acts.Queries) != 1 {
		t.Fatalf("no cache query: %+v", acts)
	}
	q := openPeer[*msg.CacheQuery](t, acts.Queries[0])

	// The remote returns a full entry whose digest matches but whose bytes
	// do not (a malicious replica constructing a second preimage cannot do
	// this for SHA-256, but the byte comparison must reject trivially
	// inconsistent replies).
	evilRep := &msg.CacheReply{
		From: acts.Queries[0].To, To: q.From, QueryID: q.QueryID, ReqDigest: q.ReqDigest,
		Found: true, ReplyDigest: msg.DigestOf([]byte("VALUE v")),
		ReplyData: []byte("VALUE x"),
	}
	evilRep.Tag = tagger.Tag(nil, evilRep.Kind(), evilRep.From, tagInput(evilRep))
	out, err := core.HandleCacheReply(0, evilRep)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Client) != 0 || len(out.Submits) != 1 {
		t.Fatalf("digest/data mismatch not rejected: %+v", out)
	}

	// A consistent full reply completes the fast read.
	acts = cc.request(t, core, time.Millisecond, "GET k", true)
	q = openPeer[*msg.CacheQuery](t, acts.Queries[0])
	goodRep := &msg.CacheReply{
		From: acts.Queries[0].To, To: q.From, QueryID: q.QueryID, ReqDigest: q.ReqDigest,
		Found: true, ReplyDigest: msg.DigestOf([]byte("VALUE v")),
		ReplyData: []byte("VALUE v"),
	}
	goodRep.Tag = tagger.Tag(nil, goodRep.Kind(), goodRep.From, tagInput(goodRep))
	out, err = core.HandleCacheReply(2*time.Millisecond, goodRep)
	if err != nil || len(out.Client) != 1 {
		t.Fatalf("full-reply fast read failed: %v / %+v", err, out)
	}

	// A remote serving the query includes the full entry.
	query := &msg.CacheQuery{From: 1, To: 0, QueryID: 9, ReqDigest: msg.DigestOf([]byte("GET k"))}
	query.Tag = tagger.Tag(nil, query.Kind(), 1, tagInput(query))
	racts, err := core.HandleCacheQuery(query)
	if err != nil || len(racts.Queries) != 1 {
		t.Fatalf("query handling: %v / %+v", err, racts)
	}
	if full := openPeer[*msg.CacheReply](t, racts.Queries[0]); string(full.ReplyData) != "VALUE v" {
		t.Errorf("full reply missing: %+v", full)
	}
}
