package troxy

import (
	"fmt"
	"testing"

	"github.com/troxy-bft/troxy/internal/enclave"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/securechannel"
	"github.com/troxy-bft/troxy/internal/testutil"
	"github.com/troxy-bft/troxy/internal/wire"
)

// BenchmarkAllocGate holds the voter to what it is allowed to allocate: one
// object per pending vote while no completed vote has been recycled, and
// nothing at all once one has — the vote, the slab it keeps results in and
// the client's record are all memory the Core reuses.
func BenchmarkAllocGate(b *testing.B) {
	core, pub, tagger := newTestCore(b, false)
	cc := openChannel(b, core, pub, 1, 100)
	req := cc.request(b, core, 0, "PUT k v", false).Submits[0]
	req.Op = append([]byte(nil), req.Op...) // a view of the record it came in
	key := voteKey{client: req.Client, clientSeq: req.ClientSeq}
	delete(core.votes, key)

	// The fast-read cache under churn: a result installed again is a touch, and
	// an install into an entry the cache removed — invalidated or evicted —
	// costs the reply's slab and nothing else, its index links and key
	// strings being the removed entry's.
	cache, reply := NewCache(0), []byte("VALUE v")
	keys := msg.AppendKeys(nil, []string{"k", "other"})
	cache.PutKeys(d("GET k"), reply, keys)
	testutil.AllocGate(b, "CacheReinstallSameResult", 0, func() {
		cache.PutKeys(d("GET k"), reply, keys)
	})
	testutil.AllocGate(b, "CacheInvalidateThenReinstall", 1, func() {
		cache.Invalidate([]byte("k"))
		cache.PutKeys(d("GET k"), reply, keys)
	})
	var ops [8]msg.Digest
	var opKeys [len(ops)]msg.Keys
	for i := range ops {
		ops[i], opKeys[i] = d(fmt.Sprintf("GET k%d", i)), msg.AppendKeys(nil, []string{fmt.Sprintf("k%d", i)})
	}
	full := NewCache(int64(len(ops)-1) * (int64(len(reply)) + 64)) // one entry short
	next := 0
	install := func() {
		full.PutKeys(ops[next], reply, opKeys[next])
		next = (next + 1) % len(ops)
	}
	for range ops {
		install()
	}
	testutil.AllocGate(b, "CacheEvictAndInstall", 1, func() {
		evictions := full.Stats().Evictions
		install()
		if full.Stats().Evictions != evictions+1 {
			b.Fatal("an install into a full cache evicted no entry")
		}
	})

	testutil.AllocGate(b, "RegisterVote", 1, func() {
		core.registerVote(cc.connID, key, msg.Digest{}, req.Op, false, false)
		delete(core.votes, key)
	})

	// A tag check sums into the tagger's scratch, and a tag lands in the
	// buffer the caller brought.
	input := make([]byte, 200)
	tag := tagger.Tag(nil, msg.KindOrderedReply, 2, input)
	testutil.AllocGate(b, "GroupTaggerVerify", 0, func() {
		if !tagger.Verify(msg.KindOrderedReply, 2, input, tag) {
			b.Fatal("tag rejected")
		}
	})
	into := make([]byte, 0, tagSize)
	testutil.AllocGate(b, "GroupTaggerTagInto", 0, func() { into = tagger.Tag(into[:0], msg.KindOrderedReply, 2, input) })

	var replies [3]*msg.OrderedReply
	for i := range replies {
		replies[i] = makeReply(tagger, msg.NodeID(i), req, "OK", []string{"k"})
	}
	// A whole vote: registered (a vote from the free list), opened by the
	// first reply (into the vote's slab), completed by the second (the answer,
	// sealed into the Core's scratch) and recycled, and the late third dropped
	// after its tag check.
	testutil.AllocGate(b, "VoteOverThreeReplies", 0, func() {
		core.registerVote(cc.connID, key, msg.Digest{}, req.Op, false, false)
		for _, rep := range replies {
			if _, err := core.HandleReply(0, rep); err != nil {
				b.Fatal(err)
			}
		}
		if _, pending := core.votes[key]; pending {
			b.Fatal("vote did not complete")
		}
	})

	// Rounds through the enclave binding, the client sealing each request
	// into a buffer it reuses. A round costs nothing on either side of the
	// boundary: every result is copied out into the binding's one result
	// buffer, a cache query, a client record or a submit being a view of it
	// in the binding's lent Actions storage (ordering copies what it keeps of
	// a submit into its own slab). A fast read is nothing (0 + 0), a write
	// nothing for the submit out and nothing for the answer back (0 + 0; the
	// submit was the Submits slice and one slab of its operations, 2, until
	// the binding lent it).
	_, enclaved, _ := newBindings(b, Config{Self: 0, N: 3, F: 1, Seed: 77, Classify: classifyKV, FastReads: true})
	p, env := enclaved.p, nullEnv{}
	hs, hello, err := securechannel.NewClientHandshake(pub, &bytesReader{})
	if err != nil {
		b.Fatal(err)
	}
	hsActs, err := p.HandleClientData(env, 1, 90, hello)
	if err != nil {
		b.Fatal(err)
	}
	client, err := hs.Finish(hsActs.Client[0].Frame)
	if err != nil {
		b.Fatal(err)
	}
	var seq uint64
	var record []byte
	plain, tagIn := wire.NewWriter(64), wire.NewWriter(128)
	send := func(op []byte, flags uint8) Actions {
		seq++
		plain.Reset()
		(&msg.ChannelRequest{Client: 5, Seq: seq, Flags: flags, Op: op}).MarshalWire(plain)
		if record, err = client.AppendSeal(record[:0], plain.Bytes()); err != nil {
			b.Fatal(err)
		}
		acts, err := p.HandleClientData(env, 1, 90, record)
		if err != nil {
			b.Fatal(err)
		}
		return acts
	}

	get, value := []byte("GET k"), []byte("VALUE v")
	enclaved.core.cache.Put(msg.DigestOf(get), value, []string{"k"})
	confirm := &msg.CacheReply{ReqDigest: msg.DigestOf(get), Found: true, ReplyDigest: msg.DigestOf(value)}
	var query msg.CacheQuery
	testutil.AllocGate(b, "EnclaveProxyFastReadRound", 0+0, func() {
		acts := send(get, msg.FlagReadOnly)
		if len(acts.Queries) != 1 || acts.Queries[0].Kind != msg.KindCacheQuery {
			b.Fatalf("a cached read sent %+v", acts.Queries)
		}
		if err := query.UnmarshalWire(wire.NewReader(acts.Queries[0].Body)); err != nil {
			b.Fatal(err)
		}
		confirm.From, confirm.QueryID = acts.Queries[0].To, query.QueryID
		tagIn.Reset()
		confirm.TagInput(tagIn)
		confirm.Tag = tagger.Tag(confirm.Tag[:0], confirm.Kind(), confirm.From, tagIn.Bytes())
		if out, err := p.HandleCacheReply(env, confirm); err != nil || len(out.Client) != 1 {
			b.Fatalf("the confirmed fast read answered %d records, %v", len(out.Client), err)
		}
	})

	put := []byte("PUT w v")
	votes := [2]*msg.OrderedReply{
		{Executor: 1, Client: 5, Result: []byte("OK"), InvalidKeys: msg.AppendKeys(nil, []string{"w"})},
		{Executor: 2, Client: 5, Result: []byte("OK"), InvalidKeys: msg.AppendKeys(nil, []string{"w"})},
	}
	testutil.AllocGate(b, "EnclaveProxyWriteRound", 0+0, func() {
		acts := send(put, 0)
		if len(acts.Submits) != 1 {
			b.Fatalf("a write submitted %d requests", len(acts.Submits))
		}
		answered := 0
		for _, rep := range votes {
			rep.ClientSeq, rep.ReqDigest = seq, acts.Submits[0].Digest()
			tagIn.Reset()
			rep.TagInput(tagIn)
			rep.TroxyTag = tagger.Tag(rep.TroxyTag[:0], rep.Kind(), rep.Executor, tagIn.Bytes())
			out, err := p.HandleReply(env, rep)
			if err != nil {
				b.Fatal(err)
			}
			answered += len(out.Client)
		}
		if answered != 1 {
			b.Fatalf("the write's vote answered %d records", answered)
		}
	})
}

// cannedTrusted answers every ecall with a fixed result: what is left to
// measure is the crossing itself and the host side of it.
type cannedTrusted struct{ results map[string]*[]byte }

func (c cannedTrusted) ECalls() map[string]func([]byte) ([]byte, error) {
	table := make(map[string]func([]byte) ([]byte, error))
	for name, res := range c.results {
		table[name] = func([]byte) ([]byte, error) { return *res, nil }
	}
	return table
}
func (cannedTrusted) OnStart(*enclave.Services)         {}
func (cannedTrusted) Provision(map[string][]byte) error { return nil }

// BenchmarkAllocGateEnclaveProxy holds the host side of the ecall boundary to
// its budget: every result is copied out into the binding's one result
// buffer, so a crossing allocates nothing — whether its result is a reply's
// tag, moved on into the reply's own storage, an Actions with nothing in it,
// or one that carries a client record, lent with the Client slice until the
// binding's next call.
func BenchmarkAllocGateEnclaveProxy(b *testing.B) {
	_, _, tagger := testSecrets(b)
	encode := func(acts Actions) []byte {
		w := wire.NewWriter(256)
		encodeActions(w, &acts)
		return w.Bytes()
	}
	tagResult := wire.NewWriter(64)
	tagResult.Bytes32(make([]byte, tagSize))
	tagBytes, handleReply := tagResult.Bytes(), encode(Actions{})
	encl, err := enclave.NewPlatformWithKey([]byte("hw")).Launch(
		enclave.Definition{Name: "canned", CodeIdentity: "canned-v1"},
		cannedTrusted{results: map[string]*[]byte{ECallAuthReply: &tagBytes, ECallHandleReply: &handleReply}}, nil)
	if err != nil {
		b.Fatal(err)
	}
	proxy := NewEnclaveProxy(encl)
	var env node.Env = nullEnv{}
	rep := makeReply(tagger, 1, msg.OrderRequest{Client: 5, ClientSeq: 1, Op: []byte("PUT k v")}, "OK", []string{"k"})

	testutil.AllocGate(b, "AuthenticateReplyIntoReusedReply", 0, func() {
		rep.TroxyTag = rep.TroxyTag[:0]
		if err := proxy.AuthenticateReply(env, rep, false, true, msg.Digest{}); err != nil || len(rep.TroxyTag) != tagSize {
			b.Fatalf("tag of %d bytes, %v", len(rep.TroxyTag), err)
		}
	})
	testutil.AllocGate(b, "HandleReplyNoAction", 0, func() {
		if acts, err := proxy.HandleReply(env, rep); err != nil || len(acts.Client) != 0 {
			b.Fatalf("%+v, %v", acts, err)
		}
	})
	handleReply = encode(Actions{Client: []ClientRecord{{ConnID: 1, Node: 90, Frame: make([]byte, 160)}}})
	testutil.AllocGate(b, "HandleReplyOneClientRecord", 0, func() {
		if acts, err := proxy.HandleReply(env, rep); err != nil || len(acts.Client) != 1 {
			b.Fatalf("%+v, %v", acts, err)
		}
	})
}
