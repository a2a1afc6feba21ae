package troxy

import (
	"testing"

	"github.com/troxy-bft/troxy/internal/authn"
	"github.com/troxy-bft/troxy/internal/enclave"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/testutil"
	"github.com/troxy-bft/troxy/internal/wire"
)

// BenchmarkAllocGate holds the voter to what it is allowed to allocate: one
// object per pending vote, and per distinct result one slab for what the vote
// keeps of the first reply that carried it. Everything else a completed vote
// allocates is the client's record.
func BenchmarkAllocGate(b *testing.B) {
	core, pub, tagger := newTestCore(b, false)
	cc := openChannel(b, core, pub, 1, 100)
	req := cc.request(b, core, 0, "PUT k v", false).Submits[0]
	req.Op = append([]byte(nil), req.Op...) // a view of the record it came in
	key := voteKey{client: req.Client, clientSeq: req.ClientSeq}
	sess := core.sessions[cc.connID]
	delete(core.votes, key)

	testutil.AllocGate(b, "RegisterVote", 1, func() {
		core.registerVote(sess, key, msg.Digest{}, req.Op, false, false)
		delete(core.votes, key)
	})

	var replies [3]*msg.OrderedReply
	for i := range replies {
		replies[i] = makeReply(tagger, msg.NodeID(i), req, "OK", []string{"k"})
	}
	// What answering the client costs by itself: the sealed record and the
	// Actions slice that carries it out.
	answer := testing.AllocsPerRun(200, func() {
		var out Actions
		rec, err := core.sealToClient(cc.connID, key.clientSeq, msg.StatusOK, replies[0].Result)
		if err != nil {
			b.Fatal(err)
		}
		out.Client = append(out.Client, rec)
	})
	// A whole vote: registered, opened by the first reply (the slab),
	// completed by the second (the answer), and the late third dropped after
	// its tag check. Vote state + slab = 2, plus the answer.
	testutil.AllocGate(b, "VoteOverThreeReplies", 2+answer, func() {
		core.registerVote(sess, key, msg.Digest{}, req.Op, false, false)
		for _, rep := range replies {
			if _, err := core.HandleReply(0, rep); err != nil {
				b.Fatal(err)
			}
		}
		if _, pending := core.votes[key]; pending {
			b.Fatal("vote did not complete")
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
// its budget: a crossing whose result nothing keeps — a reply's tag, moved on
// into the reply's own storage, or an Actions with nothing in it — allocates
// nothing, and a result that carries a client record costs the copy-out and
// the Actions' Client slice.
func BenchmarkAllocGateEnclaveProxy(b *testing.B) {
	_, _, tagger := testSecrets(b)
	encode := func(acts Actions) []byte {
		w := wire.NewWriter(256)
		encodeActions(w, &acts)
		return w.Bytes()
	}
	tagResult := wire.NewWriter(64)
	tagResult.Bytes32(make([]byte, authn.TagSize))
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
		if err := proxy.AuthenticateReply(env, rep, false, true, msg.Digest{}); err != nil || len(rep.TroxyTag) != authn.TagSize {
			b.Fatalf("tag of %d bytes, %v", len(rep.TroxyTag), err)
		}
	})
	testutil.AllocGate(b, "HandleReplyNoAction", 0, func() {
		if acts, err := proxy.HandleReply(env, rep); err != nil || len(acts.Client) != 0 {
			b.Fatalf("%+v, %v", acts, err)
		}
	})
	handleReply = encode(Actions{Client: []ClientRecord{{ConnID: 1, Node: 90, Frame: make([]byte, 160)}}})
	testutil.AllocGate(b, "HandleReplyOneClientRecord", 2, func() {
		if acts, err := proxy.HandleReply(env, rep); err != nil || len(acts.Client) != 1 {
			b.Fatalf("%+v, %v", acts, err)
		}
	})
}
