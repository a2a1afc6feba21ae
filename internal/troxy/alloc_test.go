package troxy

import (
	"testing"

	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/testutil"
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
