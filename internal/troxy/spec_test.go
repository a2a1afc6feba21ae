package troxy

import (
	"strings"
	"testing"
	"time"

	"github.com/troxy-bft/troxy/internal/msg"
)

// requestFlags encrypts a generic-protocol operation with explicit flags so
// tests can opt the client into the crash-commit tier.
func (cc *clientChannel) requestFlags(t *testing.T, core *Core, now time.Duration, op string, flags uint8) Actions {
	t.Helper()
	cc.seq++
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

// makeSpecReply fabricates an authenticated speculative reply from a given
// executor for the slot (view 0, seq 4).
func makeSpecReply(tagger *GroupTagger, executor msg.NodeID, req msg.OrderRequest, result string) *msg.SpecReply {
	sr := &msg.SpecReply{
		Executor:  executor,
		View:      0,
		Seq:       4,
		Client:    req.Client,
		ClientSeq: req.ClientSeq,
		ReqDigest: req.Digest(),
		Result:    []byte(result),
	}
	sr.TroxyTag = tagger.Tag(nil, sr.Kind(), executor, tagInput(sr))
	return sr
}

func TestSpecQuorumAnswersThenDurableConfirms(t *testing.T) {
	core, pub, tagger := newTestCore(t, false)
	cc := openChannel(t, core, pub, 1, 100)
	acts := cc.requestFlags(t, core, 0, "PUT k v", msg.FlagFastCommit)
	if len(acts.Submits) != 1 {
		t.Fatalf("submits = %d", len(acts.Submits))
	}
	req := acts.Submits[0]
	if req.Flags&msg.FlagFastCommit == 0 {
		t.Fatal("fast-commit flag not forwarded on the order request")
	}

	// One spec vote is below the f+1 quorum.
	out, err := core.HandleSpecReply(0, makeSpecReply(tagger, 1, req, "OK"))
	if err != nil || len(out.Client) != 0 {
		t.Fatalf("after 1 spec vote: %v, %d frames", err, len(out.Client))
	}
	// The second matching vote answers speculatively.
	out, err = core.HandleSpecReply(0, makeSpecReply(tagger, 2, req, "OK"))
	if err != nil || len(out.Client) != 1 {
		t.Fatalf("after 2 spec votes: %v, %d frames", err, len(out.Client))
	}
	rep := cc.decode(t, out.Client[0])
	if rep.Seq != cc.seq || rep.Status != msg.StatusSpeculative || string(rep.Result) != "OK" {
		t.Fatalf("speculative frame = %+v", rep)
	}
	// Late spec votes after the answer are dropped silently.
	out, _ = core.HandleSpecReply(0, makeSpecReply(tagger, 0, req, "OK"))
	if len(out.Client) != 0 {
		t.Fatal("late spec vote produced a frame")
	}

	// The durable quorum ratifies the answer with a plain confirmation.
	core.HandleReply(0, makeReply(tagger, 1, req, "OK", []string{"k"}))
	out, err = core.HandleReply(0, makeReply(tagger, 2, req, "OK", []string{"k"}))
	if err != nil || len(out.Client) != 1 {
		t.Fatalf("durable quorum: %v, %d frames", err, len(out.Client))
	}
	rep = cc.decode(t, out.Client[0])
	if rep.Status != msg.StatusOK || string(rep.Result) != "OK" {
		t.Fatalf("confirmation frame = %+v", rep)
	}
	st := core.Stats()
	if st.SpecAnswered != 1 || st.SpecConfirmed != 1 || st.SpecRetracted != 0 || st.SpecMismatches != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSpecMismatchRetractsBeforeDurableResult(t *testing.T) {
	core, pub, tagger := newTestCore(t, false)
	cc := openChannel(t, core, pub, 1, 100)
	req := cc.requestFlags(t, core, 0, "PUT k v", msg.FlagFastCommit).Submits[0]

	core.HandleSpecReply(0, makeSpecReply(tagger, 1, req, "OK"))
	out, _ := core.HandleSpecReply(0, makeSpecReply(tagger, 2, req, "OK"))
	if len(out.Client) != 1 {
		t.Fatal("speculation did not answer")
	}
	if rep := cc.decode(t, out.Client[0]); rep.Status != msg.StatusSpeculative {
		t.Fatalf("speculative frame = %+v", rep)
	}

	// The durable tier settles on a different result: the client must see an
	// explicit retraction before the authoritative answer.
	core.HandleReply(0, makeReply(tagger, 1, req, "REJECTED", nil))
	out, err := core.HandleReply(0, makeReply(tagger, 2, req, "REJECTED", nil))
	if err != nil || len(out.Client) != 2 {
		t.Fatalf("mismatched durable quorum: %v, %d frames", err, len(out.Client))
	}
	retract := cc.decode(t, out.Client[0])
	if retract.Status != msg.StatusRetracted ||
		!strings.Contains(string(retract.Result), "superseded by durable quorum") {
		t.Fatalf("retraction frame = %+v", retract)
	}
	repair := cc.decode(t, out.Client[1])
	if repair.Status != msg.StatusOK || string(repair.Result) != "REJECTED" {
		t.Fatalf("repair frame = %+v", repair)
	}
	st := core.Stats()
	if st.SpecMismatches != 1 || st.SpecRetracted != 1 || st.SpecConfirmed != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestSpeculativeResultNeverEntersCaches is the core cache-isolation
// regression: a speculative answer must not populate the fast-read cache —
// cache entries vouch for durably executed results, and a retracted
// speculation served from the cache would poison every later fast read.
func TestSpeculativeResultNeverEntersCaches(t *testing.T) {
	core, pub, tagger := newTestCore(t, true)
	opHash := msg.DigestOf([]byte("GET k"))
	cc := openChannel(t, core, pub, 1, 100)

	acts := cc.requestFlags(t, core, 0, "GET k", msg.FlagReadOnly|msg.FlagFastCommit)
	if len(acts.Submits) != 1 {
		t.Fatalf("cold fast-commit read: %d submits", len(acts.Submits))
	}
	req := acts.Submits[0]

	core.HandleSpecReply(0, makeSpecReply(tagger, 1, req, "VALUE spec"))
	out, _ := core.HandleSpecReply(0, makeSpecReply(tagger, 2, req, "VALUE spec"))
	if len(out.Client) != 1 {
		t.Fatal("speculation did not answer")
	}
	if rep := cc.decode(t, out.Client[0]); rep.Status != msg.StatusSpeculative ||
		string(rep.Result) != "VALUE spec" {
		t.Fatalf("speculative frame = %+v", rep)
	}
	if core.cache.Get(opHash) != nil {
		t.Fatal("speculative result entered the fast-read cache")
	}

	// A second client issuing the same read must still miss: no cache
	// queries, a fresh submission to the ordered path.
	cc2 := openChannel(t, core, pub, 2, 101)
	acts = cc2.request(t, core, time.Millisecond, "GET k", true)
	if len(acts.Queries) != 0 || len(acts.Submits) != 1 {
		t.Fatalf("read after speculation: %d queries, %d submits — speculative value served",
			len(acts.Queries), len(acts.Submits))
	}

	// A retraction poisons neither cache: the entry stays absent.
	out, err := core.HandleRetract(req.Client, req.ClientSeq, 4, 1)
	if err != nil || len(out.Client) != 1 {
		t.Fatalf("retract: %v, %d frames", err, len(out.Client))
	}
	if rep := cc.decode(t, out.Client[0]); rep.Status != msg.StatusRetracted {
		t.Fatalf("retraction frame = %+v", rep)
	}
	if core.cache.Get(opHash) != nil {
		t.Fatal("retraction left a cache entry behind")
	}

	// Only the durable quorum's result may enter the cache, and a later
	// fast read serves the durable value — not the withdrawn speculation.
	core.HandleReply(time.Millisecond, makeReply(tagger, 1, req, "VALUE durable", nil))
	out, _ = core.HandleReply(time.Millisecond, makeReply(tagger, 2, req, "VALUE durable", nil))
	if len(out.Client) != 1 {
		t.Fatal("durable quorum did not repair the retracted read")
	}
	if rep := cc.decode(t, out.Client[0]); rep.Status != msg.StatusOK ||
		string(rep.Result) != "VALUE durable" {
		t.Fatalf("repair frame = %+v", rep)
	}
	cached := core.cache.Get(opHash)
	if cached == nil || string(cached) != "VALUE durable" {
		t.Fatalf("cache after durable settlement = %q", cached)
	}
	acts = cc2.request(t, core, 2*time.Millisecond, "GET k", true)
	if len(acts.Queries) == 0 || len(acts.Submits) != 0 {
		t.Fatalf("fast read after durable fill: %d queries, %d submits",
			len(acts.Queries), len(acts.Submits))
	}
}

func TestRetractBeforeAnswerIsNoop(t *testing.T) {
	core, pub, tagger := newTestCore(t, false)
	cc := openChannel(t, core, pub, 1, 100)
	req := cc.requestFlags(t, core, 0, "PUT k v", msg.FlagFastCommit).Submits[0]

	// A single spec vote has not answered; a rollback racing the quorum must
	// not send the client a retraction for an answer it never received.
	core.HandleSpecReply(0, makeSpecReply(tagger, 1, req, "OK"))
	out, err := core.HandleRetract(req.Client, req.ClientSeq, 4, 1)
	if err != nil || len(out.Client) != 0 {
		t.Fatalf("retract before answer: %v, %d frames", err, len(out.Client))
	}
	if st := core.Stats(); st.SpecRetracted != 0 {
		t.Errorf("SpecRetracted = %d", st.SpecRetracted)
	}

	// The durable path then completes normally.
	core.HandleReply(0, makeReply(tagger, 1, req, "OK", nil))
	out, _ = core.HandleReply(0, makeReply(tagger, 2, req, "OK", nil))
	if len(out.Client) != 1 {
		t.Fatal("durable quorum did not complete")
	}
	if rep := cc.decode(t, out.Client[0]); rep.Status != msg.StatusOK {
		t.Fatalf("frame = %+v", rep)
	}
}

func TestRetractAfterAnswerAttributesAndRepairs(t *testing.T) {
	core, pub, tagger := newTestCore(t, false)
	cc := openChannel(t, core, pub, 1, 100)
	req := cc.requestFlags(t, core, 0, "PUT k v", msg.FlagFastCommit).Submits[0]

	core.HandleSpecReply(0, makeSpecReply(tagger, 1, req, "OK"))
	specOut, _ := core.HandleSpecReply(0, makeSpecReply(tagger, 2, req, "OK"))
	if len(specOut.Client) != 1 {
		t.Fatal("speculation did not answer")
	}
	if rep := cc.decode(t, specOut.Client[0]); rep.Status != msg.StatusSpeculative {
		t.Fatalf("speculative frame = %+v", rep)
	}

	out, err := core.HandleRetract(req.Client, req.ClientSeq, 9, 2)
	if err != nil || len(out.Client) != 1 {
		t.Fatalf("retract: %v, %d frames", err, len(out.Client))
	}
	rep := cc.decode(t, out.Client[0])
	if rep.Status != msg.StatusRetracted {
		t.Fatalf("frame = %+v", rep)
	}
	attr := string(rep.Result)
	if !strings.Contains(attr, "slot 9") || !strings.Contains(attr, "view 2") {
		t.Fatalf("attribution = %q", attr)
	}
	// A second retraction for the same answer is suppressed.
	out, _ = core.HandleRetract(req.Client, req.ClientSeq, 9, 2)
	if len(out.Client) != 0 {
		t.Fatal("duplicate retraction reached the client")
	}

	// The durable outcome repairs the client; a retracted answer is never
	// counted as confirmed even when the results happen to match.
	core.HandleReply(0, makeReply(tagger, 1, req, "OK", nil))
	out, _ = core.HandleReply(0, makeReply(tagger, 2, req, "OK", nil))
	if len(out.Client) != 1 {
		t.Fatal("durable repair missing")
	}
	if rep := cc.decode(t, out.Client[0]); rep.Status != msg.StatusOK || string(rep.Result) != "OK" {
		t.Fatalf("repair frame = %+v", rep)
	}
	st := core.Stats()
	if st.SpecRetracted != 1 || st.SpecConfirmed != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSpecReplyValidation(t *testing.T) {
	core, pub, tagger := newTestCore(t, false)
	cc := openChannel(t, core, pub, 1, 100)
	req := cc.requestFlags(t, core, 0, "PUT k v", msg.FlagFastCommit).Submits[0]

	// Forged group tag.
	forged := makeSpecReply(tagger, 1, req, "OK")
	forged.TroxyTag[0] ^= 0xff
	if out, _ := core.HandleSpecReply(0, forged); len(out.Client) != 0 {
		t.Fatal("forged spec reply answered")
	}
	// Executor outside the replica group.
	rogue := makeSpecReply(tagger, 7, req, "OK")
	if out, _ := core.HandleSpecReply(0, rogue); len(out.Client) != 0 {
		t.Fatal("out-of-range executor answered")
	}
	// Request digest mismatch: a vote bound to a different operation.
	other := msg.OrderRequest{Origin: req.Origin, Client: req.Client, ClientSeq: req.ClientSeq,
		Flags: req.Flags, Op: []byte("PUT k other")} // not a copy: req carries its digest
	if out, _ := core.HandleSpecReply(0, makeSpecReply(tagger, 1, other, "OK")); len(out.Client) != 0 {
		t.Fatal("mismatched request digest answered")
	}
	if st := core.Stats(); st.BadReplies != 3 {
		t.Errorf("BadReplies = %d, want 3", st.BadReplies)
	}

	// Spec votes for a client that did not opt into the fast tier are
	// dropped without counting against anyone.
	cc2 := openChannel(t, core, pub, 2, 101)
	slow := cc2.request(t, core, 0, "PUT k v", false).Submits[0]
	core.HandleSpecReply(0, makeSpecReply(tagger, 1, slow, "OK"))
	out, _ := core.HandleSpecReply(0, makeSpecReply(tagger, 2, slow, "OK"))
	if len(out.Client) != 0 {
		t.Fatal("non-fast vote answered speculatively")
	}
	if st := core.Stats(); st.BadReplies != 3 || st.SpecAnswered != 0 {
		t.Errorf("stats = %+v", st)
	}
}
