package replica

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/troxy-bft/troxy/internal/authn"
	"github.com/troxy-bft/troxy/internal/hybster"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/testutil"
	"github.com/troxy-bft/troxy/internal/wire"
)

// A FORWARD's and a PREPARE's transport MAC covers request digests, not the
// body, and the body is decoded before the MAC is checked. These tests hold
// replica.onEnvelope to what that must not change: whatever is done to a
// sealed envelope of either kind, it is counted as a bad MAC and nothing of it
// reaches the protocol core.

// coreTrace is everything an envelope that reaches the core in view 0 leaves
// behind: a counter, a rejected certificate, a message or a timer.
type coreTrace struct {
	metrics  hybster.Metrics
	rejected uint64
	sent     int
	timers   int
}

func traceOf(r *Replica, env *tapEnv, from msg.NodeID) coreTrace {
	return coreTrace{r.core.Metrics(), r.core.RejectedCertsFrom(from), len(env.sent), env.timers}
}

func tamperDir(t testing.TB) *authn.Directory {
	t.Helper()
	dir, err := authn.NewDirectory([]byte("replica-tamper-test"))
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// sealedForward returns replica 1's FORWARD of a request to the leader, sealed
// the way a replica seals it.
func sealedForward(dir *authn.Directory, client uint64, op []byte) *msg.Envelope {
	fwd := &msg.Forward{Req: msg.OrderRequest{Origin: 1, Client: client, ClientSeq: 1, Op: op}}
	e := msg.Seal(1, 0, fwd)
	authn.NewAuthenticator(1, dir).SealMessage(e, fwd)
	return e
}

// sealedPrepare makes a leader order sixteen forwarded requests of opSize
// bytes and returns the PREPARE it sends replica 1, beside the MAC bytes the
// leader was charged for sealing it.
func sealedPrepare(t testing.TB, dir *authn.Directory, opSize int) (*msg.Envelope, int) {
	t.Helper()
	leader, env := newBaselineReplica(dir, 0, 16, time.Hour), &tapEnv{self: 0}
	for i := 0; i < 16; i++ {
		leader.OnEnvelope(env, sealedForward(dir, uint64(100+i), bytes.Repeat([]byte{byte('a' + i)}, opSize)))
	}
	if st := leader.Stats(); st.BadMACs != 0 {
		t.Fatalf("the leader dropped %d of 16 honest FORWARDs", st.BadMACs)
	}
	if len(env.sent) != 2 || env.sent[0].Kind != msg.KindPrepare || env.sent[0].To != 1 {
		t.Fatalf("the leader sent %d envelopes for a full batch, want a PREPARE to each follower", len(env.sent))
	}
	sealing := env.macBytes[len(env.macBytes)-2:]
	if sealing[0] != sealing[1] {
		t.Fatalf("the two PREPAREs of one broadcast were charged %d and %d MAC bytes", sealing[0], sealing[1])
	}
	return env.sent[0], sealing[0]
}

// tamperings returns every way of damaging e the tests try, each on a copy.
func tamperings(e *msg.Envelope) map[string]*msg.Envelope {
	out := map[string]*msg.Envelope{}
	edit := func(name string, f func(c *msg.Envelope)) {
		c := &msg.Envelope{From: e.From, To: e.To, Kind: e.Kind, Body: bytes.Clone(e.Body), MAC: bytes.Clone(e.MAC)}
		f(c)
		out[name] = c
	}
	for i := range e.Body {
		edit(fmt.Sprintf("body byte %d flipped", i), func(c *msg.Envelope) { c.Body[i] ^= 1 << (i % 8) })
		edit(fmt.Sprintf("body cut to %d", i), func(c *msg.Envelope) { c.Body = c.Body[:i] })
	}
	edit("body one byte longer", func(c *msg.Envelope) { c.Body = append(c.Body, 0) })
	for i := range e.MAC {
		edit(fmt.Sprintf("MAC byte %d flipped", i), func(c *msg.Envelope) { c.MAC[i] ^= 1 << (i % 8) })
		edit(fmt.Sprintf("MAC cut to %d", i), func(c *msg.Envelope) { c.MAC = c.MAC[:i] })
	}
	edit("MAC one byte longer", func(c *msg.Envelope) { c.MAC = append(c.MAC, 0) })
	for k := msg.Kind(0); k <= msg.KindReplyBatch+1; k++ {
		// Channel data is the client hop, and the kinds a Troxy tags go to the
		// Troxy: neither is MAC'd, neither is the core's (the Troxy's checks
		// are held by troxytagged_test.go).
		if k != e.Kind && k != msg.KindChannelData && !k.TroxyTagged() {
			edit(fmt.Sprintf("kind %s", k), func(c *msg.Envelope) { c.Kind = k })
		}
	}
	for _, id := range []msg.NodeID{0, 1, 2, 100, msg.NoNode} {
		if id != e.From {
			edit(fmt.Sprintf("from %d", id), func(c *msg.Envelope) { c.From = id })
		}
		if id != e.To {
			edit(fmt.Sprintf("to %d", id), func(c *msg.Envelope) { c.To = id })
		}
	}
	return out
}

// checkRejected delivers every tampering of e to r and then e itself: each of
// the former is one bad MAC and no trace in the core, the latter no bad MAC and
// a trace.
func checkRejected(t *testing.T, r *Replica, e *msg.Envelope) {
	t.Helper()
	env := &tapEnv{self: e.To}
	clean := traceOf(r, env, e.From)
	for name, bad := range tamperings(e) {
		before := r.Stats().BadMACs
		r.OnEnvelope(env, bad)
		if got := r.Stats().BadMACs - before; got != 1 {
			t.Errorf("%s, %s: counted as %d bad MACs, want 1", e.Kind, name, got)
		}
		if after := traceOf(r, env, e.From); after != clean {
			t.Fatalf("%s, %s: reached the core: %+v, was %+v", e.Kind, name, after, clean)
		}
	}
	before := r.Stats().BadMACs
	r.OnEnvelope(env, e)
	if r.Stats().BadMACs != before || traceOf(r, env, e.From) == clean {
		t.Fatalf("the honest %s was not handled: the tamperings above prove nothing", e.Kind)
	}
}

func TestTamperedForwardAndPrepareNeverReachTheCore(t *testing.T) {
	dir := tamperDir(t)
	t.Run("Forward", func(t *testing.T) {
		checkRejected(t, newBaselineReplica(dir, 0, 0, 0), sealedForward(dir, 100, []byte("PUT key-17 value")))
	})
	t.Run("Prepare", func(t *testing.T) {
		prep, _ := sealedPrepare(t, dir, 24)
		checkRejected(t, newBaselineReplica(dir, 1, 16, time.Hour), prep)
	})
}

// TestPrepareTagIsBoundToItsKindAndEncoding: the covered bytes of a PREPARE
// are not its body, so three tags over "the same message" exist — the one a
// replica expects, a whole-body MAC of the body, and the MAC of another kind
// of message (a COMMIT, covered whole) whose body is the PREPARE's covered
// bytes. Only the first opens the PREPARE, and it opens nothing else: the kind
// is in the MAC'd header, and each kind has one covered encoding.
func TestPrepareTagIsBoundToItsKindAndEncoding(t *testing.T) {
	dir := tamperDir(t)
	prep, _ := sealedPrepare(t, dir, 24)
	leader := authn.NewAuthenticator(0, dir)
	m, err := prep.Open()
	if err != nil {
		t.Fatal(err)
	}
	covered := bytes.Clone(authn.Covered(wire.NewWriter(0), m, prep.Body))

	wholeBody := &msg.Envelope{From: 0, To: 1, Kind: msg.KindPrepare, Body: prep.Body}
	leader.SealMAC(wholeBody)
	lookalike := &msg.Envelope{From: 0, To: 1, Kind: msg.KindCommit, Body: covered}
	leader.SealMAC(lookalike)
	if bytes.Equal(wholeBody.MAC, prep.MAC) || bytes.Equal(lookalike.MAC, prep.MAC) {
		t.Fatal("two different MAC inputs, one tag")
	}

	follower, env := newBaselineReplica(dir, 1, 16, time.Hour), &tapEnv{self: 1}
	clean := traceOf(follower, env, 0)
	for name, e := range map[string]*msg.Envelope{
		"a whole-body MAC of the body":                   wholeBody,
		"the tag of a COMMIT of the covered bytes":       {From: 0, To: 1, Kind: msg.KindPrepare, Body: prep.Body, MAC: lookalike.MAC},
		"the PREPARE's tag on its covered bytes as body": {From: 0, To: 1, Kind: msg.KindPrepare, Body: covered, MAC: prep.MAC},
		"the PREPARE's tag on a FORWARD of its body":     {From: 0, To: 1, Kind: msg.KindForward, Body: prep.Body, MAC: prep.MAC},
		"the PREPARE's tag on a FORWARD of its covered":  {From: 0, To: 1, Kind: msg.KindForward, Body: covered, MAC: prep.MAC},
		"the PREPARE's tag on a COMMIT of its body":      {From: 0, To: 1, Kind: msg.KindCommit, Body: prep.Body, MAC: prep.MAC},
		"the PREPARE's tag on the lookalike":             {From: 0, To: 1, Kind: msg.KindCommit, Body: covered, MAC: prep.MAC},
	} {
		before := follower.Stats()
		follower.OnEnvelope(env, e)
		if after := follower.Stats(); after.BadMACs != before.BadMACs+1 || after.Unhandled != before.Unhandled {
			t.Errorf("%s: stats %+v, were %+v: want one more bad MAC", name, after, before)
		}
		if traceOf(follower, env, 0) != clean {
			t.Fatalf("%s: reached the core", name)
		}
	}
	// Each tag verifies exactly the envelope it was made for (the lookalike's
	// body is no COMMIT, so it goes no further than its MAC).
	if !authn.NewAuthenticator(1, dir).VerifyMAC(lookalike) {
		t.Error("the lookalike's own MAC does not verify")
	}
	before := follower.Stats()
	follower.OnEnvelope(env, prep)
	if st := follower.Stats(); st != before || traceOf(follower, env, 0) == clean {
		t.Errorf("the honest PREPARE was not handled: %+v", st)
	}
}

// TestPrepareMACBytesDoNotGrowWithTheOperations: what the MAC of a PREPARE
// covers — and so what the simulator is charged for it, on both sides — is the
// same for sixteen 24-byte operations and sixteen of 4 KiB.
func TestPrepareMACBytesDoNotGrowWithTheOperations(t *testing.T) {
	dir := tamperDir(t)
	charged := func(opSize int) (sealing, verifying int) {
		prep, sealing := sealedPrepare(t, dir, opSize)
		env := &tapEnv{self: 1}
		newBaselineReplica(dir, 1, 16, time.Hour).OnEnvelope(env, prep)
		return sealing, env.macBytes[0] // the first charge of the invocation is the envelope's
	}
	smallSeal, smallVerify := charged(24)
	bigSeal, bigVerify := charged(4096)
	if want := 8 + 8 + 4 + 16*32 + 4 + 4 + 8 + 4 + authn.TagSize; smallSeal != want || smallVerify != want {
		t.Errorf("a PREPARE of sixteen small requests: %d MAC bytes sealing, %d verifying, want %d", smallSeal, smallVerify, want)
	}
	if bigSeal != smallSeal || bigVerify != smallVerify {
		t.Errorf("4 KiB operations: %d MAC bytes sealing and %d verifying, were %d and %d", bigSeal, bigVerify, smallSeal, smallVerify)
	}
}

// TestSealingAPrepareHashesNoOperation: a leader proposes requests it has
// already hashed (Submit, OnForward), and the MAC of the PREPARE covers those
// digests. Operations overwritten after the digests were taken leave the tag
// what it was: no byte of them is read to seal.
func TestSealingAPrepareHashesNoOperation(t *testing.T) {
	dir := tamperDir(t)
	honest, _ := sealedPrepare(t, dir, 4096)
	m, err := (&msg.Envelope{Kind: honest.Kind, Body: bytes.Clone(honest.Body)}).Open()
	if err != nil {
		t.Fatal(err)
	}
	prep := m.(*msg.Prepare)
	for i := range prep.Batch.Reqs {
		prep.Batch.Reqs[i].Digest()
		for j := range prep.Batch.Reqs[i].Op {
			prep.Batch.Reqs[i].Op[j] = 0xEE
		}
	}
	env := &tapEnv{self: 0}
	newBaselineReplica(dir, 0, 16, time.Hour).Broadcast(env, prep)
	if len(env.sent) != 2 || bytes.Equal(env.sent[0].Body, honest.Body) {
		t.Fatalf("%d envelopes sent; the poisoned operations must be in their body", len(env.sent))
	}
	if !bytes.Equal(env.sent[0].MAC, honest.MAC) {
		t.Error("sealing a PREPARE whose requests carry their digests read the operations")
	}
}

// BenchmarkAllocGatePrepare: a 16 × 4 KiB PREPARE is sealed for two peers at
// the cost of its encoding and, per peer, an envelope and a tag — the covered
// bytes are built in a pooled writer — and opened and verified at the cost of
// the message and its request slice, as before the MAC covered digests.
func BenchmarkAllocGatePrepare(b *testing.B) {
	dir := tamperDir(b)
	envelope, _ := sealedPrepare(b, dir, 4096)
	m, err := envelope.Open()
	if err != nil {
		b.Fatal(err)
	}
	prep := m.(*msg.Prepare)
	for i := range prep.Batch.Reqs {
		prep.Batch.Reqs[i].Digest() // a leader proposes what Submit and OnForward hashed
	}
	leader, env := newBaselineReplica(dir, 0, 16, time.Hour), &tapEnv{self: 0}
	testutil.AllocGate(b, "BroadcastPrepare16x4K", 1+2*2, func() {
		leader.Broadcast(env, prep)
		env.sent, env.macBytes = env.sent[:0], env.macBytes[:0]
	})
	follower := newBaselineReplica(dir, 1, 16, time.Hour)
	testutil.AllocGate(b, "AuthenticatePrepare16x4K", 2, func() {
		if _, ok := follower.authenticate(env, envelope); !ok {
			b.Fatal("the honest PREPARE did not verify")
		}
		env.macBytes = env.macBytes[:0]
	})
}
