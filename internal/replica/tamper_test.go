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
)

// A FORWARD's transport MAC covers its request's digest, not the body, and
// the body is decoded before the MAC is checked. These tests hold
// replica.onEnvelope to what that must not change: whatever is done to a
// sealed FORWARD, it is counted as a bad MAC and nothing of it reaches the
// protocol core. (A PREPARE carries no MAC: certified_test.go holds it.)

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
		// The kinds without a MAC are held elsewhere: the kinds a Troxy tags
		// by troxytagged_test.go, PREPARE and COMMIT by certified_test.go.
		if k != e.Kind && authn.HostMACed(k) {
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
}

// BenchmarkAllocGatePrepare: a 16 × 4 KiB PREPARE is broadcast to two peers
// at the cost of its encoding, which both envelopes share; each envelope's
// header is the replica's own, which Send copies. It carries no MAC, so no
// tag is allocated and nothing is hashed for one.
func BenchmarkAllocGatePrepare(b *testing.B) {
	dir := tamperDir(b)
	_, proposed := proposingLeader(b, dir, 4096)
	m, err := proposed.sent[0].Open()
	if err != nil {
		b.Fatal(err)
	}
	prep := m.(*msg.Prepare)
	for i := range prep.Batch.Reqs {
		prep.Batch.Reqs[i].Digest() // a leader proposes what Submit and OnForward hashed
	}
	leader, env := newBaselineReplica(dir, 0, 16, time.Hour), &tapEnv{self: 0}
	testutil.AllocGate(b, "BroadcastPrepare16x4K", 1, func() {
		leader.Broadcast(env, prep)
		if len(env.macBytes) != 0 {
			b.Fatal("a PREPARE was MACed")
		}
		env.sent = env.sent[:0]
	})
}
