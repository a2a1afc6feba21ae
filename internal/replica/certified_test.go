package replica

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/troxy-bft/troxy/internal/authn"
	"github.com/troxy-bft/troxy/internal/hybster"
	"github.com/troxy-bft/troxy/internal/msg"
)

// A PREPARE and a COMMIT travel without a transport MAC: the replica opens
// them and hands them to the core, which checks the counter certificate each
// carries before it keeps, parks or answers anything (DESIGN.md decision 17).
// These tests hold that path to what the MAC used to give: whatever is done to
// such a body or to the sender its envelope names, the core takes nothing but
// the message its certificate covers, and a certificate that proves nothing
// about its sender blames nobody.

// certTrace is everything an envelope can leave behind at a replica in view
// 0: a counter of the core or the transport, a blamed replica, a message sent
// (a COMMIT, a reply, a NEW-VIEW solicitation) or a timer.
type certTrace struct {
	metrics hybster.Metrics
	stats   Stats
	blamed  uint64
	sent    int
	timers  int
}

func certTraceOf(r *Replica, env *tapEnv) certTrace {
	tr := certTrace{metrics: r.core.Metrics(), stats: r.Stats(), sent: len(env.sent), timers: env.timers}
	for _, id := range []msg.NodeID{0, 1, 2, 100, msg.NoNode} {
		tr.blamed += r.core.RejectedCertsFrom(id)
	}
	return tr
}

// certifiedFields is what a PREPARE's or a COMMIT's certificate and the
// receiver's checks see of it: view, sequence number, batch digest and the
// certificate itself.
func certifiedFields(m msg.Message) string {
	switch m := m.(type) {
	case *msg.Prepare:
		return fmt.Sprintf("%d/%d/%x/%d/%d/%d/%x", m.View, m.Seq, m.Batch.Digest(), m.Cert.Replica, m.Cert.Counter, m.Cert.Value, m.Cert.MAC)
	case *msg.Commit:
		return fmt.Sprintf("%d/%d/%x/%d/%d/%d/%x", m.View, m.Seq, m.BatchDigest, m.Cert.Replica, m.Cert.Counter, m.Cert.Value, m.Cert.MAC)
	}
	return fmt.Sprintf("a %s", m.Kind())
}

// sentSummary lists the kind and destination of each envelope sent.
func sentSummary(sent []msg.Envelope) string {
	var b bytes.Buffer
	for _, e := range sent {
		fmt.Fprintf(&b, "%s→%d ", e.Kind, e.To)
	}
	return b.String()
}

// checkCertifiedFlips delivers every single-byte flip of genuine's body, then
// genuine under every other sender, each to a receiver fresh() builds. A flip
// fails to decode (one bad MAC) or is counted as an unverified certificate
// and leaves no other trace — or it decodes to genuine's certified fields and
// is handled as genuine is. A foreign sender is always an unverified
// certificate. After an inert delivery the genuine envelope is handled as by
// a fresh receiver: nothing was logged or held in its place.
func checkCertifiedFlips(t *testing.T, genuine *msg.Envelope, fresh func() (*Replica, *tapEnv)) {
	t.Helper()
	gm, err := genuine.Open()
	if err != nil {
		t.Fatal(err)
	}
	want := certifiedFields(gm)
	r, env := fresh()
	r.OnEnvelope(env, genuine)
	handled := sentSummary(env.sent)
	if handled == "" {
		t.Fatalf("the genuine %s sent nothing: the flips below would prove nothing", genuine.Kind)
	}

	inert := func(what string, r *Replica, env *tapEnv, before certTrace, unverified, bad uint64) {
		t.Helper()
		after := certTraceOf(r, env)
		if after.metrics.UnverifiedCerts-before.metrics.UnverifiedCerts != unverified || after.stats.BadMACs-before.stats.BadMACs != bad {
			t.Errorf("%s: %d unverified certificates, %d bad MACs, want %d and %d", what,
				after.metrics.UnverifiedCerts-before.metrics.UnverifiedCerts, after.stats.BadMACs-before.stats.BadMACs, unverified, bad)
		}
		after.metrics.UnverifiedCerts, after.stats.BadMACs = before.metrics.UnverifiedCerts, before.stats.BadMACs
		if after != before {
			t.Fatalf("%s left a trace: %+v, was %+v (sent %s)", what, after, before, sentSummary(env.sent))
		}
		env.sent = nil
		r.OnEnvelope(env, genuine)
		if got := sentSummary(env.sent); got != handled {
			t.Fatalf("%s: the genuine %s then sent %q, a fresh receiver %q", what, genuine.Kind, got, handled)
		}
	}

	for i := range genuine.Body {
		what := fmt.Sprintf("%s, byte %d flipped", genuine.Kind, i)
		e := &msg.Envelope{From: genuine.From, To: genuine.To, Kind: genuine.Kind, Body: flipped(genuine.Body, i)}
		m, err := (&msg.Envelope{Kind: e.Kind, Body: bytes.Clone(e.Body)}).Open()
		r, env := fresh()
		before := certTraceOf(r, env)
		r.OnEnvelope(env, e)
		switch {
		case err != nil:
			inert(what, r, env, before, 0, 1)
		case certifiedFields(m) == want:
			if got := sentSummary(env.sent); got != handled {
				t.Errorf("%s: decodes to the genuine certified fields but sent %q, the genuine one %q", what, got, handled)
			}
		default:
			inert(what, r, env, before, 1, 0)
		}
	}

	for _, from := range []msg.NodeID{0, 1, 2, 100, msg.NoNode} {
		if from == genuine.From {
			continue
		}
		r, env := fresh()
		before := certTraceOf(r, env)
		r.OnEnvelope(env, &msg.Envelope{From: from, To: genuine.To, Kind: genuine.Kind, Body: genuine.Body})
		inert(fmt.Sprintf("%s from %d", genuine.Kind, from), r, env, before, 1, 0)
	}
}

// proposingLeader is replica 0, leader of view 0, with a PREPARE of sixteen
// forwarded requests of opSize bytes in flight; env holds the two PREPAREs it
// sent, the one to replica 1 first.
func proposingLeader(t testing.TB, dir *authn.Directory, opSize int) (*Replica, *tapEnv) {
	t.Helper()
	leader, env := newBaselineReplica(dir, 0, 16, time.Hour), &tapEnv{self: 0}
	for i := 0; i < 16; i++ {
		leader.OnEnvelope(env, sealedForward(dir, uint64(100+i), bytes.Repeat([]byte{byte('a' + i)}, opSize)))
	}
	if st := leader.Stats(); st.BadMACs != 0 {
		t.Fatalf("the leader dropped %d of 16 honest FORWARDs", st.BadMACs)
	}
	if len(env.sent) != 2 || env.sent[0].Kind != msg.KindPrepare || env.sent[0].To != 1 {
		t.Fatalf("the leader sent %s for a full batch, want a PREPARE to each follower", sentSummary(env.sent))
	}
	return leader, env
}

// TestCertifiedBodyFlipsAreRejectedOrInert flips every byte of an honest
// PREPARE's body into a follower in view 0, and of the honest COMMIT that
// follower answers with into the leader, which needs it to execute; then it
// sends each under every other sender. Nothing that fails to decode or to
// verify is logged, acknowledged, executed, parked for a future view or
// answered with a NEW-VIEW solicitation, and nobody is blamed for it.
func TestCertifiedBodyFlipsAreRejectedOrInert(t *testing.T) {
	dir := tamperDir(t)
	_, proposed := proposingLeader(t, dir, 24)
	prep := &proposed.sent[0]
	follower := func() (*Replica, *tapEnv) { return newBaselineReplica(dir, 1, 16, time.Hour), &tapEnv{self: 1} }

	t.Run("Prepare", func(t *testing.T) {
		checkCertifiedFlips(t, prep, follower)
	})

	t.Run("Commit", func(t *testing.T) {
		r, env := follower()
		r.OnEnvelope(env, prep)
		var com *msg.Envelope
		for i, e := range env.sent {
			if e.Kind == msg.KindCommit && e.To == 0 {
				com = &env.sent[i]
			}
		}
		if com == nil {
			t.Fatalf("the follower answered the PREPARE with %s, no COMMIT to the leader", sentSummary(env.sent))
		}
		checkCertifiedFlips(t, com, func() (*Replica, *tapEnv) {
			leader, env := proposingLeader(t, dir, 24)
			env.sent = nil
			return leader, env
		})
	})
}
