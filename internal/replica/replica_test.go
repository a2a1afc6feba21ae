package replica

import (
	"testing"
	"time"

	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/authn"
	"github.com/troxy-bft/troxy/internal/hybster"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/simnet"
	"github.com/troxy-bft/troxy/internal/tcounter"
)

// newBaselineReplica builds one baseline-mode replica (no Troxy) of a group of
// three, with its own trusted counters under the directory's key.
func newBaselineReplica(dir *authn.Directory, self msg.NodeID, batchSize int, batchDelay time.Duration) *Replica {
	sub := tcounter.NewSubsystem(self)
	sub.SetKey(dir.CounterKey())
	return New(Config{
		Self: self,
		N:    3,
		F:    1,
		Hybster: hybster.Config{
			Profile:           node.ProfileJava,
			Authority:         tcounter.Direct{S: sub},
			App:               app.NewStore(),
			ViewChangeTimeout: 10 * time.Second,
			BatchSize:         batchSize,
			BatchDelay:        batchDelay,
		},
		Directory: dir,
	})
}

// newBaselineCluster wires three baseline-mode replicas directly (no Troxy),
// exercising this package's transport authentication and dispatch.
func newBaselineCluster(t testing.TB) ([]*Replica, *authn.Directory, *simnet.Network) {
	t.Helper()
	dir, err := authn.NewDirectory([]byte("replica-test"))
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(2, nil)
	net.SetDefaultLink(simnet.FixedLatency(time.Millisecond))
	var reps []*Replica
	for i := 0; i < 3; i++ {
		r := newBaselineReplica(dir, msg.NodeID(i), 0, 0)
		reps = append(reps, r)
		net.Attach(msg.NodeID(i), r)
	}
	return reps, dir, net
}

// sender injects envelopes, optionally MACed with the right key.
type sender struct {
	auth *authn.Authenticator
	send []*msg.Envelope
}

func (s *sender) OnStart(env node.Env) {
	for _, e := range s.send {
		env.Send(e)
	}
}
func (s *sender) OnEnvelope(node.Env, *msg.Envelope) {}
func (s *sender) OnTimer(node.Env, node.TimerKey)    {}

// TestUnauthenticatedEnvelopesDiscarded: an envelope of any kind that keeps
// its transport MAC — every kind but the client hop's and the three a Troxy
// tags — is dropped and counted when its MAC is bogus or missing, and the
// request in it is never ordered.
func TestUnauthenticatedEnvelopesDiscarded(t *testing.T) {
	reps, _, net := newBaselineCluster(t)
	body := msg.EncodeBody(&msg.BFTRequest{Client: 1, ClientSeq: 1, Op: []byte("PUT a 1")})
	var send []*msg.Envelope
	for k := msg.KindChannelData + 1; k <= msg.KindReplyBatch; k++ {
		if !k.TroxyTagged() {
			send = append(send,
				&msg.Envelope{From: 100, To: 0, Kind: k, Body: body, MAC: []byte("bogus")},
				&msg.Envelope{From: 100, To: 0, Kind: k, Body: body})
		}
	}
	net.Attach(100, &sender{send: send})
	net.Run(time.Second)
	if got := reps[0].Stats().BadMACs; got != uint64(len(send)) {
		t.Errorf("%d of %d envelopes without a valid MAC counted", got, len(send))
	}
	if reps[0].Core().Metrics().Executed != 0 {
		t.Error("unauthenticated request executed")
	}
}

func TestAuthenticatedRequestOrdersAndReplies(t *testing.T) {
	reps, dir, net := newBaselineCluster(t)
	auth := authn.NewAuthenticator(100, dir)
	e := msg.Seal(100, 0, &msg.BFTRequest{Client: 1, ClientSeq: 1, Op: []byte("PUT a 1")})
	auth.SealMAC(e)

	recv := &collector{}
	net.Attach(100, &sender{send: []*msg.Envelope{e}})
	net.Attach(101, recv) // unrelated observer
	net.Run(2 * time.Second)

	for i, r := range reps {
		if r.Core().Metrics().Executed != 1 {
			t.Errorf("replica %d executed %d", i, r.Core().Metrics().Executed)
		}
	}
}

type collector struct{ got []*msg.Envelope }

func (c *collector) OnStart(node.Env) {}
func (c *collector) OnEnvelope(_ node.Env, e *msg.Envelope) {
	c.got = append(c.got, e)
}
func (c *collector) OnTimer(node.Env, node.TimerKey) {}

func TestDirectReadExecutesWithoutOrdering(t *testing.T) {
	reps, dir, net := newBaselineCluster(t)
	auth := authn.NewAuthenticator(100, dir)
	e := msg.Seal(100, 1, &msg.BFTRequest{
		Client: 1, ClientSeq: 1,
		Flags: msg.FlagReadOnly | msg.FlagDirect,
		Op:    []byte("GET a"),
	})
	auth.SealMAC(e)

	net.Attach(100, &sender{send: []*msg.Envelope{e}})
	net.Run(time.Second)

	if reps[1].Stats().DirectReads != 1 {
		t.Errorf("direct reads = %d", reps[1].Stats().DirectReads)
	}
	if reps[1].Core().Metrics().Executed != 0 {
		t.Error("direct read went through ordering")
	}
}

func TestBroadcastFlagNotForwardedByFollowers(t *testing.T) {
	reps, dir, net := newBaselineCluster(t)
	auth := authn.NewAuthenticator(100, dir)
	var envs []*msg.Envelope
	for i := 0; i < 3; i++ {
		e := msg.Seal(100, msg.NodeID(i), &msg.BFTRequest{
			Client: 1, ClientSeq: 1,
			Flags: msg.FlagBroadcast,
			Op:    []byte("PUT a 1"),
		})
		auth.SealMAC(e)
		envs = append(envs, e)
	}
	net.Attach(100, &sender{send: envs})
	net.Run(2 * time.Second)
	for i, r := range reps {
		if got := r.Core().Metrics().Executed; got != 1 {
			t.Errorf("replica %d executed %d, want exactly 1", i, got)
		}
	}
}
