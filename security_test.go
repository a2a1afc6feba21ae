package troxy

// Tests binding the paper's security analysis (Section VI-B) to code:
// performance attacks on the fast-read cache, the bypass attack where the
// untrusted replica part talks to clients directly, and a client claiming
// another client's identity.

import (
	"fmt"
	"testing"
	"time"

	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/faultplane"
	"github.com/troxy-bft/troxy/internal/legacyclient"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/simnet"
	"github.com/troxy-bft/troxy/internal/workload"
)

// dropCacheReplies wraps a replica and silently drops the fast-read cache
// replies its Troxy produces — the untrusted part cannot forge them (the
// group tag is computed inside the enclave), but it can withhold them,
// which is the paper's performance attack: fast reads stall and fall back.
type dropCacheReplies struct {
	inner node.Handler
}

type droppingEnv struct {
	node.Env
}

func (d droppingEnv) Send(e *msg.Envelope) {
	if e.Kind == msg.KindCacheReply {
		return
	}
	d.Env.Send(e)
}

func (d *dropCacheReplies) OnStart(env node.Env) { d.inner.OnStart(droppingEnv{env}) }
func (d *dropCacheReplies) OnEnvelope(env node.Env, e *msg.Envelope) {
	d.inner.OnEnvelope(droppingEnv{env}, e)
}
func (d *dropCacheReplies) OnTimer(env node.Env, key node.TimerKey) {
	d.inner.OnTimer(droppingEnv{env}, key)
}

func TestPerformanceAttackTriggersMonitorFallback(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{
		Mode:              ETroxy,
		App:               app.NewStoreFactory(),
		Classify:          storeClassifier(),
		FastReads:         true,
		Seed:              21,
		ViewChangeTimeout: 30 * time.Second,
		TickInterval:      20 * time.Millisecond,
		QueryTimeout:      100 * time.Millisecond,
		MonitorWindow:     16,
		MonitorThreshold:  0.5,
		ProbeInterval:     500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(21, nil)
	net.SetDefaultLink(simnet.FixedLatency(time.Millisecond))
	// Replica 2's untrusted part withholds cache replies.
	for i, r := range cl.Replicas {
		if i == 2 {
			net.Attach(msg.NodeID(i), &dropCacheReplies{inner: r})
			continue
		}
		net.Attach(msg.NodeID(i), r)
	}

	// A read-heavy client pinned to replica 0: its fast reads query a
	// random remote (1 or 2); those hitting 2 time out and fall back.
	ops := []workload.Op{{Op: []byte("PUT hot v"), Read: false}}
	for i := 0; i < 40; i++ {
		ops = append(ops, workload.Op{Op: []byte("GET hot"), Read: true})
	}
	lc := legacyclient.New(legacyclient.Config{
		Machine: 10, Clients: 1, FirstClientID: 1000,
		Replicas:  []msg.NodeID{0},
		ServerPub: cl.ServerPub,
		Gen:       &scriptGen{ops: ops},
		MaxOps:    len(ops), Timeout: 2 * time.Second,
	})
	net.Attach(10, lc)
	net.Run(120 * time.Second)

	// Liveness and correctness survive the attack...
	if lc.Done() != len(ops) {
		t.Fatalf("completed %d/%d under performance attack", lc.Done(), len(ops))
	}
	st := cl.TroxyStats(0)
	if st.FastReadFell == 0 {
		t.Error("no fast-read fallbacks despite withheld cache replies")
	}
	// ...and the monitor reacted by abandoning the optimization for a while
	// ("if the miss rate reaches a configurable system constant, the fast
	// read optimization is avoided", Section IV-B).
	if st.ModeSwitches == 0 {
		t.Error("conflict monitor never switched to total-order mode")
	}
}

// TestBypassAttackDetectedByClient: a malicious untrusted part answering
// clients directly (without the Troxy's session key) produces records the
// client cannot authenticate; the client treats the channel as corrupted
// and fails over (Section VI-B, "Bypassing Troxy").
func TestBypassAttackDetectedByClient(t *testing.T) {
	cl, net := newTestCluster(t, ETroxy, false)
	ops := kvOps("PUT a 1", "GET a")
	lc := legacyclient.New(legacyclient.Config{
		Machine: 10, Clients: 1, FirstClientID: 1000,
		Replicas:  []msg.NodeID{0, 1},
		ServerPub: cl.ServerPub,
		Gen:       &scriptGen{ops: ops},
		MaxOps:    len(ops), Timeout: time.Second,
	})
	net.Attach(10, lc)
	// The "replica" at a spoofed address floods the client with fabricated
	// channel records for its connection ID.
	net.Attach(40, &bypassAttacker{victimMachine: 10, connID: 1000})
	net.Run(20 * time.Second)
	if lc.Done() != len(ops) {
		t.Fatalf("completed %d/%d under bypass attack", lc.Done(), len(ops))
	}
	// The final state is the honest one.
	if got := cl.App(0).Execute([]byte("GET a")); string(got) != "VALUE 1" {
		t.Errorf("state = %q", got)
	}
}

type bypassAttacker struct {
	victimMachine msg.NodeID
	connID        uint64
}

func (b *bypassAttacker) OnStart(env node.Env) {
	env.SetTimer(2*time.Millisecond, node.TimerKey{Kind: "attack"})
}

func (b *bypassAttacker) OnEnvelope(node.Env, *msg.Envelope) {}

func (b *bypassAttacker) OnTimer(env node.Env, key node.TimerKey) {
	// Fabricated "replies" without the session key: random record bytes.
	env.Send(msg.Seal(env.Self(), b.victimMachine, &msg.ChannelData{
		ConnID:  b.connID,
		Payload: []byte{3, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9},
	}))
	env.SetTimer(5*time.Millisecond, key)
}

// TestClientIdentityTakeover: clients are Byzantine too (DESIGN.md §6), so
// a machine that claims a live client's identity through another Troxy must
// not change what that client observes. The attacker writes x through
// replica 0 under identity 1000; the victim, the honest owner of 1000,
// then writes and reads x through replica 1. The victim's own history has to
// be linearizable, and it has to finish.
//
// Skipped: a Troxy takes the client identity from the client's frames, so
// the victim's write is answered from the attacker's cached reply and its
// read returns the attacker's value (one attacker write), or it stalls
// behind the attacker's sequence numbers (three). The fix, Troxys naming
// the BFT clients themselves, is ROADMAP.md direction 7 (b).
func TestClientIdentityTakeover(t *testing.T) {
	t.Skip("a client's identity is whatever its frames claim; ROADMAP.md direction 7 (b)")
	for _, attacks := range []int{1, 3} {
		t.Run(fmt.Sprintf("attacker-writes=%d", attacks), func(t *testing.T) {
			cl, net := newTestCluster(t, ETroxy, false)
			var evil []workload.Op
			for i := 0; i < attacks; i++ {
				evil = append(evil, kvOps("PUT x evil")...)
			}
			attacker := legacyclient.New(legacyclient.Config{
				Machine: 11, Clients: 1, FirstClientID: 1000,
				Replicas:  []msg.NodeID{0},
				ServerPub: cl.ServerPub,
				Gen:       &scriptGen{ops: evil},
				MaxOps:    len(evil), Timeout: time.Second,
			})
			net.Attach(11, attacker)
			net.Run(10 * time.Second)
			if attacker.Done() != len(evil) {
				t.Fatalf("attacker completed %d/%d", attacker.Done(), len(evil))
			}

			hist := &faultplane.History{}
			ops := kvOps("PUT x good", "GET x")
			victim := legacyclient.New(legacyclient.Config{
				Machine: 10, Clients: 1, FirstClientID: 1000,
				Replicas:  []msg.NodeID{1},
				ServerPub: cl.ServerPub,
				Gen:       &scriptGen{ops: ops},
				MaxOps:    len(ops), Timeout: time.Second,
				Observe: hist.Observe,
			})
			net.Attach(10, victim)
			net.Run(20 * time.Second)
			if victim.Done() != len(ops) {
				t.Fatalf("victim completed %d/%d", victim.Done(), len(ops))
			}
			if err := faultplane.CheckLinearizable(hist.Ops()); err != nil {
				t.Fatalf("the victim's history is not linearizable: %v", err)
			}
		})
	}
}
