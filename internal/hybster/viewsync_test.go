package hybster

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/faultplane"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/simnet"
	"github.com/troxy-bft/troxy/internal/tcounter"
)

// These tests pin the two view-synchronization paths for a replica that
// slept through a view change: the NEW-VIEW attached to a state-transfer
// prefix, and the NewViewRequest solicitation triggered by deferring
// certified traffic from a future view. Before either existed, such a
// replica installed the transferred checkpoint but stayed in its stale view
// forever — skipping every prefix entry, deferring the cluster's live
// PREPAREs, and silently ceasing to vote (the large-state soak caught it as
// a replica wedged exactly at its transferred checkpoint).

// runViewChangeWhileDown crashes replica 2, then forces a view change among
// the survivors by crashing the view-0 leader until the escalation protocol
// moves the cluster to a later view, and finally restores replica 2 once
// ordering has resumed and checkpoints have advanced past its state.
func runViewChangeWhileDown(t *testing.T, cl *cluster) (behind uint64) {
	t.Helper()
	cl.net.Run(100 * time.Millisecond)
	cl.net.Crash(2)
	cl.net.Run(900 * time.Millisecond)

	// With the leader down and fresh requests pending, replica 1 escalates
	// view changes it cannot complete alone; when replica 0 returns it joins
	// the highest one and the view installs — all while replica 2 is
	// crashed, so it never sees the VIEW-CHANGE or NEW-VIEW traffic.
	cl.net.Crash(0)
	mid := &testClient{id: 98, n: 3, f: 1, ops: toOps(opScript(20))}
	cl.net.AttachConfig(98, mid, simnet.NodeConfig{})
	cl.net.Run(2500 * time.Millisecond)
	cl.net.Restore(0)
	cl.net.Run(12 * time.Second)

	if v := cl.replicas[0].core.View(); v == 0 {
		t.Fatalf("no view change completed while replica 2 was down (view still %d)", v)
	}
	if !mid.done {
		t.Fatalf("mid-crash client stalled across the view change: %d/%d", mid.current, len(mid.ops))
	}
	if !cl.client.done {
		t.Fatalf("client stalled across the view change: %d/%d", cl.client.current, len(cl.client.ops))
	}
	behind = cl.replicas[2].core.LastExecuted()
	cl.net.Restore(2)
	return behind
}

// finishAndCheckConvergence drives fresh traffic past the restart and
// asserts the joiner caught up: same view, same executed state.
func finishAndCheckConvergence(t *testing.T, cl *cluster, behind uint64) {
	t.Helper()
	extra := &testClient{id: 99, n: 3, f: 1, ops: toOps(opScript(30))}
	cl.net.AttachConfig(99, extra, simnet.NodeConfig{})
	cl.net.Run(60 * time.Second)
	if !extra.done {
		t.Fatalf("extra client stalled: %d/30", extra.current)
	}

	r2 := cl.replicas[2].core
	if got, want := r2.View(), cl.replicas[0].core.View(); got != want {
		t.Errorf("replica 2 finished in view %d, cluster in view %d: joiner never adopted the current view", got, want)
	}
	if r2.LastExecuted() <= behind {
		t.Errorf("replica 2 did not catch up: %d -> %d", behind, r2.LastExecuted())
	}
	if got, want := r2.LastExecuted(), cl.replicas[0].core.LastExecuted(); got != want {
		t.Errorf("replica 2 executed to %d, cluster to %d", got, want)
	}
	if !bytes.Equal(cl.apps[1].Snapshot(), cl.apps[2].Snapshot()) {
		t.Error("replica 2 state diverged after catch-up")
	}
}

// TestJoinerAdoptsViewFromStatePrefix forces the prefix path: every NEW-VIEW
// message toward replica 2 is dropped (so neither the original broadcast nor
// a solicitation answer can reach it), leaving the copy embedded in the
// state-transfer prefix as its only evidence of the view change.
func TestJoinerAdoptsViewFromStatePrefix(t *testing.T) {
	cl := newCluster(t, 3, nil, opScript(40)...)
	cl.net.SetFault(judgeFunc(func(_ time.Duration, _, to msg.NodeID, kind msg.Kind) faultplane.Decision {
		if kind == msg.KindNewView && to == 2 {
			return faultplane.Decision{Drop: true}
		}
		return faultplane.Decision{}
	}))

	behind := runViewChangeWhileDown(t, cl)
	finishAndCheckConvergence(t, cl, behind)

	// With every other NEW-VIEW route severed, an adoption can only have come
	// from the copy embedded in the StatePrefix. Whether the prefix also
	// carried in-flight entries depends on where the checkpoint boundary fell
	// when the transfer was served; the entry-replay path itself is pinned
	// deterministically by TestPrefixReplayAfterViewAdoption below.
	if m := cl.replicas[2].core.Metrics(); m.ViewAdoptions == 0 {
		t.Error("replica 2 installed no view from the state-transfer prefix")
	}
}

// TestStaleReplicaSolicitsNewView forces the solicitation path: every
// StatePrefix toward replica 2 is dropped (no prefix, no embedded NEW-VIEW),
// so the only way it can learn the view is deferring the cluster's live
// higher-view traffic, soliciting with NewViewRequest, and verifying the
// relayed answer.
func TestStaleReplicaSolicitsNewView(t *testing.T) {
	cl := newCluster(t, 3, nil, opScript(40)...)
	cl.net.SetFault(judgeFunc(func(_ time.Duration, _, to msg.NodeID, kind msg.Kind) faultplane.Decision {
		if kind == msg.KindStatePrefix && to == 2 {
			return faultplane.Decision{Drop: true}
		}
		return faultplane.Decision{}
	}))

	behind := runViewChangeWhileDown(t, cl)
	finishAndCheckConvergence(t, cl, behind)

	m := cl.replicas[2].core.Metrics()
	if m.ViewSolicits == 0 {
		t.Error("replica 2 deferred higher-view traffic without soliciting the NEW-VIEW")
	}
	if m.ViewAdoptions == 0 {
		t.Error("replica 2 installed no view from relayed evidence")
	}
	if relays := cl.replicas[0].core.Metrics().NewViewRelays + cl.replicas[1].core.Metrics().NewViewRelays; relays == 0 {
		t.Error("no peer answered the solicitation")
	}
}

// captureEnv satisfies node.Env and records outbound envelopes, by value as
// Send copies them, for manual delivery, so the exact interleaving around a
// replica that sleeps through a view change can be scripted without a
// simulated network.
type captureEnv struct {
	id  msg.NodeID
	out []msg.Envelope
}

func (e *captureEnv) Self() msg.NodeID                          { return e.id }
func (e *captureEnv) Now() time.Duration                        { return 0 }
func (e *captureEnv) Send(ev *msg.Envelope)                     { e.out = append(e.out, *ev) }
func (e *captureEnv) SetTimer(time.Duration, node.TimerKey)     {}
func (e *captureEnv) CancelTimer(node.TimerKey)                 {}
func (e *captureEnv) Rand() *rand.Rand                          { return rand.New(rand.NewSource(1)) }
func (e *captureEnv) Charge(node.Profile, node.ChargeKind, int) {}
func (e *captureEnv) Logf(string, ...any)                       {}

// shuttleNet moves captured envelopes between standalone cores in node-id
// order until the system quiesces. Traffic addressed to a node not in live is
// stashed, modeling a crashed replica whose inbound queue drains later.
type shuttleNet struct {
	ids      []msg.NodeID
	replicas map[msg.NodeID]*testReplica
	envs     map[msg.NodeID]*captureEnv
	live     map[msg.NodeID]bool
	stash    []msg.Envelope
}

func newShuttleNet(chunkSize, window int, ids ...msg.NodeID) *shuttleNet {
	n := &shuttleNet{
		ids:      ids,
		replicas: make(map[msg.NodeID]*testReplica),
		envs:     make(map[msg.NodeID]*captureEnv),
		live:     make(map[msg.NodeID]bool),
	}
	for _, id := range ids {
		n.replicas[id] = newStateCore(id, chunkSize, window)
		n.envs[id] = &captureEnv{id: id}
		n.live[id] = true
	}
	return n
}

func (n *shuttleNet) run() {
	for {
		moved := false
		for _, id := range n.ids {
			pending := n.envs[id].out
			n.envs[id].out = nil
			for _, ev := range pending {
				if !n.live[ev.To] {
					n.stash = append(n.stash, ev)
					continue
				}
				if r, ok := n.replicas[ev.To]; ok {
					moved = true
					r.OnEnvelope(n.envs[ev.To], &ev)
				}
			}
		}
		if !moved {
			return
		}
	}
}

// TestPrefixReplayAfterViewAdoption pins the entry-replay half of prefix
// adoption deterministically: a real view change runs between replicas 0 and 1
// while replica 2 sleeps, the new leader orders past a checkpoint boundary
// leaving one prepared entry above it, and replica 2 then wakes hearing only
// checkpoint gossip. Its state fetch must install the checkpoint, adopt view 1
// from the NEW-VIEW certificate embedded in the prefix, verify the carried
// entry against the leader's counter certificate, and execute it — landing on
// the exact application state of the survivors.
func TestPrefixReplayAfterViewAdoption(t *testing.T) {
	const chunkSize, window = 32, 4
	net := newShuttleNet(chunkSize, window, 0, 1, 2)
	net.live[2] = false
	r0, r1, r2 := net.replicas[0], net.replicas[1], net.replicas[2]

	// A certified view change replica 2 never sees.
	r0.core.startViewChange(net.envs[0], 1)
	r1.core.startViewChange(net.envs[1], 1)
	net.run()
	if v0, v1 := r0.core.View(), r1.core.View(); v0 != 1 || v1 != 1 {
		t.Fatalf("view change did not install: views %d, %d", v0, v1)
	}

	// The view-1 leader orders nine entries: checkpoint stabilizes at 8,
	// entry 9 stays above it as the certified prefix a fetcher must replay.
	for i := 1; i <= 9; i++ {
		r1.core.Submit(net.envs[1], &msg.OrderRequest{
			Origin: -1, Client: 7, ClientSeq: uint64(i),
			Op: []byte(fmt.Sprintf("PUT key-%02d value-%02d", i, i)),
		})
		net.run()
	}
	if got := r0.core.LastExecuted(); got != 9 {
		t.Fatalf("survivors executed to %d, want 9", got)
	}
	if r0.core.stableSeq != 8 || r1.core.stableSeq != 8 {
		t.Fatalf("stable checkpoint at %d/%d, want 8", r0.core.stableSeq, r1.core.stableSeq)
	}

	// Replica 2 wakes hearing only the checkpoint gossip from its sleep —
	// crucially not the NEW-VIEW broadcast — so the prefix is its only
	// evidence of the view change.
	net.live[2] = true
	for _, ev := range net.stash {
		if ev.To == 2 && ev.Kind == msg.KindCheckpoint {
			r2.OnEnvelope(net.envs[2], &ev)
		}
	}
	net.stash = nil
	net.run()

	m := r2.core.Metrics()
	if got := r2.core.View(); got != 1 {
		t.Fatalf("replica 2 in view %d after fetch, want 1 (metrics %+v)", got, m)
	}
	if m.ViewAdoptions != 1 {
		t.Errorf("ViewAdoptions = %d, want 1", m.ViewAdoptions)
	}
	if m.PrefixEntriesInstalled != 1 || m.PrefixResumes != 1 {
		t.Errorf("prefix replay: entries %d, resumes %d, want 1/1",
			m.PrefixEntriesInstalled, m.PrefixResumes)
	}
	if got := r2.core.LastExecuted(); got != 9 {
		t.Errorf("replica 2 executed to %d, want 9 (prefix entry not replayed)", got)
	}
	if !bytes.Equal(r2.core.cfg.App.(*app.Store).Snapshot(), r0.core.cfg.App.(*app.Store).Snapshot()) {
		t.Error("replica 2 state diverged from the survivors")
	}
}

// TestDeferredPrepareAndCommitReplayWhenTheViewInstalls: a follower still in
// view 0 hears view 1's PREPARE and one COMMIT before the NEW-VIEW that
// installs view 1, and defers both. Installing the view replays them, and the
// entry commits and executes with no further message. With five replicas the
// quorum is three vouchers — the leader's PREPARE, the follower's own COMMIT
// and the deferred one — so the entry executes only if the deferred COMMIT is
// replayed, not dropped.
func TestDeferredPrepareAndCommitReplayWhenTheViewInstalls(t *testing.T) {
	ids := []msg.NodeID{0, 1, 2, 3, 4}
	net := &shuttleNet{ids: ids, replicas: map[msg.NodeID]*testReplica{}, envs: map[msg.NodeID]*captureEnv{}, live: map[msg.NodeID]bool{}}
	for _, id := range ids {
		sub := tcounter.NewSubsystem(id)
		sub.SetKey([]byte("test-counter-key"))
		r := &testReplica{id: id}
		r.core = New(Config{Self: id, N: 5, F: 2, ViewChangeTimeout: time.Second, Profile: node.ProfileJava,
			Authority: tcounter.Direct{S: sub}, App: app.NewStore()}, r)
		net.replicas[id], net.envs[id], net.live[id] = r, &captureEnv{id: id}, true
	}
	net.live[4] = false
	for _, id := range []msg.NodeID{0, 2, 3} {
		net.replicas[id].core.startViewChange(net.envs[id], 1)
	}
	net.run()
	net.replicas[1].core.Submit(net.envs[1], &msg.OrderRequest{Origin: -1, Client: 7, ClientSeq: 1, Op: []byte("PUT k v")})
	net.run()
	if v, done := net.replicas[0].core.View(), net.replicas[0].core.LastExecuted(); v != 1 || done != 1 {
		t.Fatalf("the awake replicas are in view %d and executed to %d, want view 1 and entry 1", v, done)
	}

	first := map[msg.Kind]*msg.Envelope{}
	for i, ev := range net.stash {
		if _, seen := first[ev.Kind]; ev.To == 4 && !seen {
			first[ev.Kind] = &net.stash[i]
		}
	}
	r4, env := net.replicas[4], net.envs[4]
	for _, k := range []msg.Kind{msg.KindPrepare, msg.KindCommit} {
		if first[k] == nil {
			t.Fatalf("no %s of view 1 was sent to replica 4", k)
		}
		r4.OnEnvelope(env, first[k])
	}
	if r4.core.View() != 0 || r4.core.LastExecuted() != 0 || len(r4.core.deferred) != 2 {
		t.Fatalf("replica 4 in view %d, executed to %d, %d messages deferred: want view 0, nothing executed, 2 deferred",
			r4.core.View(), r4.core.LastExecuted(), len(r4.core.deferred))
	}
	r4.OnEnvelope(env, first[msg.KindNewView])
	if r4.core.View() != 1 || r4.core.LastExecuted() != 1 {
		t.Errorf("after the NEW-VIEW replica 4 is in view %d and executed to %d; want view 1 and entry 1",
			r4.core.View(), r4.core.LastExecuted())
	}
}
