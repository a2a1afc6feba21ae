package hybster

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/tcounter"
)

// specEvent records one Speculated or Retracted callback.
type specEvent struct {
	view, seq         uint64
	client, clientSeq uint64
	digest            msg.Digest
	cert              msg.CounterCert
	result            string
}

// specTestReplica extends the minimal host with the SpecOutbound callbacks,
// so a core-level test can observe speculations and retractions directly.
type specTestReplica struct {
	*testReplica
	specs    []specEvent
	retracts []specEvent
}

func (r *specTestReplica) Speculated(_ node.Env, view, seq uint64, batchDigest msg.Digest, req *msg.OrderRequest, result []byte, cert msg.CounterCert) {
	r.specs = append(r.specs, specEvent{
		view: view, seq: seq, client: req.Client, clientSeq: req.ClientSeq,
		digest: batchDigest, cert: cert, result: string(result),
	})
}

func (r *specTestReplica) Retracted(_ node.Env, seq uint64, req *msg.OrderRequest, view uint64) {
	r.retracts = append(r.retracts, specEvent{
		view: view, seq: seq, client: req.Client, clientSeq: req.ClientSeq,
	})
}

// specShuttle is a shuttleNet over spec-enabled cores; spec holds its replicas
// with what they speculated and retracted.
type specShuttle struct {
	*shuttleNet
	spec map[msg.NodeID]*specTestReplica
}

func newSpecShuttle(ids ...msg.NodeID) *specShuttle {
	n := &specShuttle{spec: map[msg.NodeID]*specTestReplica{}, shuttleNet: &shuttleNet{ids: ids,
		replicas: map[msg.NodeID]*testReplica{}, envs: map[msg.NodeID]*captureEnv{}, live: map[msg.NodeID]bool{}}}
	for _, id := range ids {
		sub := tcounter.NewSubsystem(id)
		sub.SetKey([]byte("test-counter-key"))
		r := &specTestReplica{testReplica: &testReplica{id: id}}
		r.core = New(Config{
			Self:               id,
			N:                  3,
			F:                  1,
			CheckpointInterval: 8,
			ViewChangeTimeout:  time.Second,
			Profile:            node.ProfileJava,
			Authority:          tcounter.Direct{S: sub},
			App:                app.NewStore(),
			Speculate:          true,
			SnapshotChunkSize:  32,
			StateChunkWindow:   4,
		}, r)
		n.spec[id], n.replicas[id], n.envs[id], n.live[id] = r, r.testReplica, &captureEnv{id: id}, true
	}
	return n
}

// changeViewWithoutLeader has followers 1 and 2 install view 1 while the
// view-0 leader sleeps, then wakes the leader on the NEW-VIEW alone and
// returns the rest of what it slept through.
func (n *specShuttle) changeViewWithoutLeader(t *testing.T) []msg.Envelope {
	t.Helper()
	n.live[0] = false
	n.live[1], n.live[2] = true, true
	n.spec[1].core.startViewChange(n.envs[1], 1)
	n.spec[2].core.startViewChange(n.envs[2], 1)
	n.run()
	if v1, v2 := n.spec[1].core.View(), n.spec[2].core.View(); v1 != 1 || v2 != 1 {
		t.Fatalf("view change did not install at the followers: views %d, %d", v1, v2)
	}
	n.live[0] = true
	backlog := n.stash
	n.stash = nil
	for _, ev := range backlog {
		if ev.To == 0 && ev.Kind == msg.KindNewView {
			n.spec[0].OnEnvelope(n.envs[0], &ev)
		}
	}
	return backlog
}

func (r *specTestReplica) findSpec(client, clientSeq uint64) *specEvent {
	for i := range r.specs {
		if r.specs[i].client == client && r.specs[i].clientSeq == clientSeq {
			return &r.specs[i]
		}
	}
	return nil
}

func (r *specTestReplica) executions(client, clientSeq uint64) []execRecord {
	var out []execRecord
	for _, e := range r.executed {
		if e.client == client && e.clientSeq == clientSeq {
			out = append(out, e)
		}
	}
	return out
}

// TestSpeculationRollbackOnViewChange is the deterministic message-shuttle
// choreography for counter-certified rollback:
//
//  1. a fast-commit request settles durably in view 0 (speculated, then
//     confirmed — never retracted);
//  2. the leader speculates a second fast-commit request whose PREPARE never
//     reaches the followers, answering from the shadow at a slot only it
//     knows about;
//  3. the followers change view while the leader sleeps, so the certified
//     prefix of view 1 provably excludes the speculated slot;
//  4. the woken leader adopts the NEW-VIEW: it must roll the shadow back to
//     the durable prefix, retract exactly the lost speculation, and leave
//     the durable tier untouched;
//  5. adoption re-forwards the lost request to the new leader, whose durable
//     re-execution repairs the history exactly once, and every replica (and
//     the shadow) converges.
func TestSpeculationRollbackOnViewChange(t *testing.T) {
	net := newSpecShuttle(0, 1, 2)
	r0, r1, r2 := net.spec[0], net.spec[1], net.spec[2]
	env0, env1 := net.envs[0], net.envs[1]

	// (1) Durable traffic plus one fast-commit request that settles normally.
	for i := uint64(1); i <= 3; i++ {
		r0.core.Submit(env0, &msg.OrderRequest{
			Origin: 0, Client: 7, ClientSeq: i,
			Op: []byte(fmt.Sprintf("PUT key-%02d value-%02d", i, i)),
		})
		net.run()
	}
	r0.core.Submit(env0, &msg.OrderRequest{
		Origin: 0, Client: 7, ClientSeq: 4, Flags: msg.FlagFastCommit,
		Op: []byte("PUT key-settled value-settled"),
	})
	net.run()
	if got := r0.core.LastExecuted(); got != 4 {
		t.Fatalf("prime phase executed to %d, want 4", got)
	}

	// Every replica speculated the fast request: the leader at proposal time
	// (vouching with its PREPARE certificate), the followers at PREPARE
	// acceptance (vouching with their COMMIT certificates) — and the fast
	// answer must never lag the durable one (specExec >= LastExecuted).
	for id, r := range net.spec {
		ev := r.findSpec(7, 4)
		if ev == nil {
			t.Fatalf("replica %d never speculated the fast request", id)
		}
		if ev.result != "OK" {
			t.Fatalf("replica %d speculated %q, want OK", id, ev.result)
		}
		m := r.core.Metrics()
		if m.SpecConfirmed != 1 || m.SpecRetractions != 0 {
			t.Fatalf("replica %d settle metrics: %+v", id, m)
		}
		if r.core.specExec < r.core.LastExecuted() {
			t.Fatalf("replica %d spec frontier %d behind durable %d",
				id, r.core.specExec, r.core.LastExecuted())
		}
	}

	// The certificates carried by those speculations verify exactly as an
	// origin replica would check an incoming SpecReply — and a tampered
	// batch digest is rejected and attributed.
	lev := r0.findSpec(7, 4)
	sr := &msg.SpecReply{
		Executor: 0, View: lev.view, Seq: lev.seq, BatchDigest: lev.digest,
		Client: 7, ClientSeq: 4, Result: []byte(lev.result), Cert: lev.cert,
	}
	if !r1.core.VerifySpecReply(env1, 0, sr) {
		t.Fatal("leader's prepare-bound spec certificate did not verify")
	}
	fev := r1.findSpec(7, 4)
	fsr := &msg.SpecReply{
		Executor: 1, View: fev.view, Seq: fev.seq, BatchDigest: fev.digest,
		Client: 7, ClientSeq: 4, Result: []byte(fev.result), Cert: fev.cert,
	}
	if !r2.core.VerifySpecReply(net.envs[2], 1, fsr) {
		t.Fatal("follower's commit-bound spec certificate did not verify")
	}
	tampered := *sr
	tampered.BatchDigest[0] ^= 0x01
	before := r1.core.RejectedCertsFrom(0)
	if r1.core.VerifySpecReply(env1, 0, &tampered) {
		t.Fatal("tampered spec reply verified")
	}
	if got := r1.core.RejectedCertsFrom(0); got != before+1 {
		t.Fatalf("tampering not attributed: RejectedCertsFrom = %d, want %d", got, before+1)
	}

	// (2) The doomed speculation: followers sleep, so the PREPARE for slot 5
	// exists only at the leader — which still answers fast from the shadow.
	net.live[1], net.live[2] = false, false
	r0.core.Submit(env0, &msg.OrderRequest{
		Origin: 0, Client: 7, ClientSeq: 5, Flags: msg.FlagFastCommit,
		Op: []byte("PUT key-lost value-lost"),
	})
	net.run()
	if ev := r0.findSpec(7, 5); ev == nil {
		t.Fatal("leader did not speculate the doomed request")
	}
	if f, d := r0.core.specExec, r0.core.LastExecuted(); f != 5 || d != 4 {
		t.Fatalf("leader frontier/durable = %d/%d, want 5/4", f, d)
	}
	net.stash = nil // the PREPAREs are lost for good

	// (3) The followers change view while the leader sleeps: view 1's
	// certified prefix is built from their VIEW-CHANGE messages alone and
	// cannot contain slot 5.
	//
	// (4) The leader wakes on the NEW-VIEW and must adopt it, roll back, and
	// retract exactly the lost speculation. The rest of its sleep backlog
	// (view-1 re-proposal PREPAREs and COMMITs) is replayed afterwards: the
	// retraction must come from the NEW-VIEW adoption itself, not from
	// comparing re-proposals.
	backlog := net.changeViewWithoutLeader(t)
	if got := r0.core.View(); got != 1 {
		t.Fatalf("old leader in view %d after NEW-VIEW, want 1", got)
	}
	if len(r0.retracts) != 1 {
		t.Fatalf("retractions after NEW-VIEW adoption = %d, want exactly 1: %+v", len(r0.retracts), r0.retracts)
	}
	ret := r0.retracts[0]
	if ret.client != 7 || ret.clientSeq != 5 || ret.seq != 5 || ret.view != 0 {
		t.Fatalf("wrong retraction: %+v", ret)
	}
	m := r0.core.Metrics()
	if m.SpecRollbacks == 0 {
		t.Error("no shadow rollback recorded")
	}
	if m.SpecRetractions != 1 {
		t.Errorf("SpecRetractions = %d, want 1", m.SpecRetractions)
	}
	if m.SpecDivergences != 0 {
		t.Errorf("SpecDivergences = %d, want 0 (rollback is not divergence)", m.SpecDivergences)
	}
	if f, d := r0.core.specExec, r0.core.LastExecuted(); f != d || d != 4 {
		t.Fatalf("shadow not rewound to the certified prefix: frontier/durable = %d/%d, want 4/4", f, d)
	}

	// (5) Repair. Adoption already re-forwarded the locally-submitted request
	// to the new leader (pendingLocal re-drive); replaying the sleep backlog
	// restores counter continuity for the view-1 re-proposals, and the retry
	// must execute exactly once. A read through the new leader then observes
	// the repaired write.
	for _, ev := range backlog {
		if ev.To == 0 && ev.Kind != msg.KindNewView {
			r0.OnEnvelope(env0, &ev)
		}
	}
	net.run()
	r1.core.Submit(env1, &msg.OrderRequest{
		Origin: 1, Client: 8, ClientSeq: 1,
		Op: []byte("GET key-lost"),
	})
	net.run()

	for id, r := range net.spec {
		if got := r.core.LastExecuted(); got != 6 {
			t.Fatalf("replica %d executed to %d, want 6", id, got)
		}
		if execs := r.executions(7, 5); len(execs) != 1 {
			t.Fatalf("replica %d executed the retried request %d times: %+v", id, len(execs), execs)
		}
		if reads := r.executions(8, 1); len(reads) != 1 || reads[0].result != "VALUE value-lost" {
			t.Fatalf("replica %d read-back = %+v, want VALUE value-lost", id, reads)
		}
	}

	// Convergence, shadow included: after the rollback re-anchored it, the
	// shadow tracked the durable history straight through the repair.
	durable0 := r0.core.cfg.App.(*app.Store).Snapshot()
	for id, r := range net.replicas {
		if !bytes.Equal(r.core.cfg.App.(*app.Store).Snapshot(), durable0) {
			t.Errorf("replica %d durable state diverged", id)
		}
		if !bytes.Equal(r.core.shadow.Snapshot(), r.core.cfg.App.(*app.Store).Snapshot()) {
			t.Errorf("replica %d shadow diverged from its durable state", id)
		}
	}
}

// TestSpeculationRollbackRetractsInClientOrder dooms the leader's fast
// answers to sixteen clients at once: the rollback must retract them in
// (client, clientSeq) order, the one order every replica agrees on, whatever
// order they were submitted in.
func TestSpeculationRollbackRetractsInClientOrder(t *testing.T) {
	net := newSpecShuttle(0, 1, 2)
	r0, env0 := net.spec[0], net.envs[0]
	const doomed = 16

	// The followers sleep, so every PREPARE exists only at the leader.
	net.live[1], net.live[2] = false, false
	for i := uint64(0); i < doomed; i++ {
		r0.core.Submit(env0, &msg.OrderRequest{
			Origin: 0, Client: 100 + i*7%doomed, ClientSeq: 1, Flags: msg.FlagFastCommit,
			Op: []byte(fmt.Sprintf("PUT key-%02d value-%02d", i, i)),
		})
	}
	net.run()
	if len(r0.specs) != doomed {
		t.Fatalf("leader speculated %d requests, want %d", len(r0.specs), doomed)
	}
	net.stash = nil // the PREPAREs are lost for good

	net.changeViewWithoutLeader(t)
	if got := r0.core.View(); got != 1 {
		t.Fatalf("old leader in view %d after NEW-VIEW, want 1", got)
	}
	if len(r0.retracts) != doomed {
		t.Fatalf("retractions = %d, want %d: %+v", len(r0.retracts), doomed, r0.retracts)
	}
	for i, ret := range r0.retracts {
		if ret.client != 100+uint64(i) || ret.clientSeq != 1 {
			t.Fatalf("retraction %d is (client %d, seq %d), want (client %d, seq 1): %+v",
				i, ret.client, ret.clientSeq, 100+i, r0.retracts)
		}
	}
}
