package hybster

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/faultplane"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/realnet"
	"github.com/troxy-bft/troxy/internal/simnet"
	"github.com/troxy-bft/troxy/internal/tcounter"
)

// pipelineFollower builds a stand-alone follower core (Self=1 of N=3) with
// the given pipeline depth, plus a counter subsystem playing the view-0
// leader so tests can hand it certified PREPAREs in any order.
func pipelineFollower(t *testing.T, depth int) (*testReplica, *tcounter.Subsystem) {
	t.Helper()
	leaderSub := tcounter.NewSubsystem(0)
	leaderSub.SetKey([]byte("test-counter-key"))
	sub := tcounter.NewSubsystem(1)
	sub.SetKey([]byte("test-counter-key"))
	r := &testReplica{id: 1}
	r.core = New(Config{
		Self:               1,
		N:                  3,
		F:                  1,
		CheckpointInterval: 1 << 30,
		ViewChangeTimeout:  time.Minute,
		Authority:          tcounter.Direct{S: sub},
		App:                app.NewStore(),
		PipelineDepth:      depth,
	}, r)
	return r, leaderSub
}

// leaderPrepare certifies a single-request batch at seq with the leader's
// lane counter, exactly as proposeBatch would.
func leaderPrepare(t *testing.T, sub *tcounter.Subsystem, depth int, seq uint64) *msg.Prepare {
	t.Helper()
	batch := msg.Batch{Reqs: []msg.OrderRequest{{
		Origin: 3, Client: 7, ClientSeq: seq,
		Op: []byte(fmt.Sprintf("PUT k%d v%d", seq, seq)),
	}}}
	counter := tcounter.OrderLaneCounter(0, tcounter.LaneOf(seq, depth), depth)
	cert, err := sub.Certify(counter, seq, prepareDigest(0, seq, batch.Digest()))
	if err != nil {
		t.Fatalf("certify prepare seq %d: %v", seq, err)
	}
	return &msg.Prepare{View: 0, Seq: seq, Batch: batch, Cert: cert}
}

// TestOutOfOrderPrepareCommitsInOrder is the core pipelining property on the
// follower side: PREPAREs for different lanes are accepted and voted on in
// any arrival order, but the commit queue applies them strictly in sequence
// order. With N=3 a follower commits an entry from the leader's PREPARE plus
// its own COMMIT, so acceptance alone drives the whole path.
func TestOutOfOrderPrepareCommitsInOrder(t *testing.T) {
	const depth = 4
	r, leaderSub := pipelineFollower(t, depth)
	var env fakeEnv

	// Deliver the window out of order: 2 and 3 commit but must not apply
	// while seq 1 — the stalled batch — is missing.
	r.core.OnPrepare(&env, 0, leaderPrepare(t, leaderSub, depth, 2))
	r.core.OnPrepare(&env, 0, leaderPrepare(t, leaderSub, depth, 3))
	if got := r.core.LastExecuted(); got != 0 {
		t.Fatalf("executed up to %d before the gap at seq 1 was filled", got)
	}
	if m := r.core.Metrics(); m.Committed != 2 {
		t.Fatalf("Committed = %d after two out-of-order prepares, want 2", m.Committed)
	}

	// The gap fills: everything applies, in order.
	r.core.OnPrepare(&env, 0, leaderPrepare(t, leaderSub, depth, 1))
	r.core.OnPrepare(&env, 0, leaderPrepare(t, leaderSub, depth, 4))
	if got := r.core.LastExecuted(); got != 4 {
		t.Fatalf("executed up to %d, want 4", got)
	}
	for i, rec := range r.executed {
		if rec.seq != uint64(i+1) {
			t.Errorf("execution %d at seq %d: application left sequence order", i, rec.seq)
		}
	}
	m := r.core.Metrics()
	if m.OutOfOrderPrepares == 0 {
		t.Error("OutOfOrderPrepares = 0 after accepting seq 1 below seq 3")
	}
	if m.Executed != 4 {
		t.Errorf("Executed = %d, want 4", m.Executed)
	}
}

// TestPrepareAheadOfLaneWaits checks per-lane continuity: a PREPARE one full
// lane round ahead (seq 1+depth on seq 1's lane) must wait for its lane
// predecessor even though the window has moved past other lanes.
func TestPrepareAheadOfLaneWaits(t *testing.T) {
	const depth = 2
	r, leaderSub := pipelineFollower(t, depth)
	var env fakeEnv

	p1 := leaderPrepare(t, leaderSub, depth, 1)
	p3 := leaderPrepare(t, leaderSub, depth, 3) // same lane as 1
	r.core.OnPrepare(&env, 0, p3)
	if m := r.core.Metrics(); m.Committed != 0 {
		t.Fatalf("lane-skipping prepare committed (%d)", m.Committed)
	}
	r.core.OnPrepare(&env, 0, p1)
	if got := r.core.LastExecuted(); got != 1 {
		t.Fatalf("executed up to %d, want 1 (seq 2 still missing)", got)
	}
	r.core.OnPrepare(&env, 0, leaderPrepare(t, leaderSub, depth, 2))
	if got := r.core.LastExecuted(); got != 3 {
		t.Fatalf("executed up to %d, want 3", got)
	}
}

// TestVouchersAreBoundedByTheGroup: an entry keeps its vouchers as one bit a
// replica, so a core refuses a group of more than 64, and a COMMIT from a
// node that is no replica of the group — its certificate genuine, made by a
// counter subsystem under the group's key — is unverified and vouches for
// nothing.
func TestVouchersAreBoundedByTheGroup(t *testing.T) {
	t.Run("group of 65", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("New accepted a group of 65 replicas")
			}
		}()
		New(Config{N: 65, F: 32, Authority: tcounter.Direct{S: tcounter.NewSubsystem(0)}, App: app.NewStore()}, &prepareCollector{})
	})
	t.Run("commit from beyond the group", func(t *testing.T) {
		const depth = 2
		var env fakeEnv
		key := func(owner msg.NodeID) *tcounter.Subsystem {
			s := tcounter.NewSubsystem(owner)
			s.SetKey([]byte("test-counter-key"))
			return s
		}
		out := &prepareCollector{}
		core := New(Config{
			Self: 0, N: 3, F: 1,
			CheckpointInterval: 1 << 30,
			ViewChangeTimeout:  time.Minute,
			Authority:          tcounter.Direct{S: key(0)},
			App:                app.NewStore(),
			PipelineDepth:      depth,
		}, out)
		core.Submit(&env, &msg.OrderRequest{Origin: 3, Client: 7, ClientSeq: 1, Op: []byte("PUT k v")})
		if len(out.preps) != 1 {
			t.Fatalf("leader disseminated %d PREPAREs, want 1", len(out.preps))
		}
		for _, from := range []msg.NodeID{3, 64} {
			core.OnCommit(&env, from, followerCommit(t, key(from), depth, out.preps[0]))
		}
		if m := core.Metrics(); m.UnverifiedCerts != 2 || m.RejectedCerts != 0 {
			t.Errorf("after COMMITs from nodes 3 and 64: UnverifiedCerts %d, RejectedCerts %d, want 2 and 0",
				m.UnverifiedCerts, m.RejectedCerts)
		}
		if e := core.log[1]; e.vouchers != 1 || core.LastExecuted() != 0 {
			t.Errorf("vouchers %b, executed to %d: want the leader's bit alone, and nothing executed", e.vouchers, core.LastExecuted())
		}
		e := core.log[1]
		e.vouch(3, 3)
		e.vouch(64, 3)
		e.vouch(-1, 3)
		if e.vouchers != 1 {
			t.Errorf("vouching for nodes 3, 64 and -1 of a group of 3 set bits %b", e.vouchers)
		}
	})
}

// followerCommit certifies a COMMIT for the given prepare from follower
// replica 1, as acceptPrepare would.
func followerCommit(t *testing.T, sub *tcounter.Subsystem, depth int, prep *msg.Prepare) *msg.Commit {
	t.Helper()
	batchDigest := prep.Batch.Digest()
	counter := tcounter.OrderLaneCounter(0, tcounter.LaneOf(prep.Seq, depth), depth)
	cert, err := sub.Certify(counter, prep.Seq, commitDigest(0, prep.Seq, batchDigest))
	if err != nil {
		t.Fatalf("certify commit seq %d: %v", prep.Seq, err)
	}
	return &msg.Commit{View: 0, Seq: prep.Seq, BatchDigest: batchDigest, Cert: cert}
}

// prepareCollector records the PREPAREs a leader core broadcasts.
type prepareCollector struct {
	preps []*msg.Prepare
}

func (p *prepareCollector) Send(_ node.Env, to msg.NodeID, m msg.Message) {
	if prep, ok := m.(*msg.Prepare); ok && to == 1 {
		p.preps = append(p.preps, prep)
	}
}
func (p *prepareCollector) Committed(node.Env, uint64, *msg.OrderRequest, []byte, []string, bool, bool) {
}

// TestWindowBackpressureAndRelease drives a stand-alone leader: with
// PipelineDepth 3 it may disseminate seqs 1..3 concurrently, then the window
// is full and further due requests must wait (backpressure, WindowStalls).
// Commits arriving out of order commit batches but apply nothing until the
// stalled head arrives; once the low mark advances, the window releases and
// the held-back requests are proposed.
func TestWindowBackpressureAndRelease(t *testing.T) {
	const depth = 3
	leadSub := tcounter.NewSubsystem(0)
	leadSub.SetKey([]byte("test-counter-key"))
	followSub := tcounter.NewSubsystem(1)
	followSub.SetKey([]byte("test-counter-key"))
	out := &prepareCollector{}
	core := New(Config{
		Self:               0,
		N:                  3,
		F:                  1,
		CheckpointInterval: 1 << 30,
		ViewChangeTimeout:  time.Minute,
		Authority:          tcounter.Direct{S: leadSub},
		App:                app.NewStore(),
		PipelineDepth:      depth,
	}, out)
	var env fakeEnv

	for i := 1; i <= 6; i++ {
		core.Submit(&env, &msg.OrderRequest{
			Origin: 3, Client: 7, ClientSeq: uint64(i),
			Op: []byte(fmt.Sprintf("PUT k%d v%d", i, i)),
		})
	}
	// The first depth batches are in flight; the rest wait on the window.
	m := core.Metrics()
	if m.Batches != depth {
		t.Fatalf("Batches = %d with a full window, want %d", m.Batches, depth)
	}
	if len(out.preps) != depth {
		t.Fatalf("disseminated %d PREPAREs, want %d", len(out.preps), depth)
	}
	if m.WindowStalls == 0 {
		t.Error("WindowStalls = 0 although requests 4..6 had to wait")
	}
	if got := core.LastExecuted(); got != 0 {
		t.Fatalf("executed up to %d with no commits, want 0", got)
	}

	// Out-of-order commits: seqs 2 and 3 reach quorum (leader + replica 1)
	// but seq 1 — the stalled batch — blocks application and the window.
	r1Commits := make([]*msg.Commit, 0, depth)
	for _, prep := range out.preps {
		r1Commits = append(r1Commits, followerCommit(t, followSub, depth, prep))
	}
	core.OnCommit(&env, 1, r1Commits[1])
	core.OnCommit(&env, 1, r1Commits[2])
	if got := core.LastExecuted(); got != 0 {
		t.Fatalf("executed up to %d while seq 1 stalled, want 0", got)
	}
	if m := core.Metrics(); m.Batches != depth {
		t.Fatalf("window released without the low mark advancing: %d batches", m.Batches)
	}

	// The stalled head commits: seqs 1..3 apply in order, the window slides,
	// and the pump proposes the held-back requests 4..6.
	core.OnCommit(&env, 1, r1Commits[0])
	if got := core.LastExecuted(); got != depth {
		t.Fatalf("executed up to %d after the head committed, want %d", got, depth)
	}
	if m := core.Metrics(); m.Batches != 6 {
		t.Errorf("Batches = %d after window release, want 6", m.Batches)
	}
	if len(out.preps) != 6 {
		t.Errorf("disseminated %d PREPAREs after release, want 6", len(out.preps))
	}
	for i, prep := range out.preps {
		if prep.Seq != uint64(i+1) {
			t.Errorf("PREPARE %d carries seq %d: leader proposals left sequence order", i, prep.Seq)
		}
	}
}

// pipelinedInFlight returns how many prepared-but-unapplied entries the
// replica holds above its stable checkpoint.
func pipelinedInFlight(c *Core) int {
	n := 0
	for seq, e := range c.log {
		if seq > c.stableSeq && e.hasPrep && !e.executed {
			n++
		}
	}
	return n
}

// TestViewChangeReproposesPartialWindow crashes the leader while a follower
// holds several in-flight batches of a pipelined window (some applied, some
// not). The view change must re-propose every in-flight batch exactly once:
// each request lands at exactly one sequence number of the final history, no
// client stalls, and the surviving replicas converge.
func TestViewChangeReproposesPartialWindow(t *testing.T) {
	cl := newCluster(t, 3, func(c *Config) {
		c.PipelineDepth = 4
		c.BatchSize = 2
		c.BatchDelay = 10 * time.Millisecond
	}, opScript(8)...)
	// Flood clients keep the leader's window full (serial clients never have
	// enough outstanding batches for the window to matter).
	floods := make([]*countClient, 2)
	for i := range floods {
		floods[i] = newCountClient(msg.NodeID(40+i), 3, 1, 20)
		cl.net.AttachConfig(floods[i].id, floods[i], simnet.NodeConfig{})
	}
	// Jitter on the leader's outgoing links reorders PREPAREs, so replica 1
	// builds up committed-but-unapplied entries behind a delayed head — the
	// partially-committed window the crash must interrupt.
	cl.net.SetFault(faultplane.NewInjector(5, faultplane.Plan{
		Links: []faultplane.LinkFault{{
			From:   0,
			To:     faultplane.Wildcard,
			Jitter: 40 * time.Millisecond,
		}},
	}))

	// Step until replica 1 holds a partially-committed window: at least two
	// in-flight batches, with some earlier batch already applied.
	found := false
	var inFlightReqs []msg.OrderRequest
	for until := time.Millisecond; until < 4*time.Second; until += time.Millisecond {
		cl.net.Run(until)
		c := cl.replicas[1].core
		if pipelinedInFlight(c) >= 2 && c.LastExecuted() > c.stableSeq {
			found = true
			for seq, e := range c.log {
				if seq > c.stableSeq && e.hasPrep && !e.executed {
					inFlightReqs = append(inFlightReqs, e.batch.Reqs...)
				}
			}
			break
		}
	}
	if !found {
		t.Fatal("never observed a partially-committed pipeline window at replica 1")
	}
	cl.net.Crash(0)
	cl.net.Run(60 * time.Second)

	if !cl.client.done {
		t.Fatalf("client finished %d/%d ops after leader crash", cl.client.current, len(cl.client.ops))
	}
	for _, fc := range floods {
		if fc.missing != 0 {
			t.Fatalf("flood client %d still missing %d replies after leader crash", fc.id, fc.missing)
		}
	}
	for _, i := range []int{1, 2} {
		r := cl.replicas[i]
		if r.core.View() == 0 {
			t.Errorf("replica %d still in view 0", i)
		}
		assertNoDuplicateExecutions(t, r)
	}
	// Every request of the interrupted window was re-proposed exactly once:
	// it appears at exactly one sequence number of the new view's history.
	for _, req := range inFlightReqs {
		if req.Origin == msg.NoNode {
			continue
		}
		seqs := make(map[uint64]struct{})
		for _, rec := range cl.replicas[1].executed {
			if rec.client == req.Client && rec.clientSeq == req.ClientSeq {
				seqs[rec.seq] = struct{}{}
			}
		}
		if len(seqs) != 1 {
			t.Errorf("in-flight request client=%d seq=%d executed at %d sequence numbers, want 1",
				req.Client, req.ClientSeq, len(seqs))
		}
	}
	if !bytes.Equal(cl.apps[1].Snapshot(), cl.apps[2].Snapshot()) {
		t.Error("surviving replicas diverged")
	}
}

// TestPipelinedOrderingUnderJitter runs a pipelined cluster end to end with
// link jitter reordering deliveries: the protocol must converge with no
// duplicate executions, and the jitter must actually have exercised the
// out-of-order acceptance path on some follower (the run is deterministic
// for the fixed simnet seed, so this is a stable assertion).
func TestPipelinedOrderingUnderJitter(t *testing.T) {
	cl := newCluster(t, 3, func(c *Config) {
		c.PipelineDepth = 4
		c.BatchSize = 2
		c.BatchDelay = 2 * time.Millisecond
	}, opScript(12)...)
	extras := make([]*testClient, 3)
	for i := range extras {
		extras[i] = &testClient{id: msg.NodeID(40 + i), n: 3, f: 1, ops: toOps(opScript(12))}
		cl.net.AttachConfig(extras[i].id, extras[i], simnet.NodeConfig{})
	}
	cl.net.SetFault(faultplane.NewInjector(3, faultplane.Plan{
		Links: []faultplane.LinkFault{{
			From:   faultplane.Wildcard,
			To:     faultplane.Wildcard,
			Jitter: 12 * time.Millisecond,
		}},
	}))
	cl.net.Run(120 * time.Second)

	if !cl.client.done {
		t.Fatalf("client finished %d/%d ops under jitter", cl.client.current, len(cl.client.ops))
	}
	for _, ec := range extras {
		if !ec.done {
			t.Fatalf("client %d finished %d/%d ops under jitter", ec.id, ec.current, len(ec.ops))
		}
	}
	for _, r := range cl.replicas {
		assertNoDuplicateExecutions(t, r)
	}
	if !bytes.Equal(cl.apps[0].Snapshot(), cl.apps[1].Snapshot()) ||
		!bytes.Equal(cl.apps[1].Snapshot(), cl.apps[2].Snapshot()) {
		t.Error("replica states diverged under jitter")
	}
	var ooo uint64
	for _, r := range cl.replicas {
		ooo += r.core.Metrics().OutOfOrderPrepares
	}
	if ooo == 0 {
		t.Error("jitter never exercised out-of-order PREPARE acceptance; raise Jitter or the seed")
	}
}

// TestPipelinedConcurrentSubmitRealnet is the wall-clock concurrency check
// for the pipelined leader path (window accounting, pump, per-lane
// continuity): several clients flood a 3-replica cluster on the goroutine
// runtime; under -race every unsynchronized access to the new pipeline state
// would surface here.
func TestPipelinedConcurrentSubmitRealnet(t *testing.T) {
	const (
		nReplicas = 3
		nClients  = 4
		perClient = 25
	)
	router := realnet.NewRouter()
	defer router.Close()

	replicas := make([]*testReplica, nReplicas)
	for i := range replicas {
		sub := tcounter.NewSubsystem(msg.NodeID(i))
		sub.SetKey([]byte("test-counter-key"))
		r := &testReplica{id: msg.NodeID(i)}
		r.core = New(Config{
			Self:               msg.NodeID(i),
			N:                  nReplicas,
			F:                  1,
			CheckpointInterval: 16,
			ViewChangeTimeout:  5 * time.Second,
			Authority:          tcounter.Direct{S: sub},
			App:                app.NewStore(),
			BatchSize:          8,
			BatchDelay:         2 * time.Millisecond,
			PipelineDepth:      4,
		}, r)
		replicas[i] = r
		router.Attach(msg.NodeID(i), r)
	}
	clients := make([]*countClient, nClients)
	for i := range clients {
		clients[i] = newCountClient(msg.NodeID(100+i), nReplicas, 1, perClient)
		router.Attach(clients[i].id, clients[i])
	}

	for _, c := range clients {
		select {
		case <-c.done:
		case <-time.After(30 * time.Second):
			t.Fatalf("client %d timed out waiting for replies", c.id)
		}
	}
	router.Close()

	for _, r := range replicas {
		assertNoDuplicateExecutions(t, r)
	}
	lead := replicas[0].core.Metrics()
	if lead.Proposed < nClients*perClient {
		t.Errorf("leader proposed %d requests, want >=%d", lead.Proposed, nClients*perClient)
	}
	if lead.Batches == 0 || lead.Batches >= lead.Proposed {
		t.Errorf("no amortization under pipelined flood: %d batches for %d requests",
			lead.Batches, lead.Proposed)
	}
}

// TestForgedCertificateIsRejected hands a core a certified message whose
// certificate names the right replica, counter, value and digest but whose MAC
// was minted under another key — what a Byzantine host can fabricate without
// its trusted counter. A VIEW-CHANGE or NEW-VIEW, whose host MAC authenticates
// its sender, must be counted against that sender; a PREPARE or COMMIT, which
// carries no host MAC, proves nothing about who sent it and is counted as
// unverified, blaming nobody. Either must change nothing: a forged PREPARE is neither admitted nor acknowledged, a
// forged COMMIT is not a voucher and its slot does not execute, a forged
// VIEW-CHANGE is neither recorded nor joined, a NEW-VIEW under a forged leader
// certificate installs no view; the genuine message then does what it should.
// (Every other test sends honest certificates or forges a field the plain
// comparisons catch: before this one the Verify calls in OnCommit, OnViewChange
// and OnNewView could each be deleted with every test green.)
func TestForgedCertificateIsRejected(t *testing.T) {
	const depth = 2
	keyed := func(owner msg.NodeID, key string) *tcounter.Subsystem {
		s := tcounter.NewSubsystem(owner)
		s.SetKey([]byte(key))
		return s
	}
	honest := func(owner msg.NodeID) *tcounter.Subsystem { return keyed(owner, "test-counter-key") }
	forge := func(owner msg.NodeID) *tcounter.Subsystem { return keyed(owner, "not-the-counter-key") }
	viewChange := func(owner msg.NodeID, sub *tcounter.Subsystem, newView uint64) *ViewChange {
		vc := &ViewChange{Replica: owner, NewView: newView}
		cert, err := sub.Certify(tcounter.ViewChangeCounter, newView, vc.CertDigest())
		if err != nil {
			t.Fatal(err)
		}
		vc.Cert = cert
		return vc
	}
	var env fakeEnv

	t.Run("prepare", func(t *testing.T) {
		r, leaderSub := pipelineFollower(t, depth)
		r.core.OnPrepare(&env, 0, leaderPrepare(t, forge(0), depth, 1))
		if m := r.core.Metrics(); m.UnverifiedCerts != 1 || r.core.RejectedCertsFrom(0) != 0 {
			t.Errorf("after a forged PREPARE: UnverifiedCerts %d, RejectedCertsFrom(leader) %d, want 1 and 0",
				m.UnverifiedCerts, r.core.RejectedCertsFrom(0))
		}
		if e, ok := r.core.log[1]; ok && e.hasPrep {
			t.Error("a forged PREPARE was admitted to the log")
		}
		if m := r.core.Metrics(); m.Committed != 0 || r.core.LastExecuted() != 0 {
			t.Fatalf("slot 1 committed or executed on a forged PREPARE (committed %d, executed to %d)",
				m.Committed, r.core.LastExecuted())
		}
		r.core.OnPrepare(&env, 0, leaderPrepare(t, leaderSub, depth, 1))
		if got := r.core.LastExecuted(); got != 1 {
			t.Errorf("executed up to %d after the genuine PREPARE, want 1", got)
		}
	})

	t.Run("commit", func(t *testing.T) {
		out := &prepareCollector{}
		core := New(Config{
			Self:               0,
			N:                  3,
			F:                  1,
			CheckpointInterval: 1 << 30,
			ViewChangeTimeout:  time.Minute,
			Authority:          tcounter.Direct{S: honest(0)},
			App:                app.NewStore(),
			PipelineDepth:      depth,
		}, out)
		core.Submit(&env, &msg.OrderRequest{Origin: 3, Client: 7, ClientSeq: 1, Op: []byte("PUT k v")})
		if len(out.preps) != 1 {
			t.Fatalf("leader disseminated %d PREPAREs, want 1", len(out.preps))
		}

		core.OnCommit(&env, 1, followerCommit(t, forge(1), depth, out.preps[0]))
		if m := core.Metrics(); m.UnverifiedCerts != 1 || core.RejectedCertsFrom(1) != 0 {
			t.Errorf("after a forged COMMIT: UnverifiedCerts %d, RejectedCertsFrom(follower) %d, want 1 and 0",
				m.UnverifiedCerts, core.RejectedCertsFrom(1))
		}
		if core.log[1].vouchers&(1<<1) != 0 {
			t.Error("a forged COMMIT made its sender a voucher")
		}
		if got := core.LastExecuted(); got != 0 {
			t.Fatalf("slot 1 executed on the leader's own voucher and a forged COMMIT")
		}
		core.OnCommit(&env, 1, followerCommit(t, honest(1), depth, out.preps[0]))
		if got := core.LastExecuted(); got != 1 {
			t.Errorf("executed up to %d after the genuine COMMIT, want 1", got)
		}
	})

	t.Run("view change", func(t *testing.T) {
		r, _ := pipelineFollower(t, depth)
		r.core.OnViewChange(&env, 2, viewChange(2, forge(2), 1))
		if got := r.core.RejectedCertsFrom(2); got != 1 {
			t.Errorf("RejectedCertsFrom(2) = %d after a forged VIEW-CHANGE, want 1", got)
		}
		if len(r.core.vcs[1]) != 0 || r.core.inVC || r.core.View() != 0 {
			t.Fatalf("a forged VIEW-CHANGE was recorded (%d votes) or joined (view %d)", len(r.core.vcs[1]), r.core.View())
		}
		// The genuine one is joined, and with this replica's own vote the
		// replica, which leads view 1, installs it.
		r.core.OnViewChange(&env, 2, viewChange(2, honest(2), 1))
		if got := r.core.View(); got != 1 {
			t.Errorf("view %d after the genuine VIEW-CHANGE, want 1", got)
		}
	})

	t.Run("new view", func(t *testing.T) {
		// Replica 1 leads view 1; replica 2 learns of it from a NEW-VIEW whose
		// two VIEW-CHANGEs are genuine.
		core := newStateCore(2, 64<<10, 16).core
		newView := func(leaderSub *tcounter.Subsystem) *NewView {
			nv := &NewView{Leader: 1, View: 1, ViewChanges: []ViewChange{
				*viewChange(0, honest(0), 1), *viewChange(1, honest(1), 1),
			}}
			cert, err := leaderSub.Certify(tcounter.NewViewCounter, 1, nv.CertDigest())
			if err != nil {
				t.Fatal(err)
			}
			nv.Cert = cert
			return nv
		}
		core.OnNewView(&env, 1, newView(forge(1)))
		if got := core.RejectedCertsFrom(1); got != 1 {
			t.Errorf("RejectedCertsFrom(leader) = %d after a NEW-VIEW under a forged certificate, want 1", got)
		}
		if got := core.View(); got != 0 {
			t.Fatalf("view %d installed from a NEW-VIEW under a forged certificate", got)
		}
		core.OnNewView(&env, 1, newView(honest(1)))
		if got := core.View(); got != 1 {
			t.Errorf("view %d after the genuine NEW-VIEW, want 1", got)
		}
	})
}

// TestWrongSubmitDigestIsRejectedByTheFollowers: Submit takes the digest a
// request carries — the host of a Troxy gets it from its own trusted subsystem
// with the submit and does not hash the operation again. That is the one place
// a replica trusts a digest it did not compute, and it trusts only itself: a
// leader that proposes under a wrong one certifies a batch digest no other
// replica arrives at, since a follower hashes the bytes it received. The
// proposal dies on the follower's certificate check and executes nowhere —
// counted as unverified: a certificate that does not verify over what the
// PREPARE carries cannot tell a faulty leader from a corrupted frame.
func TestWrongSubmitDigestIsRejectedByTheFollowers(t *testing.T) {
	const depth = 2
	var env fakeEnv
	leaderSub := tcounter.NewSubsystem(0)
	leaderSub.SetKey([]byte("test-counter-key"))
	out := &prepareCollector{}
	leader := New(Config{
		Self:               0,
		N:                  3,
		F:                  1,
		CheckpointInterval: 1 << 30,
		ViewChangeTimeout:  time.Minute,
		Authority:          tcounter.Direct{S: leaderSub},
		App:                app.NewStore(),
		PipelineDepth:      depth,
	}, out)
	req := &msg.OrderRequest{Origin: 3, Client: 7, ClientSeq: 1, Op: []byte("PUT k v")}
	req.SetDigest(msg.DigestOf([]byte("some other request")))
	leader.Submit(&env, req)
	if len(out.preps) != 1 {
		t.Fatalf("leader disseminated %d PREPAREs, want 1", len(out.preps))
	}

	// The follower gets the proposal's bytes, not the leader's memo.
	m, err := msg.Seal(0, 1, out.preps[0]).Open()
	if err != nil {
		t.Fatal(err)
	}
	r, _ := pipelineFollower(t, depth)
	r.core.OnPrepare(&env, 0, m.(*msg.Prepare))
	if got := r.core.Metrics(); got.UnverifiedCerts != 1 || r.core.RejectedCertsFrom(0) != 0 {
		t.Errorf("after a PREPARE certified over a wrong request digest: UnverifiedCerts %d, RejectedCertsFrom(leader) %d, want 1 and 0",
			got.UnverifiedCerts, r.core.RejectedCertsFrom(0))
	}
	if e, ok := r.core.log[1]; ok && e.hasPrep {
		t.Error("the PREPARE was admitted to the follower's log")
	}
	if r.core.LastExecuted() != 0 || leader.LastExecuted() != 0 {
		t.Errorf("executed up to %d at the follower and %d at the leader, want nothing", r.core.LastExecuted(), leader.LastExecuted())
	}
}
