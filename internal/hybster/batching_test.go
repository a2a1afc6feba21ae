package hybster

import (
	"fmt"
	"testing"
	"time"

	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/realnet"
	"github.com/troxy-bft/troxy/internal/simnet"
	"github.com/troxy-bft/troxy/internal/tcounter"
)

// discardOut drops all protocol output; used to drive a leader core directly
// without peers.
type discardOut struct{}

func (discardOut) Send(node.Env, msg.NodeID, msg.Message)                                      {}
func (discardOut) Committed(node.Env, uint64, *msg.OrderRequest, []byte, []string, bool, bool) {}

// countingAuthority counts the certifications that succeed through it.
type countingAuthority struct {
	tcounter.Authority
	certs uint64
}

func (a *countingAuthority) Certify(counter uint32, value uint64, digest msg.Digest) (msg.CounterCert, error) {
	cert, err := a.Authority.Certify(counter, value, digest)
	if err == nil {
		a.certs++
	}
	return cert, err
}

// certificationsWithBatchSize drives nReqs distinct client requests into a
// stand-alone leader core and reports how many trusted-counter certifications
// they cost, plus the core's metrics.
func certificationsWithBatchSize(t *testing.T, batchSize, nReqs int) (uint64, Metrics) {
	t.Helper()
	sub := tcounter.NewSubsystem(0)
	sub.SetKey([]byte("test-counter-key"))
	counting := &countingAuthority{Authority: tcounter.Direct{S: sub}}
	core := New(Config{
		Self:               0,
		N:                  3,
		F:                  1,
		CheckpointInterval: 1 << 30,
		ViewChangeTimeout:  time.Minute,
		Authority:          counting,
		App:                app.NewStore(),
		BatchSize:          batchSize,
		// A long delay isolates the size-based cut policy: with fakeEnv the
		// timer never fires, so only full batches are proposed.
		BatchDelay: time.Minute,
	}, discardOut{})
	var env fakeEnv
	for i := 0; i < nReqs; i++ {
		core.Submit(&env, &msg.OrderRequest{
			Origin:    100,
			Client:    uint64(1000 + i),
			ClientSeq: 1,
			Op:        []byte(fmt.Sprintf("PUT key-%d %d", i, i)),
		})
	}
	return counting.certs, core.Metrics()
}

// TestBatchCertificationAmortization is the headline property of the batched
// ordering pipeline: BatchSize=16 must spend 16x fewer trusted-counter
// certifications per request than unbatched ordering.
func TestBatchCertificationAmortization(t *testing.T) {
	const nReqs = 32
	unbatchedCerts, unbatched := certificationsWithBatchSize(t, 1, nReqs)
	batchedCerts, batched := certificationsWithBatchSize(t, 16, nReqs)

	if unbatchedCerts != nReqs {
		t.Fatalf("unbatched: %d certifications for %d requests, want %d", unbatchedCerts, nReqs, nReqs)
	}
	if batchedCerts != nReqs/16 {
		t.Fatalf("batched: %d certifications for %d requests, want %d", batchedCerts, nReqs, nReqs/16)
	}
	if 16*batchedCerts > unbatchedCerts {
		t.Errorf("amortization below 16x: %d batched vs %d unbatched certifications",
			batchedCerts, unbatchedCerts)
	}
	if batched.Proposed != nReqs || batched.Batches != nReqs/16 {
		t.Errorf("batched metrics: proposed=%d batches=%d, want %d/%d",
			batched.Proposed, batched.Batches, nReqs, nReqs/16)
	}
	if unbatched.Proposed != nReqs || unbatched.Batches != nReqs {
		t.Errorf("unbatched metrics: proposed=%d batches=%d, want %d/%d",
			unbatched.Proposed, unbatched.Batches, nReqs, nReqs)
	}
}

// TestBatchDelayCutsUnderfullBatch checks the time-based half of the cut
// policy: with a batch-size limit far above the offered load, requests must
// still be ordered once BatchDelay expires.
func TestBatchDelayCutsUnderfullBatch(t *testing.T) {
	cl := newCluster(t, 3, func(c *Config) {
		c.BatchSize = 64
		c.BatchDelay = 10 * time.Millisecond
	}, "PUT a 1", "GET a", "PUT b 2")
	cl.net.Run(10 * time.Second)

	if !cl.client.done {
		t.Fatalf("client finished %d/%d ops: underfull batches never cut", cl.client.current, len(cl.client.ops))
	}
	lead := cl.replicas[0].core.Metrics()
	if lead.Batches == 0 || lead.Executed < 3 {
		t.Errorf("leader metrics: batches=%d executed=%d, want >0 and >=3", lead.Batches, lead.Executed)
	}
}

// assertNoDuplicateExecutions fails if a replica executed any (client,
// clientSeq) pair at more than one sequence number of the ordered history.
// Repeated records at the SAME sequence number are cached-reply replays for
// client retransmissions, which are benign; two distinct sequence numbers
// mean the operation really ran twice.
func assertNoDuplicateExecutions(t *testing.T, r *testReplica) {
	t.Helper()
	seen := make(map[[2]uint64]map[uint64]struct{})
	for _, rec := range r.executed {
		key := [2]uint64{rec.client, rec.clientSeq}
		if seen[key] == nil {
			seen[key] = make(map[uint64]struct{})
		}
		seen[key][rec.seq] = struct{}{}
	}
	for k, seqs := range seen {
		if len(seqs) > 1 {
			t.Errorf("replica %d executed client %d seq %d at %d distinct sequence numbers",
				r.id, k[0], k[1], len(seqs))
		}
	}
}

// TestBatchedOrderingConverges drives four concurrent client streams through
// a batching cluster and checks the batched path preserves the baseline
// guarantees: every op completes, replicas execute identical histories, and
// the leader actually amortized (fewer ordering rounds than requests).
func TestBatchedOrderingConverges(t *testing.T) {
	cl := newCluster(t, 3, func(c *Config) {
		c.BatchSize = 4
		c.BatchDelay = 10 * time.Millisecond
	}, opScript(8)...)
	extras := make([]*testClient, 3)
	for i := range extras {
		extras[i] = &testClient{id: msg.NodeID(40 + i), n: 3, f: 1, ops: toOps(opScript(8))}
		cl.net.AttachConfig(extras[i].id, extras[i], simnet.NodeConfig{})
	}
	cl.net.Run(30 * time.Second)

	if !cl.client.done {
		t.Fatalf("client finished %d/%d ops", cl.client.current, len(cl.client.ops))
	}
	for _, ec := range extras {
		if !ec.done {
			t.Fatalf("client %d finished %d/%d ops", ec.id, ec.current, len(ec.ops))
		}
	}
	for i := 1; i < 3; i++ {
		if len(cl.replicas[i].executed) != len(cl.replicas[0].executed) {
			t.Fatalf("replica %d executed %d ops, replica 0 executed %d",
				i, len(cl.replicas[i].executed), len(cl.replicas[0].executed))
		}
		for j, rec := range cl.replicas[i].executed {
			if rec != cl.replicas[0].executed[j] {
				t.Errorf("replica %d record %d = %+v, replica 0 = %+v",
					i, j, rec, cl.replicas[0].executed[j])
			}
		}
	}
	for _, r := range cl.replicas {
		assertNoDuplicateExecutions(t, r)
	}
	lead := cl.replicas[0].core.Metrics()
	if lead.Proposed < 32 {
		t.Errorf("leader proposed %d requests, want >=32", lead.Proposed)
	}
	if lead.Batches >= lead.Proposed {
		t.Errorf("no amortization: %d batches for %d requests", lead.Batches, lead.Proposed)
	}
}

// countClient floods the cluster with back-to-back requests (no waiting
// between them, unlike the serial testClient) and closes done once every
// request has f+1 replies. It provides the concurrent submit load for the
// race test below.
type countClient struct {
	id      msg.NodeID
	n, f    int
	reqs    int
	replies map[uint64]map[msg.NodeID]struct{}
	missing int
	done    chan struct{}
}

func newCountClient(id msg.NodeID, n, f, reqs int) *countClient {
	return &countClient{
		id: id, n: n, f: f, reqs: reqs,
		replies: make(map[uint64]map[msg.NodeID]struct{}),
		missing: reqs,
		done:    make(chan struct{}),
	}
}

func (c *countClient) op(seq int) []byte {
	return []byte(fmt.Sprintf("PUT c%d-k%d v%d", c.id, seq, seq))
}

func (c *countClient) sendAll(env node.Env, seq int) {
	for i := 0; i < c.n; i++ {
		env.Send(msg.Seal(c.id, msg.NodeID(i), &msg.BFTRequest{
			Client:    uint64(c.id),
			ClientSeq: uint64(seq),
			Op:        c.op(seq),
		}))
	}
}

func (c *countClient) OnStart(env node.Env) {
	for seq := 1; seq <= c.reqs; seq++ {
		c.sendAll(env, seq)
	}
	env.SetTimer(300*time.Millisecond, node.TimerKey{Kind: "client/flood-retry"})
}

func (c *countClient) OnEnvelope(_ node.Env, e *msg.Envelope) {
	m, err := e.Open()
	if err != nil {
		return
	}
	rep, ok := m.(*msg.BFTReply)
	if !ok || rep.ClientSeq == 0 || rep.ClientSeq > uint64(c.reqs) || c.missing == 0 {
		return
	}
	set := c.replies[rep.ClientSeq]
	if set == nil {
		set = make(map[msg.NodeID]struct{})
		c.replies[rep.ClientSeq] = set
	}
	before := len(set)
	set[e.From] = struct{}{}
	if before < c.f+1 && len(set) == c.f+1 {
		c.missing--
		if c.missing == 0 {
			close(c.done)
		}
	}
}

func (c *countClient) OnTimer(env node.Env, key node.TimerKey) {
	if key.Kind != "client/flood-retry" || c.missing == 0 {
		return
	}
	for seq := 1; seq <= c.reqs; seq++ {
		if len(c.replies[uint64(seq)]) < c.f+1 {
			c.sendAll(env, seq)
		}
	}
	env.SetTimer(300*time.Millisecond, node.TimerKey{Kind: "client/flood-retry"})
}

// TestBatchedConcurrentSubmitRealnet runs the batching pipeline on the real
// runtime with several clients flooding concurrently. Under -race it is the
// concurrency check for the leader's batch accumulator: all access must stay
// serialized by the node mailbox.
func TestBatchedConcurrentSubmitRealnet(t *testing.T) {
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
	// Joining all node goroutines makes the replica state safe to inspect.
	router.Close()

	for _, r := range replicas {
		assertNoDuplicateExecutions(t, r)
	}
	lead := replicas[0].core.Metrics()
	if lead.Proposed < nClients*perClient {
		t.Errorf("leader proposed %d requests, want >=%d", lead.Proposed, nClients*perClient)
	}
	if lead.Batches == 0 || lead.Batches >= lead.Proposed {
		t.Errorf("no amortization under flood: %d batches for %d requests", lead.Batches, lead.Proposed)
	}
}
