package prophecy

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	troxy "github.com/troxy-bft/troxy"
	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/legacyclient"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/securechannel"
	"github.com/troxy-bft/troxy/internal/simnet"
	"github.com/troxy-bft/troxy/internal/workload"
)

const middleboxID msg.NodeID = 50

func benchClassifier(op []byte) bool { return app.BenchIsRead(op) }

// deployment wires a Baseline cluster, a middlebox, and one client machine.
func deployment(t *testing.T, gen workload.Generator, maxOps int) (*troxy.Cluster, *Middlebox, *legacyclient.Machine, *simnet.Network) {
	t.Helper()
	cluster, err := troxy.NewCluster(troxy.ClusterConfig{
		Mode:              troxy.Baseline,
		App:               app.NewBenchFactory(128),
		Classify:          benchClassifier,
		Seed:              3,
		ViewChangeTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(3, nil)
	net.SetDefaultLink(simnet.FixedLatency(time.Millisecond))
	cluster.Attach(net)

	mb := New(Config{
		Self:         middleboxID,
		N:            3,
		F:            1,
		Directory:    cluster.Directory,
		IdentitySeed: cluster.Directory.ServiceIdentitySeed(),
		Classify:     benchClassifier,
		Timeout:      2 * time.Second,
	})
	net.Attach(middleboxID, mb)

	lc := legacyclient.New(legacyclient.Config{
		Machine:       100,
		Clients:       1,
		FirstClientID: 1000,
		Replicas:      []msg.NodeID{middleboxID},
		ServerPub:     cluster.ServerPub,
		Gen:           gen,
		MaxOps:        maxOps,
		Timeout:       5 * time.Second,
	})
	net.Attach(100, lc)
	return cluster, mb, lc, net
}

// scriptGen replays a fixed operation sequence (repeating the last one).
type scriptGen struct {
	ops []workload.Op
	i   int
}

func (g *scriptGen) Next(*rand.Rand) workload.Op {
	if g.i >= len(g.ops) {
		return g.ops[len(g.ops)-1]
	}
	op := g.ops[g.i]
	g.i++
	return op
}

func TestMiddleboxOrderedPath(t *testing.T) {
	gen := &scriptGen{ops: []workload.Op{
		{Op: app.BenchWrite(1, 16), Read: false},
		{Op: app.BenchRead(1, 16), Read: true},
	}}
	_, mb, lc, net := deployment(t, gen, 2)
	net.Run(20 * time.Second)
	if lc.Done() != 2 {
		t.Fatalf("client completed %d/2", lc.Done())
	}
	st := mb.Stats()
	if st.Ordered < 2 {
		t.Errorf("ordered = %d, want ≥2", st.Ordered)
	}
	if st.FastOK != 0 {
		t.Errorf("unexpected fast reads on cold sketches: %d", st.FastOK)
	}
}

func TestMiddleboxFastReadAfterSketch(t *testing.T) {
	ops := []workload.Op{{Op: app.BenchWrite(1, 16), Read: false}}
	for i := 0; i < 6; i++ {
		ops = append(ops, workload.Op{Op: app.BenchRead(1, 16), Read: true})
	}
	_, mb, lc, net := deployment(t, &scriptGen{ops: ops}, len(ops))
	net.Run(30 * time.Second)
	if lc.Done() != len(ops) {
		t.Fatalf("client completed %d/%d", lc.Done(), len(ops))
	}
	st := mb.Stats()
	// The first read orders (sketch miss) and populates the sketch; later
	// identical reads take the single-replica fast path.
	if st.FastOK == 0 {
		t.Errorf("no fast reads served: %+v", st)
	}
}

func TestMiddleboxStaleSketchFallsBack(t *testing.T) {
	// read (sketch) -> write (changes state, sketch NOT invalidated) ->
	// read: the speculative reply no longer matches the sketch, so the
	// middlebox must re-order the read — and then return the FRESH value.
	ops := []workload.Op{
		{Op: app.BenchRead(1, 16), Read: true},
		{Op: app.BenchWrite(1, 16), Read: false},
		{Op: app.BenchRead(1, 16), Read: true},
	}
	cluster, mb, lc, net := deployment(t, &scriptGen{ops: ops}, len(ops))
	net.Run(30 * time.Second)
	if lc.Done() != len(ops) {
		t.Fatalf("client completed %d/%d", lc.Done(), len(ops))
	}
	st := mb.Stats()
	if st.FastMiss == 0 {
		t.Errorf("stale sketch never detected: %+v", st)
	}
	_ = cluster
}

func TestMiddleboxRejectsBadMAC(t *testing.T) {
	gen := &scriptGen{ops: []workload.Op{{Op: app.BenchWrite(1, 16), Read: false}}}
	_, mb, _, net := deployment(t, gen, 1)
	// Inject a reply with a garbage MAC.
	net.At(0, func() {})
	net.Attach(200, &badReplySender{to: middleboxID})
	net.Run(5 * time.Second)
	if mb.Stats().BadReplies == 0 {
		t.Error("unauthenticated reply accepted")
	}
}

type badReplySender struct{ to msg.NodeID }

func (b *badReplySender) OnStart(env node.Env) {
	e := msg.Seal(env.Self(), b.to, &msg.BFTReply{Executor: 0, Client: 1000, ClientSeq: 1})
	e.MAC = []byte("garbage")
	env.Send(e)
}

func (b *badReplySender) OnEnvelope(node.Env, *msg.Envelope) {}
func (b *badReplySender) OnTimer(node.Env, node.TimerKey)    {}

// recordingEnv is a node.Env that keeps what the middlebox sends (by value,
// as Send copies it) and the timers it sets.
type recordingEnv struct {
	sent   []msg.Envelope
	timers []node.TimerKey
}

func (e *recordingEnv) Self() msg.NodeID                          { return middleboxID }
func (e *recordingEnv) Now() time.Duration                        { return 0 }
func (e *recordingEnv) Send(m *msg.Envelope)                      { e.sent = append(e.sent, *m) }
func (e *recordingEnv) SetTimer(_ time.Duration, k node.TimerKey) { e.timers = append(e.timers, k) }
func (e *recordingEnv) CancelTimer(node.TimerKey)                 {}
func (e *recordingEnv) Rand() *rand.Rand                          { return rand.New(rand.NewSource(1)) }
func (e *recordingEnv) Charge(node.Profile, node.ChargeKind, int) {}
func (e *recordingEnv) Logf(string, ...any)                       {}

// The middlebox owns the operations it keeps pending. An ordered request stays
// pending while later records arrive on its connection, which the channel
// decrypts into the buffer the first came in; when its timer fires it is
// ordered again, with its own bytes.
func TestPendingRequestKeepsItsOperation(t *testing.T) {
	cluster, err := troxy.NewCluster(troxy.ClusterConfig{Mode: troxy.Baseline, App: app.NewBenchFactory(128), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	mb := New(Config{
		Self: middleboxID, N: 3, F: 1, Directory: cluster.Directory,
		IdentitySeed: cluster.Directory.ServiceIdentitySeed(), Classify: benchClassifier,
	})
	env := &recordingEnv{}
	deliver := func(payload []byte) {
		mb.OnEnvelope(env, msg.Seal(100, middleboxID, &msg.ChannelData{ConnID: 1, Payload: payload}))
	}
	hs, hello, err := securechannel.NewClientHandshake(cluster.ServerPub, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	deliver(hello)
	cd, err := env.sent[0].OpenChannelData()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := hs.Finish(cd.Payload)
	if err != nil {
		t.Fatal(err)
	}
	first, second := app.BenchWrite(1, 16), app.BenchWrite(2, 16)
	for seq, op := range [][]byte{first, second} {
		record, err := sess.Seal(msg.EncodeChannelRequest(&msg.ChannelRequest{Client: 7, Seq: uint64(seq + 1), Op: op}))
		if err != nil {
			t.Fatal(err)
		}
		deliver(record)
	}
	if len(env.timers) != 2 {
		t.Fatalf("%d requests ordered, want 2", len(env.timers))
	}

	env.sent = nil
	mb.OnTimer(env, env.timers[0])
	if len(env.sent) != 3 {
		t.Fatalf("the timeout re-sent %d requests, want one per replica", len(env.sent))
	}
	for _, e := range env.sent {
		m, err := e.Open()
		if err != nil {
			t.Fatal(err)
		}
		if req := m.(*msg.BFTRequest); req.ClientSeq != 1 || !bytes.Equal(req.Op, first) {
			t.Errorf("re-ordered request %d carries %q, want %q", req.ClientSeq, req.Op, first)
		}
	}
}
