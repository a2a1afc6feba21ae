package troxy

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/bftclient"
	"github.com/troxy-bft/troxy/internal/faultplane"
	"github.com/troxy-bft/troxy/internal/legacyclient"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/simnet"
	"github.com/troxy-bft/troxy/internal/workload"
)

// scriptGen replays a fixed operation sequence.
type scriptGen struct {
	ops []workload.Op
	idx int
}

func (g *scriptGen) Next(*rand.Rand) workload.Op {
	if g.idx >= len(g.ops) {
		return g.ops[len(g.ops)-1]
	}
	op := g.ops[g.idx]
	g.idx++
	return op
}

func kvOps(pairs ...string) []workload.Op {
	ops := make([]workload.Op, 0, len(pairs))
	for _, p := range pairs {
		ops = append(ops, workload.Op{Op: []byte(p), Read: len(p) > 3 && p[:4] == "GET "})
	}
	return ops
}

func storeClassifier() func([]byte) bool {
	probe := app.NewStore()
	return probe.IsRead
}

func newTestCluster(t *testing.T, mode Mode, fastReads bool) (*Cluster, *simnet.Network) {
	t.Helper()
	cl, err := NewCluster(ClusterConfig{
		Mode:               mode,
		App:                app.NewStoreFactory(),
		Classify:           storeClassifier(),
		FastReads:          fastReads,
		Seed:               11,
		CheckpointInterval: 16,
		ViewChangeTimeout:  time.Second,
		TickInterval:       20 * time.Millisecond,
		QueryTimeout:       200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(3, nil)
	net.SetDefaultLink(simnet.FixedLatency(2 * time.Millisecond))
	cl.Attach(net)
	return cl, net
}

func TestETroxyEndToEnd(t *testing.T) {
	cl, net := newTestCluster(t, ETroxy, true)
	rec := workload.NewRecorder()
	rec.Begin(0)
	gen := &scriptGen{ops: kvOps(
		"PUT a 1", "GET a", "PUT b 2", "GET b", "GET a", "DEL a", "GET a",
	)}
	lc := legacyclient.New(legacyclient.Config{
		Machine:       10,
		Clients:       1,
		FirstClientID: 1000,
		Replicas:      cl.ReplicaIDs(),
		ServerPub:     cl.ServerPub,
		Gen:           gen,
		Rec:           rec,
		MaxOps:        7,
		Timeout:       time.Second,
	})
	net.Attach(10, lc)
	net.Run(10 * time.Second)

	if lc.Done() != 7 {
		t.Fatalf("client completed %d/7 ops", lc.Done())
	}
	// Replica states converge and reflect the script.
	for i := 1; i < 3; i++ {
		if app.StateDigest(cl.App(i)) != app.StateDigest(cl.App(0)) {
			t.Errorf("replica %d state diverged", i)
		}
	}
	if got := cl.App(0).Execute([]byte("GET b")); string(got) != "VALUE 2" {
		t.Errorf("final GET b = %q", got)
	}
	if got := cl.App(0).Execute([]byte("GET a")); string(got) != "NOTFOUND" {
		t.Errorf("final GET a = %q", got)
	}
	res := rec.Snapshot(net.Now())
	if res.Count != 7 {
		t.Errorf("recorded %d ops", res.Count)
	}
}

func TestCTroxyEndToEnd(t *testing.T) {
	cl, net := newTestCluster(t, CTroxy, false)
	gen := &scriptGen{ops: kvOps("PUT x 9", "GET x")}
	lc := legacyclient.New(legacyclient.Config{
		Machine: 10, Clients: 1, FirstClientID: 1000,
		Replicas: cl.ReplicaIDs(), ServerPub: cl.ServerPub,
		Gen: gen, MaxOps: 2, Timeout: time.Second,
	})
	net.Attach(10, lc)
	net.Run(10 * time.Second)
	if lc.Done() != 2 {
		t.Fatalf("client completed %d/2 ops", lc.Done())
	}
	if got := cl.App(1).Execute([]byte("GET x")); string(got) != "VALUE 9" {
		t.Errorf("GET x = %q", got)
	}
}

// TestSharedResultsStayConstant: the store answers every write "OK" and every
// miss "NOTFOUND" with one shared slice each (app.Application.Execute: callers
// never modify a result). Writes, deletes and misses driven through a cluster
// under either binding — executed on every replica, kept in its client table,
// tagged, voted on, sealed for the client — must leave both as they were, and
// the client must read them.
func TestSharedResultsStayConstant(t *testing.T) {
	probe := app.NewStore()
	ok, notFound := probe.Execute([]byte("PUT k v")), probe.Execute([]byte("GET absent"))
	if string(ok) != "OK" || string(notFound) != "NOTFOUND" || &ok[0] != &app.NewStore().Execute([]byte("PUT j w"))[0] {
		t.Fatalf("the store's constant results are %q and %q, and not shared", ok, notFound)
	}
	if cap(ok) != len(ok) || cap(notFound) != len(notFound) {
		t.Fatalf("shared results with spare capacity: an append would write behind them")
	}
	script := []string{"PUT a 1", "GET b", "DEL a", "GET a", "DEL a", "PUT b 2", "GET c"}
	want := []string{"OK", "NOTFOUND", "OK", "NOTFOUND", "NOTFOUND", "OK", "NOTFOUND"}
	for _, mode := range []Mode{ETroxy, CTroxy} {
		cl, net := newTestCluster(t, mode, true)
		var got []string
		lc := legacyclient.New(legacyclient.Config{
			Machine: 10, Clients: 1, FirstClientID: 1000,
			Replicas: cl.ReplicaIDs(), ServerPub: cl.ServerPub,
			Gen: &scriptGen{ops: kvOps(script...)}, MaxOps: len(script), Timeout: time.Second,
			Observe: func(_, _ uint64, _ []byte, _ bool, _, _ time.Duration, result []byte) {
				got = append(got, string(result))
			},
		})
		net.Attach(10, lc)
		net.Run(10 * time.Second)
		if len(got) != len(want) {
			t.Fatalf("%s: the client completed %d of %d operations", mode, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: %q answered %q, want %q", mode, script[i], got[i], want[i])
			}
		}
	}
	if string(ok) != "OK" || string(notFound) != "NOTFOUND" {
		t.Errorf("the shared results read %q and %q after the runs", ok, notFound)
	}
}

func TestBaselineEndToEnd(t *testing.T) {
	cl, net := newTestCluster(t, Baseline, false)
	rec := workload.NewRecorder()
	rec.Begin(0)
	gen := &scriptGen{ops: kvOps("PUT k 7", "GET k", "GET k")}
	bc := bftclient.New(bftclient.Config{
		Machine: 10, Clients: 1, FirstClientID: 1000,
		N: 3, F: 1, Directory: cl.Directory,
		Gen: gen, Rec: rec, ReadOpt: true,
		MaxOps: 3, Timeout: time.Second,
	})
	net.Attach(10, bc)
	net.Run(10 * time.Second)
	if bc.Done() != 3 {
		t.Fatalf("client completed %d/3 ops", bc.Done())
	}
	if bc.Stats().DirectOK == 0 {
		t.Error("read optimization never succeeded on a read-only workload")
	}
}

func TestClientsOnFollowers(t *testing.T) {
	// Troxy allows connections to any replica (Section VI-A); clients
	// pinned to followers must work through the Forward path.
	cl, net := newTestCluster(t, ETroxy, false)
	var machines []*legacyclient.Machine
	for i := 0; i < 3; i++ {
		gen := &scriptGen{ops: kvOps("PUT shared 1", "GET shared")}
		lc := legacyclient.New(legacyclient.Config{
			Machine: msg.NodeID(10 + i), Clients: 1,
			FirstClientID: uint64(1000 + i*10),
			Replicas:      []msg.NodeID{msg.NodeID(i)}, // pinned
			ServerPub:     cl.ServerPub,
			Gen:           gen, MaxOps: 2, Timeout: time.Second,
		})
		machines = append(machines, lc)
		net.Attach(msg.NodeID(10+i), lc)
	}
	net.Run(10 * time.Second)
	for i, lc := range machines {
		if lc.Done() != 2 {
			t.Errorf("machine %d completed %d/2", i, lc.Done())
		}
	}
}

func TestFastReadCacheHits(t *testing.T) {
	cl, net := newTestCluster(t, ETroxy, true)
	// Same read repeated: first is ordered (miss), later ones come from the
	// cache via the remote-confirmation round.
	ops := []workload.Op{{Op: []byte("PUT hot v"), Read: false}}
	for i := 0; i < 10; i++ {
		ops = append(ops, workload.Op{Op: []byte("GET hot"), Read: true})
	}
	lc := legacyclient.New(legacyclient.Config{
		Machine: 10, Clients: 1, FirstClientID: 1000,
		Replicas: cl.ReplicaIDs(), ServerPub: cl.ServerPub,
		Gen: &scriptGen{ops: ops}, MaxOps: len(ops), Timeout: time.Second,
	})
	net.Attach(10, lc)
	net.Run(20 * time.Second)
	if lc.Done() != len(ops) {
		t.Fatalf("completed %d/%d", lc.Done(), len(ops))
	}
	fast := uint64(0)
	for i := 0; i < 3; i++ {
		fast += cl.TroxyStats(i).FastReadOK
	}
	if fast == 0 {
		t.Error("no fast reads served despite repeated identical reads")
	}
}

func TestWriteInvalidatesCachedRead(t *testing.T) {
	// The linearizability core: a completed write must be visible to every
	// subsequent read, cached or not (Section IV-B).
	cl, net := newTestCluster(t, ETroxy, true)
	ops := []workload.Op{
		{Op: []byte("PUT k v1"), Read: false},
		{Op: []byte("GET k"), Read: true}, // populates caches
		{Op: []byte("GET k"), Read: true}, // fast read
		{Op: []byte("PUT k v2"), Read: false},
		{Op: []byte("GET k"), Read: true}, // MUST see v2
	}
	results := &resultCapture{}
	lc := legacyclient.New(legacyclient.Config{
		Machine: 10, Clients: 1, FirstClientID: 1000,
		Replicas: cl.ReplicaIDs(), ServerPub: cl.ServerPub,
		Gen: &scriptGen{ops: ops}, MaxOps: len(ops), Timeout: time.Second,
	})
	net.Attach(10, lc)
	_ = results
	net.Run(20 * time.Second)
	if lc.Done() != len(ops) {
		t.Fatalf("completed %d/%d", lc.Done(), len(ops))
	}
	// All replicas agree the final value is v2.
	for i := 0; i < 3; i++ {
		if got := cl.App(i).Execute([]byte("GET k")); string(got) != "VALUE v2" {
			t.Errorf("replica %d GET k = %q", i, got)
		}
	}
	inval := uint64(0)
	for i := 0; i < 3; i++ {
		inval += cl.TroxyStats(i).Cache.Invalidations
	}
	if inval == 0 {
		t.Error("write did not invalidate any cache entry")
	}
}

type resultCapture struct{ results [][]byte }

func TestTroxyCrashFailover(t *testing.T) {
	cl, net := newTestCluster(t, ETroxy, false)
	ops := kvOps("PUT a 1", "GET a", "PUT a 2", "GET a", "PUT a 3", "GET a")
	lc := legacyclient.New(legacyclient.Config{
		Machine: 10, Clients: 1, FirstClientID: 1000,
		Replicas:  []msg.NodeID{2, 1, 0}, // connected to replica 2 first
		ServerPub: cl.ServerPub,
		Gen:       &scriptGen{ops: ops}, MaxOps: len(ops),
		Timeout: 300 * time.Millisecond,
	})
	net.Attach(10, lc)
	net.Run(30 * time.Millisecond)
	// Crash the replica the client is connected to; it must fail over and
	// finish ("this case is equivalent to a failing service replica in
	// commodity infrastructures", Section I).
	net.Crash(2)
	net.Run(30 * time.Second)
	if lc.Done() != len(ops) {
		t.Fatalf("completed %d/%d after Troxy crash", lc.Done(), len(ops))
	}
	if got := cl.App(0).Execute([]byte("GET a")); string(got) != "VALUE 3" {
		t.Errorf("final value = %q", got)
	}
}

func TestLeaderCrashWithTroxy(t *testing.T) {
	cl, net := newTestCluster(t, ETroxy, false)
	ops := kvOps("PUT a 1", "PUT a 2", "PUT a 3", "PUT a 4", "GET a")
	lc := legacyclient.New(legacyclient.Config{
		Machine: 10, Clients: 1, FirstClientID: 1000,
		Replicas:  []msg.NodeID{1, 2}, // connected to followers only
		ServerPub: cl.ServerPub,
		Gen:       &scriptGen{ops: ops}, MaxOps: len(ops),
		Timeout: 2 * time.Second,
	})
	net.Attach(10, lc)
	net.Run(20 * time.Millisecond)
	net.Crash(0) // leader
	net.Run(60 * time.Second)
	if lc.Done() != len(ops) {
		t.Fatalf("completed %d/%d after leader crash", lc.Done(), len(ops))
	}
	if v := cl.Replicas[1].Core().View(); v == 0 {
		t.Error("view change did not happen")
	}
	if got := cl.App(1).Execute([]byte("GET a")); string(got) != "VALUE 4" {
		t.Errorf("final value = %q", got)
	}
}

// corruptingEnv wraps node.Env and flips a byte in the result of every
// OrderedReply of every reply batch the replica sends: the behaviour of a
// Byzantine untrusted replica part trying to deliver wrong results. A reply
// batch has no transport MAC to re-seal, so only the Troxy's group tag
// (computed inside the enclave, over the original content) can expose the
// manipulation.
type corruptingEnv struct {
	node.Env
}

func (c corruptingEnv) Send(e *msg.Envelope) {
	if e.Kind == msg.KindReplyBatch {
		// The replies decode as views of the copy, so flipping a result
		// byte rewrites the copy's body in place.
		e = faultplane.CloneEnvelope(e)
		batch := msg.ReplyBatch{Replies: e.Body}
		var rep msg.OrderedReply
		for it := batch.Iter(); ; {
			if more, _ := it.Next(&rep); !more {
				break
			}
			if len(rep.Result) > 0 {
				rep.Result[0] ^= 0xff
			}
		}
	}
	c.Env.Send(e)
}

// corruptingReplica wraps a replica handler with the corrupting env.
type corruptingReplica struct {
	inner node.Handler
}

func (c *corruptingReplica) OnStart(env node.Env) {
	c.inner.OnStart(corruptingEnv{env})
}
func (c *corruptingReplica) OnEnvelope(env node.Env, e *msg.Envelope) {
	c.inner.OnEnvelope(corruptingEnv{env}, e)
}
func (c *corruptingReplica) OnTimer(env node.Env, key node.TimerKey) {
	c.inner.OnTimer(corruptingEnv{env}, key)
}

func TestByzantineReplyOutvoted(t *testing.T) {
	// Replica 2's untrusted part corrupts the replies it sends. The voter
	// must reject them (the Troxy tag no longer verifies) and clients still
	// receive correct results from the other f+1 replicas.
	cl, err := NewCluster(ClusterConfig{
		Mode: ETroxy, App: app.NewStoreFactory(), Classify: storeClassifier(),
		Seed: 11, ViewChangeTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(3, nil)
	net.SetDefaultLink(simnet.FixedLatency(2 * time.Millisecond))
	for i, r := range cl.Replicas {
		if i == 2 {
			net.Attach(msg.NodeID(i), &corruptingReplica{inner: r})
			continue
		}
		net.Attach(msg.NodeID(i), r)
	}

	ops := kvOps("PUT a correct-value", "GET a")
	lc := legacyclient.New(legacyclient.Config{
		Machine: 10, Clients: 1, FirstClientID: 1000,
		Replicas:  []msg.NodeID{0},
		ServerPub: cl.ServerPub,
		Gen:       &scriptGen{ops: ops}, MaxOps: len(ops), Timeout: time.Second,
	})
	net.Attach(10, lc)
	net.Run(20 * time.Second)

	if lc.Done() != len(ops) {
		t.Fatalf("completed %d/%d with a Byzantine replica", lc.Done(), len(ops))
	}
	if cl.TroxyStats(0).BadReplies == 0 {
		t.Error("voter accepted corrupted replies (or never saw them)")
	}
	if got := cl.App(0).Execute([]byte("GET a")); !bytes.Contains(got, []byte("correct-value")) {
		t.Errorf("state = %q", got)
	}
}

func TestEnclaveRestartLosesCacheButStaysSafe(t *testing.T) {
	cl, net := newTestCluster(t, ETroxy, true)
	ops := []workload.Op{
		{Op: []byte("PUT k v"), Read: false},
		{Op: []byte("GET k"), Read: true},
		{Op: []byte("GET k"), Read: true},
	}
	lc := legacyclient.New(legacyclient.Config{
		Machine: 10, Clients: 1, FirstClientID: 1000,
		Replicas: cl.ReplicaIDs(), ServerPub: cl.ServerPub,
		Gen: &scriptGen{ops: ops}, MaxOps: len(ops), Timeout: 500 * time.Millisecond,
	})
	net.Attach(10, lc)
	net.Run(10 * time.Second)
	if lc.Done() != len(ops) {
		t.Fatalf("completed %d/%d", lc.Done(), len(ops))
	}

	// Rollback attack: restart replica 1's enclave. The cache must be empty
	// afterwards; the system keeps answering via ordering (the client's
	// channel to replica 1 dies, but this client is connected to 0).
	cl.Enclaves[1].Restart()
	if err := cl.Enclaves[1].Provision(cl.secrets); err != nil {
		t.Fatal(err)
	}
	if got := cl.TroxyStats(1).Cache.Entries; got != 0 {
		t.Errorf("cache entries after restart = %d, want 0", got)
	}

	// New reads still succeed (ordered or fast) after the restart.
	gen2 := &scriptGen{ops: kvOps("GET k", "GET k")}
	lc2 := legacyclient.New(legacyclient.Config{
		Machine: 11, Clients: 1, FirstClientID: 2000,
		Replicas: cl.ReplicaIDs(), ServerPub: cl.ServerPub,
		Gen: gen2, MaxOps: 2, Timeout: 500 * time.Millisecond,
	})
	net.Attach(11, lc2)
	net.Run(30 * time.Second)
	if lc2.Done() != 2 {
		t.Fatalf("post-restart client completed %d/2", lc2.Done())
	}
}

// TestReincarnatedFollowerCatchesUp replaces replica 2 mid-run with one built
// from nothing — new enclave, counters at zero, empty application, new core —
// and holds that it catches up through state transfer to replica 0's state
// while the client finishes, in every mode.
func TestReincarnatedFollowerCatchesUp(t *testing.T) {
	const ops = 120
	script := make([]string, ops)
	for i := range script {
		script[i] = fmt.Sprintf("PUT k%d v%d", i%40, i)
	}
	for _, mode := range []Mode{Baseline, CTroxy, ETroxy} {
		t.Run(mode.String(), func(t *testing.T) {
			cl, net := newTestCluster(t, mode, false)
			gen := &scriptGen{ops: kvOps(script...)}
			var done func() int
			if mode == Baseline {
				bc := bftclient.New(bftclient.Config{
					Machine: 10, Clients: 1, FirstClientID: 1000, N: 3, F: 1,
					Directory: cl.Directory, Gen: gen, MaxOps: ops, Timeout: time.Second,
				})
				net.Attach(10, bc)
				done = bc.Done
			} else {
				lc := legacyclient.New(legacyclient.Config{
					Machine: 10, Clients: 1, FirstClientID: 1000,
					Replicas: cl.ReplicaIDs(), ServerPub: cl.ServerPub,
					Gen: gen, MaxOps: ops, Timeout: time.Second,
				})
				net.Attach(10, lc)
				done = lc.Done
			}
			old := cl.Enclaves[2]
			net.At(300*time.Millisecond, func() {
				if err := cl.Reincarnate(net, 2); err != nil {
					t.Errorf("reincarnate: %v", err)
				}
			})
			net.Run(30 * time.Second)

			if cl.Enclaves[2] == old {
				t.Fatal("replica 2 kept its enclave")
			}
			if got := done(); got != ops {
				t.Fatalf("client completed %d/%d ops", got, ops)
			}
			if m := cl.Replicas[2].Core().Metrics(); m.StateChunksReceived == 0 {
				t.Errorf("the reincarnated replica received no state chunks (lastExec %d)", cl.Replicas[2].Core().LastExecuted())
			}
			if app.StateDigest(cl.App(2)) != app.StateDigest(cl.App(0)) {
				t.Error("the reincarnated replica's state differs from replica 0's")
			}
		})
	}
}

func TestModeString(t *testing.T) {
	if Baseline.String() != "BL" || CTroxy.String() != "ctroxy" || ETroxy.String() != "etroxy" {
		t.Error("mode names wrong")
	}
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{N: 4, F: 1, App: app.NewStoreFactory()}); err == nil {
		t.Error("N != 2F+1 accepted")
	}
	if _, err := NewCluster(ClusterConfig{N: 65, F: 32, App: app.NewStoreFactory()}); err == nil {
		t.Error("more replicas accepted than a reply vote can count")
	}
	if _, err := NewCluster(ClusterConfig{}); err == nil {
		t.Error("missing app factory accepted")
	}
	// Embedding the interface hides Store's Fork.
	type unforkable struct{ app.Application }
	noFork := func() app.Application { return unforkable{app.NewStore()} }
	if _, err := NewCluster(ClusterConfig{App: noFork, CommitLevels: true}); err == nil {
		t.Error("CommitLevels accepted with an application that cannot fork")
	}
	if _, err := NewCluster(ClusterConfig{App: noFork}); err != nil {
		t.Errorf("an application that cannot fork refused without CommitLevels: %v", err)
	}
}

// Speculation runs on a fork of each replica's one application: the factory
// is asked for N instances, not for a second one per replica.
func TestCommitLevelsBuildsOneApplicationPerReplica(t *testing.T) {
	calls := 0
	cl, err := NewCluster(ClusterConfig{
		App:          func() app.Application { calls++; return app.NewStore() },
		CommitLevels: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != cl.Config.N {
		t.Errorf("App factory called %d times for %d replicas", calls, cl.Config.N)
	}
}
