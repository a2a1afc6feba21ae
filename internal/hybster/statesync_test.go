package hybster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/faultplane"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/simnet"
	"github.com/troxy-bft/troxy/internal/tcounter"
)

// judgeFunc adapts a plain function to faultplane.Judge for targeted drops.
type judgeFunc func(now time.Duration, from, to msg.NodeID, kind msg.Kind) faultplane.Decision

func (f judgeFunc) Judge(now time.Duration, from, to msg.NodeID, kind msg.Kind) faultplane.Decision {
	return f(now, from, to, kind)
}

// TestStateFetchRetryAfterDroppedReply is the deterministic regression for
// the state-fetch wedge: before the fetch timer existed, a single dropped
// StateReply stalled recovery forever, because re-notification of the same
// stable checkpoint was suppressed and nothing ever re-sent the request. Now
// the jittered backoff timer must fire, re-request, and complete the
// transfer.
func TestStateFetchRetryAfterDroppedReply(t *testing.T) {
	cl := newCluster(t, 3, nil, opScript(40)...)
	// Drop every StateReply toward replica 2 until its fetch timer has fired
	// at least once: under continuous traffic a newer checkpoint can
	// supersede a wedged fetch before the backoff expires, so a single drop
	// would not pin the timer path. This judge forces exactly the old wedge
	// condition — replies lost, nothing but the timer to recover — then
	// heals.
	dropped := 0
	cl.net.SetFault(judgeFunc(func(_ time.Duration, _, to msg.NodeID, kind msg.Kind) faultplane.Decision {
		if kind == msg.KindStateReply && to == 2 &&
			cl.replicas[2].core.Metrics().StateFetchRetries == 0 {
			dropped++
			return faultplane.Decision{Drop: true}
		}
		return faultplane.Decision{}
	}))

	cl.net.Run(100 * time.Millisecond)
	cl.net.Crash(2)
	cl.net.Run(30 * time.Second)
	if !cl.client.done {
		t.Fatalf("client stalled during partition: %d/40", cl.client.current)
	}
	behind := cl.replicas[2].core.LastExecuted()
	cl.net.Restore(2)

	extra := &testClient{id: 99, n: 3, f: 1, ops: toOps(opScript(30))}
	cl.net.AttachConfig(99, extra, simnet.NodeConfig{})
	cl.net.Run(60 * time.Second)

	if !extra.done {
		t.Fatalf("extra client stalled: %d/30", extra.current)
	}
	if dropped == 0 {
		t.Fatal("judge never intercepted a StateReply")
	}
	r2 := cl.replicas[2].core
	m := r2.Metrics()
	if m.StateFetchRetries == 0 {
		t.Error("no fetch retry recorded after the dropped StateReply")
	}
	if r2.LastExecuted() <= behind {
		t.Errorf("replica 2 did not catch up: %d -> %d", behind, r2.LastExecuted())
	}
	if m.StateChunksReceived == 0 {
		t.Error("no chunks received")
	}
	if !bytes.Equal(cl.apps[1].Snapshot(), cl.apps[2].Snapshot()) {
		t.Error("replica 2 state diverged after catch-up")
	}
}

// judged is one message the fault judge saw.
type judged struct {
	now      time.Duration
	from, to msg.NodeID
	kind     msg.Kind
}

// TestStateFetchRotatesOnUnresponsivePeer starves the fetcher's first-choice
// server: replica 0 never answers replica 2's state-transfer traffic (its
// replies and chunks are dropped). The retry timer must rotate the fetch to
// replica 1 — the other digest voter — and complete from there. The scenario
// runs twice at one seed, and both runs must put the same messages on the
// wire at the same times: the retry timer's jitter comes from the node's
// seeded source, not from the process.
func TestStateFetchRotatesOnUnresponsivePeer(t *testing.T) {
	if first, second := rotateOnUnresponsivePeer(t), rotateOnUnresponsivePeer(t); !slices.Equal(first, second) {
		t.Fatalf("two runs at one seed judged different traffic (%d and %d messages)", len(first), len(second))
	}
}

// rotateOnUnresponsivePeer runs the scenario of
// TestStateFetchRotatesOnUnresponsivePeer and returns every message its
// judge saw.
func rotateOnUnresponsivePeer(t *testing.T) []judged {
	t.Helper()
	cl := newCluster(t, 3, nil, opScript(40)...)
	var trace []judged
	dropped := 0
	cl.net.SetFault(judgeFunc(func(now time.Duration, from, to msg.NodeID, kind msg.Kind) faultplane.Decision {
		trace = append(trace, judged{now, from, to, kind})
		if from == 0 && to == 2 && (kind == msg.KindStateReply || kind == msg.KindStateChunk || kind == msg.KindStatePrefix) {
			dropped++
			return faultplane.Decision{Drop: true}
		}
		return faultplane.Decision{}
	}))

	cl.net.Run(100 * time.Millisecond)
	cl.net.Crash(2)
	cl.net.Run(30 * time.Second)
	if !cl.client.done {
		t.Fatalf("client stalled during partition: %d/40", cl.client.current)
	}
	behind := cl.replicas[2].core.LastExecuted()
	cl.net.Restore(2)

	extra := &testClient{id: 99, n: 3, f: 1, ops: toOps(opScript(30))}
	cl.net.AttachConfig(99, extra, simnet.NodeConfig{})
	cl.net.Run(60 * time.Second)

	if !extra.done {
		t.Fatalf("extra client stalled: %d/30", extra.current)
	}
	if dropped == 0 {
		t.Fatal("judge never intercepted state traffic from replica 0")
	}
	r2 := cl.replicas[2].core
	m := r2.Metrics()
	if m.StateFetchRotations == 0 {
		t.Error("fetch never rotated away from the unresponsive peer")
	}
	if m.StateChunksReceived == 0 {
		t.Error("no chunks received from the responsive peer")
	}
	if r2.LastExecuted() <= behind {
		t.Errorf("replica 2 did not catch up: %d -> %d", behind, r2.LastExecuted())
	}
	if !bytes.Equal(cl.apps[1].Snapshot(), cl.apps[2].Snapshot()) {
		t.Error("replica 2 state diverged after catch-up")
	}
	return trace
}

// newStateCore builds a standalone core (no simnet) with a small chunk size,
// for driving the statesync handlers directly.
func newStateCore(id msg.NodeID, chunkSize, window int) *testReplica {
	sub := tcounter.NewSubsystem(id)
	sub.SetKey([]byte("test-counter-key"))
	cfg := Config{
		Self:               id,
		N:                  3,
		F:                  1,
		CheckpointInterval: 8,
		ViewChangeTimeout:  time.Second,
		Profile:            node.ProfileJava,
		Authority:          tcounter.Direct{S: sub},
		App:                app.NewStore(),
		SnapshotChunkSize:  chunkSize,
		StateChunkWindow:   window,
	}
	r := &testReplica{id: id}
	r.core = New(cfg, r)
	return r
}

// TestStateChunkVerification drives the chunk handler through the
// verification table: a Byzantine peer serving tampered or malformed chunks
// must be rejected (and attributed), stale and out-of-window traffic must be
// bounded, and the fetch must still complete from another peer's correct
// chunks — including out-of-order arrival through the bounded window.
func TestStateChunkVerification(t *testing.T) {
	const chunkSize, window = 16, 4
	var env fakeEnv

	// A server with real state: application keys plus a client-table entry,
	// so the head spans several chunks.
	srv := newStateCore(0, chunkSize, window)
	srvStore := srv.core.cfg.App.(*app.Store)
	for i := 0; i < 50; i++ {
		srvStore.Execute([]byte(fmt.Sprintf("PUT key-%02d value-%04d", i, i)))
	}
	srv.core.clients[7] = &clientRecord{lastSeq: 3, seq: 9, result: []byte("OK")}
	cs := srv.core.buildChunkedSnapshot()
	m, err := decodeManifest(cs.manifestBytes)
	if err != nil {
		t.Fatal(err)
	}
	n := m.nChunks()
	if m.headChunks < 2 || n < m.headChunks+uint32(window)+2 {
		t.Fatalf("snapshot has %d head chunks of %d, need several of each for the window cases", m.headChunks, n)
	}

	// A fetcher with an active transfer; the manifest installs through the
	// real handler, verified against the agreed digest.
	fc := newStateCore(2, chunkSize, window).core
	fc.fetch = &stateFetch{seq: 8, digest: cs.digest, peers: []msg.NodeID{0, 1}}
	fc.OnStateReply(&env, 0, &StateReply{Seq: 8, Manifest: cs.manifestBytes})
	if fc.fetch == nil || fc.fetch.manifest == nil {
		t.Fatal("manifest did not install from a digest-correct StateReply")
	}

	chunkData := func(i uint32) []byte {
		data, ok := cs.chunk(i) // encoded afresh on every call
		if !ok {
			t.Fatalf("no chunk %d", i)
		}
		return data
	}

	// Stale seq: silently ignored, nothing counted.
	fc.OnMessage(&env, 1, &StateChunk{Seq: 4, Index: 0, Data: chunkData(0)})
	if m := fc.Metrics(); m.StateChunksReceived != 0 || m.StateChunkRejects != 0 {
		t.Fatalf("stale-seq chunk counted: %+v", m)
	}

	// Tampered payload from the Byzantine peer 0: rejected and attributed.
	bad := chunkData(0)
	bad[0] ^= 0x01
	fc.OnMessage(&env, 0, &StateChunk{Seq: 8, Index: 0, Data: bad})
	if m := fc.Metrics(); m.StateChunkRejects != 1 || m.StateChunksReceived != 0 {
		t.Fatalf("tampered chunk not rejected: %+v", m)
	}
	if got := fc.RejectedCertsFrom(0); got != 1 {
		t.Fatalf("tampering not attributed to peer 0: RejectedCertsFrom = %d", got)
	}
	if fc.fetch.next != 0 {
		t.Fatalf("tampered chunk advanced the stream to %d", fc.fetch.next)
	}

	// Wrong length: rejected and attributed before any hashing.
	fc.OnMessage(&env, 0, &StateChunk{Seq: 8, Index: 0, Data: chunkData(0)[:chunkSize-1]})
	if m := fc.Metrics(); m.StateChunkRejects != 2 {
		t.Fatalf("short chunk not rejected: %+v", m)
	}
	if got := fc.RejectedCertsFrom(0); got != 2 {
		t.Fatalf("short chunk not attributed: RejectedCertsFrom = %d", got)
	}

	// Right length, record framing that does not parse — a length prefix
	// far beyond the chunk, then one that cuts its record a byte short:
	// rejected and attributed like any other digest mismatch, and nothing
	// of the chunk reaches the head decoder or the sink.
	for i, prefix := range []uint32{0xffffffff, chunkSize - 4 - 1} {
		bad := chunkData(0)
		binary.LittleEndian.PutUint32(bad, prefix)
		fc.OnMessage(&env, 0, &StateChunk{Seq: 8, Index: 0, Data: bad})
		if m := fc.Metrics(); m.StateChunkRejects != uint64(3+i) || m.StateChunksReceived != 0 {
			t.Fatalf("mis-framed chunk (prefix %#x) not rejected: %+v", prefix, m)
		}
		if got := fc.RejectedCertsFrom(0); got != uint64(3+i) {
			t.Fatalf("mis-framed chunk not attributed: RejectedCertsFrom = %d", got)
		}
	}
	if fc.fetch.next != 0 || len(fc.fetch.headBuf) != 0 {
		t.Fatalf("rejected chunks reached the assembler: next %d, %d head bytes", fc.fetch.next, len(fc.fetch.headBuf))
	}

	// Beyond the request window: refused (bounded buffering) but not
	// attributed — it can be honest traffic racing a window slide.
	fc.OnMessage(&env, 1, &StateChunk{Seq: 8, Index: window, Data: chunkData(window)})
	if m := fc.Metrics(); m.StateChunkRejects != 5 {
		t.Fatalf("out-of-window chunk not refused: %+v", m)
	}
	if got := fc.RejectedCertsFrom(1); got != 0 {
		t.Fatalf("out-of-window chunk wrongly attributed: RejectedCertsFrom = %d", got)
	}

	// Correct out-of-order chunk from peer 1 buffers; a duplicate is dropped
	// without growing the window.
	fc.OnMessage(&env, 1, &StateChunk{Seq: 8, Index: 2, Data: chunkData(2)})
	fc.OnMessage(&env, 1, &StateChunk{Seq: 8, Index: 2, Data: chunkData(2)})
	if len(fc.fetch.window) != 1 || fc.fetch.buffered != len(chunkData(2)) {
		t.Fatalf("duplicate buffered: window %d entries, %d bytes", len(fc.fetch.window), fc.fetch.buffered)
	}
	if fc.fetch.next != 0 {
		t.Fatalf("out-of-order chunk advanced the stream to %d", fc.fetch.next)
	}

	// In-order chunks 0 and 1 apply; 1 drains the buffered 2 behind it.
	fc.OnMessage(&env, 1, &StateChunk{Seq: 8, Index: 0, Data: chunkData(0)})
	if fc.fetch.next != 1 {
		t.Fatalf("next = %d after chunk 0, want 1", fc.fetch.next)
	}
	fc.OnMessage(&env, 1, &StateChunk{Seq: 8, Index: 1, Data: chunkData(1)})
	if fc.fetch.next != 3 || len(fc.fetch.window) != 0 || fc.fetch.buffered != 0 {
		t.Fatalf("buffered chunk did not drain: next %d, window %d, buffered %d",
			fc.fetch.next, len(fc.fetch.window), fc.fetch.buffered)
	}

	// The rest arrives in order from the correct peer; the transfer must
	// complete despite peer 0's earlier tampering.
	for i := uint32(3); i < n; i++ {
		fc.OnMessage(&env, 1, &StateChunk{Seq: 8, Index: i, Data: chunkData(i)})
	}
	if fc.fetch != nil {
		t.Fatalf("fetch still active after all %d chunks", n)
	}
	if got := fc.LastExecuted(); got != 8 {
		t.Fatalf("LastExecuted = %d after install, want 8", got)
	}
	fcStore := fc.cfg.App.(*app.Store)
	if !bytes.Equal(fcStore.Snapshot(), srvStore.Snapshot()) {
		t.Error("installed application state differs from the server's")
	}
	rec := fc.clients[7]
	if rec == nil || rec.seq != 9 || rec.lastSeq != 3 || string(rec.result) != "OK" {
		t.Errorf("client table not installed: %+v", rec)
	}
}

// TestLateStateReplyDoesNotRewind: a manifest that arrives after ordinary
// execution passed the checkpoint ends the fetch instead of installing — the
// install would put lastExec back below executed entries and wedge the commit
// queue (the bug PR 4's pipeline tests found). A rewind transfer is the
// exception: rolling a diverged replica back is what it is for.
func TestLateStateReplyDoesNotRewind(t *testing.T) {
	var env fakeEnv
	srv := newStateCore(0, 64, 4)
	srv.core.cfg.App.Execute([]byte("PUT k v"))
	cs := srv.core.buildChunkedSnapshot()
	for _, rewind := range []bool{false, true} {
		fc := newStateCore(2, 64, 4).core
		fc.fetch = &stateFetch{seq: 8, digest: cs.digest, rewind: rewind, peers: []msg.NodeID{0, 1}}
		fc.lastExec = 9 // execution caught up while the reply was in flight
		fc.OnStateReply(&env, 0, &StateReply{Seq: 8, Manifest: cs.manifestBytes})
		if installed := fc.fetch != nil && fc.fetch.manifest != nil; installed != rewind {
			t.Errorf("rewind %v: manifest installed = %v", rewind, installed)
		}
		if !rewind && fc.fetch != nil {
			t.Error("the overtaken fetch was not abandoned")
		}
		if got := fc.LastExecuted(); got != 9 {
			t.Errorf("rewind %v: LastExecuted = %d after the reply alone, want 9", rewind, got)
		}
	}
}

// catchUp runs the crash/catch-up scenario the transfer tests share: replica 2
// is cut off early, misses the first script, comes back and has to
// state-transfer in while a second client runs the second script.
func catchUp(t *testing.T, cfgMut func(*Config), during, after []string) *cluster {
	t.Helper()
	cl := newCluster(t, 3, cfgMut, during...)
	cl.net.Run(100 * time.Millisecond)
	cl.net.Crash(2)
	cl.net.Run(30 * time.Second)
	if !cl.client.done {
		t.Fatalf("client stalled during partition: %d/%d", cl.client.current, len(during))
	}
	cl.net.Restore(2)
	extra := &testClient{id: 99, n: 3, f: 1, ops: toOps(after)}
	cl.net.AttachConfig(99, extra, simnet.NodeConfig{})
	cl.net.Run(60 * time.Second)
	if !extra.done {
		t.Fatalf("second client stalled: %d/%d", extra.current, len(after))
	}
	if m := cl.replicas[2].core.Metrics(); m.StateTransfers == 0 || m.StateChunksReceived == 0 {
		t.Fatalf("replica 2 did not state-transfer: %+v", m)
	}
	return cl
}

// TestTransferredReplicaVotesSameDigest pins the layout rule: a checkpoint's
// chunks — and so the digest CHECKPOINT votes carry — depend on the state
// only, not on how a replica got there. Replica 2 receives its store from
// chunks, replicas 0 and 1 built theirs by executing every write, delete and
// re-put; at the next checkpoints all three must cut the same manifest, or
// replica 2 would be told it diverged and rewind.
func TestTransferredReplicaVotesSameDigest(t *testing.T) {
	var during, after []string
	for i := 0; i < 60; i++ {
		during = append(during, fmt.Sprintf("PUT key-%d first-%d", i%23, i))
		if i%4 == 3 {
			during = append(during, fmt.Sprintf("DEL key-%d", (i*7)%23))
		}
	}
	for i := 0; i < 40; i++ {
		after = append(after, fmt.Sprintf("DEL key-%d", i%23), fmt.Sprintf("PUT key-%d again-%d", i%23, i))
	}
	cl := catchUp(t, func(c *Config) { c.SnapshotChunkSize = 64 }, during, after)

	stable := cl.replicas[0].core.stableSeq
	want, ok := cl.replicas[0].core.ownCheckpoints[stable]
	if !ok {
		t.Fatalf("replica 0 holds no own checkpoint at its stable seq %d", stable)
	}
	for i, r := range cl.replicas {
		// An own checkpoint exists only where the replica executed up to the
		// sequence number itself; for replica 2 that is after the transfer.
		own, ok := r.core.ownCheckpoints[stable]
		if !ok {
			t.Fatalf("replica %d holds no own checkpoint at %d (stable %d, executed %d)",
				i, stable, r.core.stableSeq, r.core.LastExecuted())
		}
		if own.digest != want.digest {
			t.Errorf("replica %d votes a different digest at %d", i, stable)
		}
		wantTransfers := uint64(0)
		if i == 2 {
			wantTransfers = 1 // one catch-up, and no divergence rewind after it
		}
		if got := r.core.Metrics().StateTransfers; got != wantTransfers {
			t.Errorf("replica %d: %d state transfers, want %d", i, got, wantTransfers)
		}
		if !bytes.Equal(cl.apps[i].Snapshot(), cl.apps[0].Snapshot()) {
			t.Errorf("replica %d state diverged", i)
		}
	}
}

// forwardOnly forwards the Application methods and nothing else, the way a
// decorator written before app.Checkpointer existed does: the wrapped store's
// native checkpoints are out of reach and the adapter has to serve.
type forwardOnly struct{ app.Application }

// TestStateTransferThroughAdapter round-trips the applications without
// native checkpoints through a real catch-up: their monolithic snapshot is
// cut into single-record chunks on the serving side and streamed back into
// Restore on the fetching side.
func TestStateTransferThroughAdapter(t *testing.T) {
	script := func(n int, op func(i int) []byte) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = string(op(i))
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		newApp func() app.Application
		op     func(i int) []byte
	}{
		{"pages", func() app.Application { return app.NewPages() },
			func(i int) []byte { return app.PagePost(fmt.Sprintf("/p/%d", i%7), []byte(fmt.Sprintf("body %d", i))) }},
		{"bench", func() app.Application { return app.NewBench(64) },
			func(i int) []byte { return app.BenchWrite(uint64(i), 32) }},
		{"decorated-store", func() app.Application { return forwardOnly{app.NewStore()} },
			func(i int) []byte { return []byte(fmt.Sprintf("PUT key-%d value-%d", i%9, i)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			apps := make([]app.Application, 3)
			cl := catchUp(t, func(c *Config) {
				apps[c.Self] = tc.newApp()
				c.App = apps[c.Self]
				c.SnapshotChunkSize = 24
			}, script(40, tc.op), script(30, func(i int) []byte { return tc.op(40 + i) }))
			for i, a := range apps {
				if !bytes.Equal(a.Snapshot(), apps[0].Snapshot()) {
					t.Errorf("replica %d state diverged after catch-up", i)
				}
				if got := cl.replicas[i].core.Metrics().RejectedCerts; got != 0 {
					t.Errorf("replica %d rejected %d certificates", i, got)
				}
			}
		})
	}
}

// TestRetainedCheckpointServesItsOwnState: a checkpoint retained for serving
// is a view of the state at the moment it was cut. Intervals of later writes
// to the live application — overwrites, deletes, deleted keys put back — and
// later checkpoints must not show through: every chunk still verifies
// against the voted manifest and a fetcher installs the old state.
func TestRetainedCheckpointServesItsOwnState(t *testing.T) {
	const chunkSize, window = 64, 4
	var env fakeEnv
	srv := newStateCore(0, chunkSize, window)
	store := srv.core.cfg.App.(*app.Store)
	for i := 0; i < 200; i++ {
		store.Execute([]byte(fmt.Sprintf("PUT key-%03d value-%d", i, i)))
	}
	cs := srv.core.buildChunkedSnapshot()
	frozen := store.Snapshot()

	for interval := 0; interval < 3; interval++ {
		for i := interval; i < 200; i += 2 {
			store.Execute([]byte(fmt.Sprintf("DEL key-%03d", i)))
			if i%4 < 2 {
				store.Execute([]byte(fmt.Sprintf("PUT key-%03d back-%d", i, interval)))
			}
		}
		if later := srv.core.buildChunkedSnapshot(); later.digest == cs.digest {
			t.Fatal("the live state did not change (test is vacuous)")
		}
	}

	fc := newStateCore(2, chunkSize, window).core
	fc.fetch = &stateFetch{seq: 8, digest: cs.digest, peers: []msg.NodeID{0, 1}}
	fc.OnStateReply(&env, 0, &StateReply{Seq: 8, Manifest: cs.manifestBytes})
	for i := uint32(0); fc.fetch != nil; i++ {
		data, ok := cs.chunk(i)
		if !ok {
			t.Fatalf("fetch still active after all %d chunks", i)
		}
		fc.OnMessage(&env, 0, &StateChunk{Seq: 8, Index: i, Data: data})
	}
	if m := fc.Metrics(); m.StateChunkRejects != 0 {
		t.Fatalf("chunks of a retained checkpoint were rejected: %+v", m)
	}
	if !bytes.Equal(fc.cfg.App.(*app.Store).Snapshot(), frozen) {
		t.Fatal("fetcher installed something other than the state the checkpoint was cut from")
	}
}
