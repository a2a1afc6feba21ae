package troxy

// Large-state crash/restart soak for chunked state transfer: the cluster
// carries a key-value state far larger than a checkpoint interval's worth of
// traffic, replicas 1 and 2 crash and restart in rolling cycles while mixed
// read/write load runs, and every restart must catch back up through the
// streaming chunked transfer — under a judge that blacks out state-transfer
// traffic for a window after each restart, so the jittered-backoff retry and
// voter-rotation paths are exercised on every cycle, not just on unlucky
// schedules.
//
// Pass criteria:
//   - liveness of the observed client history, and the chaos suite's
//     checkRun: linearizability, convergence of all replica states (ballast
//     included) after heal, no correct certificate rejected, and, as nothing
//     corrupts a message, no unverified certificate, bad MAC or short reply
//     batch,
//   - every replica ends in one view, and no ballast key is lost,
//   - every restart catches up within a bounded virtual-time window,
//   - fetch buffering stays within the StateChunkWindow bound,
//   - process memory stays flat across cycles (no snapshot/commit-queue
//     leak), measured via runtime.MemStats ceilings per cycle.
//
// The quick shape (default, and what `make soak-quick` / CI runs) carries
// ~1 MiB of ballast with a 4 KiB chunk size — dozens of chunks per transfer,
// seconds of wall time. TROXY_SOAK_FULL=1 (`make soak`) scales to ~300 MiB
// and production chunk sizes; the virtual schedule is identical.

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/faultplane"
	"github.com/troxy-bft/troxy/internal/legacyclient"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/simnet"
	"github.com/troxy-bft/troxy/internal/workload"
)

// soakScale are the size knobs differing between quick and full runs.
type soakScale struct {
	name      string
	keys      int // ballast key count
	valueSize int // ballast value bytes per key
	chunkSize int
	window    int
	maxOps    int           // per logical client, paced at soakRate
	deadline  time.Duration // catch-up bound per restart
}

const soakRate = 4.0 // client ops/sec; keeps traffic flowing across cycles

func soakScaleFor() soakScale {
	if os.Getenv("TROXY_SOAK_FULL") != "" {
		// The catch-up bound scales with the state: a ~300 MiB transfer
		// costs seconds of (virtual) wire time, and a joiner can need a
		// second fetch generation when a fresh checkpoint supersedes its
		// first mid-stream. 15s holds that to at most a few generations;
		// the quick bound stays tight as the regression tripwire.
		return soakScale{name: "full", keys: 300_000, valueSize: 1024,
			chunkSize: 256 << 10, window: 16, maxOps: 120, deadline: 15 * time.Second}
	}
	return soakScale{name: "quick", keys: 4096, valueSize: 240,
		chunkSize: 4 << 10, window: 8, maxOps: 120, deadline: 5 * time.Second}
}

// soakCycle is one crash/restart of a replica, with a state-transfer
// blackout window after the restart and a catch-up deadline.
type soakCycle struct {
	node               msg.NodeID
	crashAt, restoreAt time.Duration
}

const (
	soakBlackout = 1200 * time.Millisecond // state traffic dropped after restore
	soakSlack    = 24                      // seqs a caught-up replica may trail
)

// stateDropJudge drops state-transfer messages toward a node during per-node
// windows. Ordering and client traffic pass untouched, so the blackout
// isolates exactly the fetch retry/rotation machinery.
type stateDropJudge struct {
	windows []soakCycle
	dropped int
}

func (j *stateDropJudge) Judge(now time.Duration, _, to msg.NodeID, kind msg.Kind) faultplane.Decision {
	switch kind {
	case msg.KindStateReply, msg.KindStateChunk, msg.KindStatePrefix:
	default:
		return faultplane.Decision{}
	}
	for i := range j.windows {
		w := &j.windows[i]
		if to == w.node && now >= w.restoreAt && now < w.restoreAt+soakBlackout {
			j.dropped++
			return faultplane.Decision{Drop: true}
		}
	}
	return faultplane.Decision{}
}

func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func TestSoakLargeState(t *testing.T) {
	sc := soakScaleFor()
	if testing.Short() && sc.name == "full" {
		t.Skip("full soak does not run with -short")
	}

	cl, err := NewCluster(ClusterConfig{
		Mode:               ETroxy,
		App:                app.NewStoreFactory(),
		Classify:           storeClassifier(),
		FastReads:          true,
		Seed:               4242,
		CheckpointInterval: 8,
		ViewChangeTimeout:  800 * time.Millisecond,
		TickInterval:       20 * time.Millisecond,
		QueryTimeout:       150 * time.Millisecond,
		PipelineDepth:      4,
		SnapshotChunkSize:  sc.chunkSize,
		StateChunkWindow:   sc.window,
		StateFetchTimeout:  300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Ballast: every replica starts from the identical large state, written
	// directly into the applications before the network exists. The keyspace
	// is disjoint from the workload's, so the linearizability checker only
	// sees live traffic while every snapshot, chunk stream and state digest
	// carries the full weight.
	value := strings.Repeat("x", sc.valueSize)
	for i := 0; i < cl.Config.N; i++ {
		st := cl.App(i)
		for k := 0; k < sc.keys; k++ {
			st.Execute([]byte(fmt.Sprintf("PUT ballast-%07d %s", k, value)))
		}
	}
	stateBytes := uint64(sc.keys) * uint64(sc.valueSize+32)

	net := simnet.New(4242, nil)
	net.SetDefaultLink(simnet.NormalLatency{
		Mean: 2 * time.Millisecond, Stddev: time.Millisecond, Min: 100 * time.Microsecond,
	})
	cl.Attach(net)

	// Rolling crash/restart schedule over the two followers; the leader
	// stays up so the soak measures state transfer, not view changes (chaos
	// covers those). Each restore is followed by a state-traffic blackout.
	cycles := []soakCycle{
		{node: 1, crashAt: 3 * time.Second, restoreAt: 6 * time.Second},
		{node: 2, crashAt: 10 * time.Second, restoreAt: 13 * time.Second},
		{node: 1, crashAt: 17 * time.Second, restoreAt: 20 * time.Second},
		{node: 2, crashAt: 24 * time.Second, restoreAt: 27 * time.Second},
	}
	judge := &stateDropJudge{windows: cycles}
	net.SetFault(judge)
	var plan faultplane.Plan
	for _, cy := range cycles {
		plan.Crashes = append(plan.Crashes, faultplane.CrashEvent{Node: cy.node, At: cy.crashAt, RestartAt: cy.restoreAt})
	}
	faultplane.ScheduleCrashes(net, net, plan)

	// Mixed paced traffic through the full Troxy stack, recorded for the
	// linearizability check.
	hist := &faultplane.History{}
	const machines, perMachine = 2, 3
	var lcs []*legacyclient.Machine
	for i := 0; i < machines; i++ {
		lc := legacyclient.New(legacyclient.Config{
			Machine:       msg.NodeID(100 + i),
			Clients:       perMachine,
			FirstClientID: uint64(1000 * (i + 1)),
			Replicas:      rotatedIDs(cl.ReplicaIDs(), i),
			ServerPub:     cl.ServerPub,
			Gen:           workload.KVGen{Keys: 48, ReadRatio: 0.5, ValueSize: 32},
			Rate:          soakRate,
			MaxOps:        sc.maxOps,
			Timeout:       time.Second,
			Observe:       hist.Observe,
		})
		lcs = append(lcs, lc)
		net.Attach(msg.NodeID(100+i), lc)
	}

	// Instrumentation scheduled into the virtual timeline: a heap baseline
	// before the first crash, a catch-up probe train after every restore,
	// and a heap sample at the end of every cycle.
	var (
		baselineHeap uint64
		cycleHeaps   []uint64
		catchups     = make([]time.Duration, len(cycles))
		violations   []string
	)
	net.At(2800*time.Millisecond, func() { baselineHeap = heapAfterGC() })
	maxExec := func() uint64 {
		var m uint64
		for i := 0; i < cl.Config.N; i++ {
			m = max(m, cl.Replicas[i].Core().LastExecuted())
		}
		return m
	}
	for ci := range cycles {
		ci := ci
		cy := cycles[ci]
		catchups[ci] = -1
		for k := time.Duration(1); k*250*time.Millisecond <= sc.deadline; k++ {
			delay := k * 250 * time.Millisecond
			net.At(cy.restoreAt+delay, func() {
				if catchups[ci] >= 0 {
					return
				}
				if cl.Replicas[cy.node].Core().LastExecuted()+soakSlack >= maxExec() {
					catchups[ci] = delay
				}
			})
		}
		net.At(cy.restoreAt+sc.deadline, func() {
			if catchups[ci] < 0 {
				violations = append(violations, fmt.Sprintf(
					"cycle %d: replica %d not caught up %v after restore (exec %d, cluster max %d)",
					ci, cy.node, sc.deadline,
					cl.Replicas[cy.node].Core().LastExecuted(), maxExec()))
			}
			cycleHeaps = append(cycleHeaps, heapAfterGC())
		})
	}

	net.Run(40 * time.Second)

	for i, lc := range lcs {
		if got, want := lc.Done(), perMachine*sc.maxOps; got != want {
			t.Fatalf("machine %d completed %d/%d operations", i, got, want)
		}
	}

	// Settling traffic drives a fresh stable checkpoint past the last
	// restart before convergence is judged.
	settle := legacyclient.New(legacyclient.Config{
		Machine:       102,
		Clients:       2,
		FirstClientID: 9000,
		Replicas:      cl.ReplicaIDs(),
		ServerPub:     cl.ServerPub,
		Gen:           workload.KVGen{Keys: 48, ReadRatio: 0.4, ValueSize: 32},
		MaxOps:        10,
		Timeout:       time.Second,
		Observe:       hist.Observe,
	})
	net.Attach(102, settle)
	net.Run(60 * time.Second)
	if got, want := settle.Done(), 2*10; got != want {
		t.Fatalf("settling machine completed %d/%d operations", got, want)
	}

	// The chaos invariants: the history is linearizable despite four
	// restarts; every replica holds the identical (large) state, ballast
	// included; no correct replica's certificate is rejected; and, as
	// nothing corrupts a message and every replica is correct, every
	// certificate verifies, every envelope passes transport authentication
	// and no reply batch is cut short.
	checkRun(t, chaosResult{seed: 4242, plan: plan, cl: cl, hist: hist})

	// Nothing was lost across the transfers, and views converge too:
	// restarts overlap view changes, and a replica that slept through one
	// must have adopted the current view (via the prefix's NEW-VIEW or a
	// solicitation) — a replica wedged in a stale view stops executing at
	// its transferred checkpoint and no longer votes, which is exactly the
	// regression this asserts against.
	for i := 1; i < cl.Config.N; i++ {
		if v0, vi := cl.Replicas[0].Core().View(), cl.Replicas[i].Core().View(); vi != v0 {
			t.Errorf("replica %d finished in view %d, replica 0 in view %d: a joiner never adopted the current view", i, vi, v0)
		}
	}
	if n := cl.App(0).(*app.Store).Len(); n < sc.keys {
		t.Fatalf("ballast lost: %d keys remain, seeded %d", n, sc.keys)
	}

	// Catch-up: every restart recovered within the deadline, through the
	// chunked path, with retries and rotation forced by the blackouts.
	if len(violations) > 0 {
		t.Fatalf("catch-up violations:\n  %s", strings.Join(violations, "\n  "))
	}
	if judge.dropped == 0 {
		t.Fatal("blackout windows never intercepted state traffic")
	}
	var transfers, chunks, retries, rotations, prefix, resyncs uint64
	for i := 0; i < cl.Config.N; i++ {
		m := cl.Replicas[i].Core().Metrics()
		transfers += m.StateTransfers
		chunks += m.StateChunksReceived
		retries += m.StateFetchRetries
		rotations += m.StateFetchRotations
		prefix += m.PrefixEntriesInstalled
		resyncs += m.CommitResyncs
		if bound := uint64(sc.window) * uint64(sc.chunkSize); m.MaxFetchBufferBytes > bound {
			t.Errorf("replica %d buffered %d chunk bytes, window bound %d",
				i, m.MaxFetchBufferBytes, bound)
		}
	}
	t.Logf("soak[%s]: transfers=%d chunks=%d retries=%d rotations=%d prefixEntries=%d commitResyncs=%d catchups=%v",
		sc.name, transfers, chunks, retries, rotations, prefix, resyncs, catchups)
	if transfers < uint64(len(cycles)) {
		t.Errorf("%d state transfers for %d restarts", transfers, len(cycles))
	}
	if chunks == 0 {
		t.Error("no chunk was received: transfers did not use the chunked path")
	}
	if retries == 0 || rotations == 0 {
		t.Errorf("blackouts forced no retry/rotation (retries=%d rotations=%d)", retries, rotations)
	}
	// prefixEntries is logged, not asserted: at 24 paced operations a second
	// the pipeline is idle at most instants, and whether a joiner's manifest
	// request meets an entry in flight is a coincidence of the schedule (one
	// entry in four transfers on one tree, none on the next). That a carried
	// entry is verified, installed and executed is pinned, with a count, by
	// hybster's TestPrefixReplayAfterViewAdoption, which builds the window
	// by hand.

	// Flat memory: after GC, every cycle-end heap stays under the baseline
	// plus one transferred state (the restore sink legitimately holds the
	// incoming state next to the old one) plus fixed slack. A leak of
	// retained snapshots or buffered commits grows cycle over cycle and
	// breaks the ceiling by the fourth restart.
	ceiling := baselineHeap + 2*stateBytes + (64 << 20)
	for i, h := range cycleHeaps {
		if h > ceiling {
			t.Errorf("cycle %d heap %d exceeds ceiling %d (baseline %d, state %d)",
				i, h, ceiling, baselineHeap, stateBytes)
		}
	}
	final := heapAfterGC()
	if final > ceiling {
		t.Errorf("final heap %d exceeds ceiling %d (baseline %d)", final, ceiling, baselineHeap)
	}
	t.Logf("soak[%s]: heap baseline=%dKiB cycles=%v final=%dKiB ceiling=%dKiB",
		sc.name, baselineHeap>>10, cycleHeaps, final>>10, ceiling>>10)
}
