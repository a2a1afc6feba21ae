package troxy

// Randomized deterministic-simulation tests: each seed drives a cluster
// without an ordering pipeline through jittered links, mixed read/write
// traffic and a mid-run crash that never heals (of a follower or the
// leader), then checks that every client operation completes and judges the
// run by the chaos suite's checkRun: the history is linearizable, the live
// replicas converge, no live replica rejects a correct peer's certificate,
// and, as nothing corrupts a message, none drops an unverified certificate,
// a bad MAC or a short reply batch.
//
// Failures reproduce exactly by seed.

import (
	"fmt"
	"testing"
	"time"

	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/faultplane"
	"github.com/troxy-bft/troxy/internal/legacyclient"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/simnet"
	"github.com/troxy-bft/troxy/internal/workload"
)

func TestRandomizedConvergence(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		for _, fault := range []string{"none", "follower", "leader"} {
			name := fmt.Sprintf("seed=%d/fault=%s", seed, fault)
			t.Run(name, func(t *testing.T) {
				runRandomized(t, seed, fault)
			})
		}
	}
}

func runRandomized(t *testing.T, seed int64, fault string) {
	t.Helper()
	cl, err := NewCluster(ClusterConfig{
		Mode:               ETroxy,
		App:                app.NewStoreFactory(),
		Classify:           storeClassifier(),
		FastReads:          true,
		Seed:               seed,
		CheckpointInterval: 8,
		ViewChangeTimeout:  800 * time.Millisecond,
		TickInterval:       20 * time.Millisecond,
		QueryTimeout:       150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(seed, nil)
	net.SetDefaultLink(simnet.NormalLatency{
		Mean: 2 * time.Millisecond, Stddev: time.Millisecond, Min: 100 * time.Microsecond,
	})
	cl.Attach(net)

	hist := &faultplane.History{}
	const perMachine = 4
	const opsPerClient = 12
	var machines []*legacyclient.Machine
	for i := 0; i < 2; i++ {
		lc := legacyclient.New(legacyclient.Config{
			Machine:       msg.NodeID(100 + i),
			Clients:       perMachine,
			FirstClientID: uint64(1000 * (i + 1)),
			Replicas:      rotatedIDs(cl.ReplicaIDs(), i),
			ServerPub:     cl.ServerPub,
			Gen:           workload.KVGen{Keys: 6, ReadRatio: 0.6, ValueSize: 24},
			MaxOps:        opsPerClient,
			Timeout:       time.Second,
			Observe:       hist.Observe,
		})
		machines = append(machines, lc)
		net.Attach(msg.NodeID(100+i), lc)
	}

	// Inject the fault mid-run.
	var plan faultplane.Plan
	switch fault {
	case "follower":
		plan.Crashes = []faultplane.CrashEvent{{Node: 2, At: 60 * time.Millisecond}}
	case "leader":
		plan.Crashes = []faultplane.CrashEvent{{Node: 0, At: 60 * time.Millisecond}}
	}
	faultplane.ScheduleCrashes(net, net, plan)

	net.Run(120 * time.Second)

	want := 2 * perMachine * opsPerClient
	done := 0
	for _, m := range machines {
		done += m.Done()
	}
	if done != want {
		t.Fatalf("completed %d/%d operations", done, want)
	}

	checkRun(t, chaosResult{seed: seed, plan: plan, cl: cl, hist: hist})
}

func rotatedIDs(ids []msg.NodeID, k int) []msg.NodeID {
	out := make([]msg.NodeID, len(ids))
	for i := range ids {
		out[i] = ids[(i+k)%len(ids)]
	}
	return out
}
