package troxy

// Chaos suite: each seed draws a fault schedule (link drop/duplication/
// corruption/jitter, partitions with scheduled heal, crash/restart) and/or
// arms Byzantine replica harnesses, drives mixed read/write traffic through
// both the fast-read-cache and ordered paths, and checks four invariants:
//
//   (a) the observed client history is linearizable — including fast reads,
//   (b) replica states converge once the faults heal,
//   (c) every client operation completes after the network quiesces,
//   (d) no correct replica's certificate is rejected by a correct peer.
//
// Every failure message carries the seed and the drawn plan; rerunning the
// named subtest reproduces the schedule exactly.

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/faultplane"
	"github.com/troxy-bft/troxy/internal/legacyclient"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/simnet"
	"github.com/troxy-bft/troxy/internal/workload"
)

// chaosOpts configures one chaos run.
type chaosOpts struct {
	seed int64
	plan faultplane.Plan
	// byz wraps the listed replicas' hosts with Byzantine message-level
	// behaviors.
	byz map[msg.NodeID]faultplane.Behavior
	// wrongExec makes the listed replicas (by index) execute incorrectly:
	// every result gains the marker suffix before its own Troxy tags it.
	wrongExec map[int]string
	// expectViolation inverts check (a): the run models more than f
	// colluding replicas, so the linearizability checker MUST flag the
	// history (the harness's negative control).
	expectViolation bool
	// fast opts both client machines into the crash-commit tier
	// (FlagFastCommit): the cluster runs with CommitLevels enabled, the
	// settling machine stays on the durable tier, and invariant (a) is
	// judged by the two-tier checker instead of the flat one.
	fast bool
}

// chaosResult hands the cluster back for behavior-specific assertions.
type chaosResult struct {
	cl   *Cluster
	hist *faultplane.History
	// tier is the annotated history of a fast-commit run (nil otherwise).
	tier *faultplane.TieredHistory
}

func runChaos(t *testing.T, o chaosOpts) chaosResult {
	t.Helper()

	factory := app.NewStoreFactory()
	if len(o.wrongExec) > 0 {
		inner, next := factory, 0
		factory = func() app.Application {
			a := inner()
			if m, ok := o.wrongExec[next]; ok {
				a = &faultplane.WrongExec{Inner: a, Marker: m}
			}
			next++
			return a
		}
	}

	cl, err := NewCluster(ClusterConfig{
		Mode:               ETroxy,
		App:                factory,
		Classify:           storeClassifier(),
		FastReads:          true,
		CommitLevels:       o.fast,
		Seed:               o.seed,
		CheckpointInterval: 8,
		ViewChangeTimeout:  800 * time.Millisecond,
		TickInterval:       20 * time.Millisecond,
		QueryTimeout:       150 * time.Millisecond,
		// Every chaos plan exercises the pipelined ordering path: batches
		// certify and disseminate out of order inside a 4-deep window while
		// application stays in sequence order.
		PipelineDepth: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(o.seed, nil)
	net.SetDefaultLink(simnet.NormalLatency{
		Mean: 2 * time.Millisecond, Stddev: time.Millisecond, Min: 100 * time.Microsecond,
	})
	for i, r := range cl.Replicas {
		id := msg.NodeID(i)
		if mode, ok := o.byz[id]; ok {
			net.Attach(id, faultplane.NewByzantine(r, id, len(cl.Replicas), cl.Directory, mode))
		} else {
			net.Attach(id, r)
		}
	}
	net.SetFault(faultplane.NewInjector(o.seed, o.plan))
	faultplane.ScheduleCrashes(net, net, o.plan)

	hist := &faultplane.History{}
	var tier *faultplane.TieredHistory
	if o.fast {
		tier = &faultplane.TieredHistory{}
	}
	const perMachine = 4
	const opsPerClient = 8
	var machines []*legacyclient.Machine
	for i := 0; i < 2; i++ {
		mc := legacyclient.Config{
			Machine:       msg.NodeID(100 + i),
			Clients:       perMachine,
			FirstClientID: uint64(1000 * (i + 1)),
			Replicas:      rotatedIDs(cl.ReplicaIDs(), i),
			ServerPub:     cl.ServerPub,
			Gen:           workload.KVGen{Keys: 5, ReadRatio: 0.6, ValueSize: 16},
			MaxOps:        opsPerClient,
			Timeout:       time.Second,
			Observe:       hist.Observe,
		}
		if o.fast {
			mc.FastCommit = true
			mc.Observe = tier.ObserveFunc(true)
			mc.ObserveTier = tier.ObserveTier
		}
		lc := legacyclient.New(mc)
		machines = append(machines, lc)
		net.Attach(msg.NodeID(100+i), lc)
	}

	// Main phase: the workload runs through the fault schedule and well past
	// its end (plans quiesce within ~2s of virtual time).
	net.Run(90 * time.Second)

	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s\n  seed=%d plan=%s",
			fmt.Sprintf(format, args...), o.seed, o.plan)
	}

	// (c) Liveness: every operation completed once the faults stopped.
	for i, m := range machines {
		if got, want := m.Done(), perMachine*opsPerClient; got != want {
			fail("machine %d completed %d/%d operations", i, got, want)
		}
	}

	// Settling phase: fresh traffic after the schedule ended lets a
	// restarted replica reach a new stable checkpoint and state-transfer
	// back in before convergence is judged.
	sc := legacyclient.Config{
		Machine:       102,
		Clients:       2,
		FirstClientID: 9000,
		Replicas:      cl.ReplicaIDs(),
		ServerPub:     cl.ServerPub,
		Gen:           workload.KVGen{Keys: 5, ReadRatio: 0.4, ValueSize: 16},
		MaxOps:        10,
		Timeout:       time.Second,
		Observe:       hist.Observe,
	}
	if o.fast {
		// The settling machine stays on the durable tier, so the merged
		// history exercises cross-tier reads: durable clients observing
		// fast-tier writes (and repaired retractions) is exactly what the
		// two-tier checker must validate.
		sc.Observe = tier.ObserveFunc(false)
	}
	settle := legacyclient.New(sc)
	net.Attach(102, settle)
	net.Run(150 * time.Second)
	if got, want := settle.Done(), 2*10; got != want {
		fail("settling machine completed %d/%d operations", got, want)
	}
	if o.fast {
		// Every speculative answer must have settled — confirmed or
		// retracted-and-repaired — once the network quiesced; a retained
		// speculation left open means the durable tier never caught up.
		for i, m := range machines {
			if u := m.Unsettled(); u != 0 {
				fail("machine %d still holds %d unsettled speculative answers", i, u)
			}
		}
	}

	// (a) Safety: the complete observed history is linearizable. Fast-commit
	// runs use the two-tier checker: retractions attributed and repaired,
	// confirmed speculations ratified by identical durable results, and the
	// merged cross-tier history linearizable at speculative response times.
	if o.fast {
		if err := faultplane.CheckTiered(tier.TierOps()); err != nil {
			fail("two-tier history check failed: %v", err)
		}
	} else {
		err = faultplane.CheckLinearizable(hist.Ops())
		if o.expectViolation {
			if err == nil {
				fail("collusion above f went undetected: %d-op history passed the linearizability check", hist.Len())
			}
			t.Logf("violation detected as required: %v", err)
			return chaosResult{cl, hist, tier}
		}
		if err != nil {
			fail("history not linearizable: %v", err)
		}
	}

	// (b) Convergence: every replica ends at the same application state
	// (crashed replicas restarted before quiesce and must have caught up).
	digest0 := app.StateDigest(cl.App(0))
	for i := 1; i < cl.Config.N; i++ {
		if app.StateDigest(cl.App(i)) != digest0 {
			fail("replica %d state diverged from replica 0 after heal", i)
		}
	}

	// (d) No correct-peer certificate rejected: rejections may only be
	// attributed to Byzantine replicas.
	for i := 0; i < cl.Config.N; i++ {
		if _, bad := o.byz[msg.NodeID(i)]; bad {
			continue
		}
		for j := 0; j < cl.Config.N; j++ {
			if _, bad := o.byz[msg.NodeID(j)]; bad || i == j {
				continue
			}
			if rej := cl.Replicas[i].Core().RejectedCertsFrom(msg.NodeID(j)); rej != 0 {
				fail("replica %d rejected %d certificates from correct replica %d", i, rej, j)
			}
		}
	}
	// (e) On a run with no Byzantine replica and no corrupting link, every
	// certificate a replica receives verifies: an unverified one there is a
	// correct replica certifying something other than what it sent.
	if len(o.byz) == 0 && !corrupts(o.plan) {
		expectNoUnverifiedCerts(t, fail, cl)
	}
	return chaosResult{cl, hist, tier}
}

// corrupts reports whether any link of plan may corrupt a message.
func corrupts(plan faultplane.Plan) bool {
	return slices.ContainsFunc(plan.Links, func(lf faultplane.LinkFault) bool { return lf.CorruptP > 0 })
}

// expectNoUnverifiedCerts fails unless every replica of cl verified every
// PREPARE and COMMIT certificate it received.
func expectNoUnverifiedCerts(t *testing.T, fail func(string, ...any), cl *Cluster) {
	t.Helper()
	for i := 0; i < cl.Config.N; i++ {
		if n := cl.Replicas[i].Core().Metrics().UnverifiedCerts; n != 0 {
			fail("replica %d dropped %d unverified certificates on a run that corrupts nothing", i, n)
		}
	}
}

// TestChaosNetworkFaults draws a full fault schedule per seed — transient
// lossy/duplicating/corrupting links, a possible partition, a possible
// crash/restart — with all replicas correct.
func TestChaosNetworkFaults(t *testing.T) {
	seeds := []int64{11, 12, 13, 14, 15, 16}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChaos(t, chaosOpts{seed: seed, plan: networkFaultsPlan(seed)})
		})
	}
}

// networkFaultsPlan is TestChaosNetworkFaults' schedule for seed.
func networkFaultsPlan(seed int64) faultplane.Plan {
	return faultplane.RandomPlan(seed, []msg.NodeID{0, 1, 2}, []msg.NodeID{100, 101}, 2*time.Second)
}

// TestChaosByzantineReplica arms one faulty replica (f=1) with each harness
// behavior. All four invariants must hold — the defenses mask the fault —
// and each run additionally asserts the matching defense engaged.
func TestChaosByzantineReplica(t *testing.T) {
	t.Run("wrong-execution-masked", func(t *testing.T) {
		// Replica 1 executes every request incorrectly; its own Troxy tags
		// the wrong results, so they pass tag verification and must be
		// outvoted by the f+1 matching-reply rule.
		res := runChaos(t, chaosOpts{seed: 21, wrongExec: map[int]string{1: "#byz"}})
		votes := uint64(0)
		for i := 0; i < 3; i++ {
			votes += res.cl.TroxyStats(i).VotesCompleted
		}
		if votes == 0 {
			t.Error("no vote completed; wrong-execution run did not exercise the voter")
		}
	})

	t.Run("corrupt-replies", func(t *testing.T) {
		// Replica 1's host tampers with ordered replies after tagging; the
		// voting Troxys must drop them on tag verification.
		res := runChaos(t, chaosOpts{
			seed: 22,
			byz:  map[msg.NodeID]faultplane.Behavior{1: faultplane.CorruptReplies},
		})
		bad := uint64(0)
		for i := 0; i < 3; i++ {
			bad += res.cl.TroxyStats(i).BadReplies
		}
		if bad == 0 {
			t.Error("no corrupted reply was dropped by tag verification")
		}
	})

	t.Run("replay-stale-replies", func(t *testing.T) {
		// Replica 1 re-sends each client's previous (authentically tagged)
		// reply alongside the current one; the voter's request-digest
		// binding must keep stale results out of the history.
		runChaos(t, chaosOpts{
			seed: 23,
			byz:  map[msg.NodeID]faultplane.Behavior{1: faultplane.ReplayStaleReplies},
		})
	})

	t.Run("misdirect-cache-messages", func(t *testing.T) {
		// Replica 1's host copies every cache query and reply it sends to the
		// replica it is not addressed to. The cache exchange has no transport
		// MAC; the tags name the addressee, and the other Troxy must reject
		// the copies rather than answer or count them.
		res := runChaos(t, chaosOpts{
			seed: 26,
			byz:  map[msg.NodeID]faultplane.Behavior{1: faultplane.MisdirectCacheMessages},
		})
		if bad := res.cl.TroxyStats(0).BadQueries + res.cl.TroxyStats(2).BadQueries; bad == 0 {
			t.Error("no misdirected cache message was rejected by a correct replica's Troxy")
		}
		expectNoBadMACs(t, res.cl, 0, 2)
	})

	t.Run("equivocate-certs", func(t *testing.T) {
		// Replica 1 mutates ordering messages toward higher-numbered peers
		// while staying honest toward the rest; replica 2 must drop the
		// mutations, whose certificates no longer verify and so name nobody,
		// and the protocol must stay live on honest traffic.
		res := runChaos(t, chaosOpts{
			seed: 24,
			byz:  map[msg.NodeID]faultplane.Behavior{1: faultplane.EquivocateCerts},
		})
		expectUnverifiedOnlyAt(t, res.cl, 1, 2)
		expectNoBadMACs(t, res.cl, 0, 2)
	})

	t.Run("equivocate-prepares", func(t *testing.T) {
		// The view-0 leader tampers with its PREPAREs alone, COMMITs left
		// honest. A PREPARE carries no transport MAC, so the mutation reaches
		// the followers' check of the leader's counter certificate and dies
		// there — counted as unverified, blaming nobody — and no follower
		// counts a bad MAC on the clean network.
		res := runChaos(t, chaosOpts{
			seed: 25,
			byz:  map[msg.NodeID]faultplane.Behavior{0: faultplane.EquivocatePrepares},
		})
		expectUnverifiedOnlyAt(t, res.cl, 0, 1, 2)
		expectNoBadMACs(t, res.cl, 1, 2)
	})
}

// expectUnverifiedOnlyAt: the mutations of Byzantine replica byz reached the
// certificate check at each replica it tampered toward and died there, and
// nowhere else did a certificate fail. A certificate that does not verify
// names no sender, so nobody — the Byzantine replica included — is blamed.
func expectUnverifiedOnlyAt(t *testing.T, cl *Cluster, byz msg.NodeID, targets ...int) {
	t.Helper()
	for i := 0; i < cl.Config.N; i++ {
		if msg.NodeID(i) == byz {
			continue
		}
		n := cl.Replicas[i].Core().Metrics().UnverifiedCerts
		if targeted := slices.Contains(targets, i); targeted && n == 0 {
			t.Errorf("replica %d dropped no unverified certificate from the mutations toward it", i)
		} else if !targeted && n != 0 {
			t.Errorf("replica %d, which nothing was tampered toward, dropped %d unverified certificates", i, n)
		}
		for j := 0; j < cl.Config.N; j++ {
			if rej := cl.Replicas[i].Core().RejectedCertsFrom(msg.NodeID(j)); rej != 0 {
				t.Errorf("replica %d blamed replica %d for %d certificates", i, j, rej)
			}
		}
	}
}

// expectCleanTransport fails a run in which a replica dropped an envelope as a
// bad MAC or cut a reply batch short: with no Byzantine replica and no
// corrupting link, everything a replica is delivered was sent as it arrives.
func expectCleanTransport(fail func(string, ...any), cl *Cluster) {
	for i := 0; i < cl.Config.N; i++ {
		if s := cl.Replicas[i].Stats(); s.BadMACs != 0 || s.BadBatches != 0 {
			fail("replica %d dropped %d envelopes as bad MACs and cut %d reply batches short on a run that corrupts nothing",
				i, s.BadMACs, s.BadBatches)
		}
	}
}

// expectNoBadMACs: on a clean network a correct replica sees no envelope fail
// transport authentication — a Byzantine host holds its own transport keys and
// seals what it tampers with as a replica does, so its mutations are for the
// checks behind the MAC (or, for a PREPARE or COMMIT, the certificate) to
// catch.
func expectNoBadMACs(t *testing.T, cl *Cluster, honest ...int) {
	t.Helper()
	for _, i := range honest {
		if bad := cl.Replicas[i].Stats().BadMACs; bad != 0 {
			t.Errorf("correct replica %d dropped %d envelopes as bad transport MACs", i, bad)
		}
	}
}

// TestChaosFastCommitSpeculationLoss runs fast-commit clients through a
// schedule built to strand speculation: a one-way partition silences the
// view-0 leader's outbound (it still hears the followers, so it keeps
// proposing and vouching for batches the rest of the cluster never sees),
// forcing a view change out from under any fast answer in flight, and a
// follower crash/restart after the heal exercises the rollback hooks on the
// recovery path. Whatever mix of confirmations and retractions the schedule
// produces, the two-tier checker must accept it: retractions attributed and
// repaired, confirmations ratified, merged cross-tier history linearizable.
func TestChaosFastCommitSpeculationLoss(t *testing.T) {
	seeds := []int64{41, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			res := runChaos(t, chaosOpts{
				seed: seed,
				fast: true,
				plan: speculationLossPlan,
			})
			specs, retracted := res.tier.Speculated()
			if specs == 0 {
				t.Error("no operation completed on a speculative answer; the fast path was never exercised")
			}
			answered := uint64(0)
			for i := 0; i < 3; i++ {
				answered += res.cl.TroxyStats(i).SpecAnswered
			}
			if answered == 0 {
				t.Error("no Troxy reported a speculative answer")
			}
			t.Logf("speculative completions: %d (retracted and repaired: %d)", specs, retracted)
		})
	}
}

// speculationLossPlan is TestChaosFastCommitSpeculationLoss' schedule: a
// one-way partition of the leader, then a follower crash and restart.
var speculationLossPlan = faultplane.Plan{
	Partitions: []faultplane.Partition{{
		Start: 300 * time.Millisecond, Heal: 1400 * time.Millisecond,
		A: []msg.NodeID{0}, B: []msg.NodeID{1, 2},
		OneWay: true,
	}},
	Crashes: []faultplane.CrashEvent{
		{Node: 1, At: 1600 * time.Millisecond, RestartAt: 2 * time.Second},
	},
}

// TestChaosSeedsReplay holds "one seed, one run" across the whole ETroxy
// path under faults: a network-fault plan and a speculation-loss plan each
// run twice, and the two runs must observe the same history, operation for
// operation, to the nanosecond of virtual time.
func TestChaosSeedsReplay(t *testing.T) {
	for _, o := range []chaosOpts{
		{seed: 11, plan: networkFaultsPlan(11)},
		{seed: 41, fast: true, plan: speculationLossPlan},
	} {
		t.Run(fmt.Sprintf("seed=%d", o.seed), func(t *testing.T) {
			ops := func(res chaosResult) any {
				if res.tier != nil {
					return res.tier.TierOps()
				}
				return res.hist.Ops()
			}
			if first, second := ops(runChaos(t, o)), ops(runChaos(t, o)); !reflect.DeepEqual(first, second) {
				t.Fatal("two runs of one plan observed different histories")
			}
		})
	}
}

// TestChaosByzantineLeaderFastEquivocation arms the view-0 leader with both
// ordering-certificate equivocation and speculative-reply equivocation: it
// splits its PREPAREs toward higher-numbered peers AND tells remote Troxys a
// different fast answer than the one its own trusted part tagged. The
// mutated PREPAREs must die on the followers' certificate check (unverified,
// blaming nobody), the mutated speculative replies on tag verification, and
// the two-tier history must still check out.
func TestChaosByzantineLeaderFastEquivocation(t *testing.T) {
	res := runChaos(t, chaosOpts{
		seed: 43,
		fast: true,
		byz: map[msg.NodeID]faultplane.Behavior{
			0: faultplane.EquivocateCerts | faultplane.EquivocateSpecReplies,
		},
	})
	expectUnverifiedOnlyAt(t, res.cl, 0, 1, 2)
	expectNoBadMACs(t, res.cl, 1, 2)
	bad := uint64(0)
	for i := 0; i < 3; i++ {
		bad += res.cl.TroxyStats(i).BadReplies
	}
	if bad == 0 {
		t.Error("no equivocated speculative reply was dropped by tag verification")
	}
	specs, retracted := res.tier.Speculated()
	if specs == 0 {
		t.Error("no operation completed on a speculative answer despite the honest quorum")
	}
	t.Logf("speculative completions: %d (retracted: %d), spec replies dropped: %d", specs, retracted, bad)
}

// TestChaosCollusionBeyondFDetected is the harness's negative control: with
// f+1 = 2 replicas executing the same wrong results, the voter legitimately
// reaches a quorum on corrupted data — no non-synchronous BFT protocol can
// prevent that — and the linearizability checker MUST catch it. A checker
// that passes here would be vacuous.
func TestChaosCollusionBeyondFDetected(t *testing.T) {
	runChaos(t, chaosOpts{
		seed:            31,
		wrongExec:       map[int]string{1: "#byz", 2: "#byz"},
		expectViolation: true,
	})
}
