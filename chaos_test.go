package troxy

// Chaos suite: each seed draws a fault schedule (link drop/duplication/
// corruption/jitter, partitions with scheduled heal, crash/restart) and/or
// arms Byzantine replica harnesses, drives mixed read/write traffic through
// both the fast-read-cache and ordered paths, and checks five invariants:
//
//   (a) the observed client history is linearizable — including fast reads,
//   (b) replica states converge once the faults heal,
//   (c) every client operation completes after the network quiesces,
//   (d) no correct replica's certificate is rejected by a correct peer,
//   (e) with no Byzantine replica and no corrupting link, every certificate
//       verifies, every envelope passes transport authentication and no
//       reply batch is cut short.
//
// One driver, runChaos, runs a plan on either runtime: the simulator
// (newSimRuntime) or goroutines and TCP (newWallRuntime,
// chaos_realnet_test.go). checkRun judges (a), (b), (d) and (e), for the
// driver, TestSoakLargeState and TestRandomizedConvergence alike.
//
// Every failure message carries the seed and the drawn plan; on the
// simulator, rerunning the named subtest reproduces the schedule exactly.

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
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/replica"
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
	// lendSends overwrites every envelope a node sends once Send returns
	// (lentSends).
	lendSends bool
	// poisonDecodes overwrites the structs each replica decodes ordering
	// messages into once a delivery returns (poisonedDecodes).
	poisonDecodes bool
}

// host is what the runtime attaches for h: h itself, h with its decodes
// poisoned, or h lending its sends.
func (o chaosOpts) host(h node.Handler) node.Handler {
	if r, ok := h.(*replica.Replica); ok && o.poisonDecodes {
		h = poisonedDecodes{r}
	}
	if o.lendSends {
		return lentSends{h}
	}
	return h
}

// chaosResult is a finished run: what checkRun judges, and what a test
// makes its behavior-specific assertions on.
type chaosResult struct {
	seed int64
	plan faultplane.Plan
	byz  map[msg.NodeID]faultplane.Behavior
	cl   *Cluster
	hist *faultplane.History
	// tier is the annotated history of a fast-commit run (nil otherwise).
	tier *faultplane.TieredHistory
}

// fail ends the test with a message that names the seed and the plan.
func (r chaosResult) fail(t *testing.T, format string, args ...any) {
	t.Helper()
	t.Fatalf("%s\n  seed=%d plan=%s", fmt.Sprintf(format, args...), r.seed, r.plan)
}

// chaosRuntime is what runChaos drives a cluster on.
type chaosRuntime interface {
	// attach starts h as node id.
	attach(id msg.NodeID, h node.Handler)
	// start installs the plan's fault injector and schedules its crashes.
	start(plan faultplane.Plan)
	// await runs the cluster until cond holds, or until the runtime gives
	// up, and reports whether it holds.
	await(cond func() bool) bool
	// quiesce runs the cluster to the instant until after start.
	quiesce(until time.Duration)
	// stop ends the run: the replicas may be read after it.
	stop()
}

// simRuntime is one simulated network: an await is 90 s of virtual time.
type simRuntime struct {
	net  *simnet.Network
	seed int64
}

func newSimRuntime(_ *testing.T, seed int64) chaosRuntime {
	net := simnet.New(seed, nil)
	net.SetDefaultLink(simnet.NormalLatency{
		Mean: 2 * time.Millisecond, Stddev: time.Millisecond, Min: 100 * time.Microsecond,
	})
	return simRuntime{net, seed}
}

func (s simRuntime) attach(id msg.NodeID, h node.Handler) { s.net.Attach(id, h) }

func (s simRuntime) start(plan faultplane.Plan) {
	s.net.SetFault(faultplane.NewInjector(s.seed, plan))
	faultplane.ScheduleCrashes(s.net, s.net, plan)
}

func (s simRuntime) await(cond func() bool) bool {
	s.net.Run(s.net.Now() + 90*time.Second)
	return cond()
}

func (s simRuntime) quiesce(until time.Duration) { s.net.Run(until) }

func (s simRuntime) stop() {}

// runChaos runs one plan on the runtime newRuntime makes: two client
// machines of four clients run their workload through the faults, then,
// once the plan has quiesced, a settling machine's fresh traffic lets a
// restarted or cut-off replica reach a new stable checkpoint and
// state-transfer back in before the run is judged.
func runChaos(t *testing.T, newRuntime func(*testing.T, int64) chaosRuntime, o chaosOpts) chaosResult {
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
	res := chaosResult{seed: o.seed, plan: o.plan, byz: o.byz, cl: cl, hist: &faultplane.History{}}
	observed := res.hist.Len // the one signal polled while a wall-clock run's goroutines are live
	if o.fast {
		res.tier = &faultplane.TieredHistory{}
		observed = res.tier.Len
	}

	rt := newRuntime(t, o.seed)
	for i, r := range cl.Replicas {
		id := msg.NodeID(i)
		var h node.Handler = r
		if mode, ok := o.byz[id]; ok {
			// The wrapper impersonates the compromised replica at message
			// level; everything it emits crosses the runtime's transport.
			h = faultplane.NewByzantine(r, id, len(cl.Replicas), cl.Directory, mode)
		}
		rt.attach(id, o.host(h))
	}
	rt.start(o.plan)

	// machine attaches client machine 100+i. A fast machine of a
	// fast-commit run takes speculative answers; the rest stay durable.
	machine := func(i int, mc legacyclient.Config, fast bool) *legacyclient.Machine {
		mc.Machine, mc.ServerPub, mc.Timeout, mc.Observe = msg.NodeID(100+i), cl.ServerPub, time.Second, res.hist.Observe
		if o.fast {
			mc.FastCommit, mc.Observe = fast, res.tier.ObserveFunc(fast)
			if fast {
				mc.ObserveTier = res.tier.ObserveTier
			}
		}
		m := legacyclient.New(mc)
		rt.attach(mc.Machine, o.host(m))
		return m
	}
	const perMachine, opsPerClient = 4, 8
	var machines []*legacyclient.Machine
	for i := 0; i < 2; i++ {
		machines = append(machines, machine(i, legacyclient.Config{
			Clients:       perMachine,
			FirstClientID: uint64(1000 * (i + 1)),
			Replicas:      rotatedIDs(cl.ReplicaIDs(), i),
			Gen:           workload.KVGen{Keys: 5, ReadRatio: 0.6, ValueSize: 16},
			MaxOps:        opsPerClient,
		}, true))
	}

	// (c) Liveness: every operation completes once the faults stop.
	mainOps := len(machines) * perMachine * opsPerClient
	if !rt.await(func() bool { return observed() >= mainOps }) {
		res.fail(t, "main workload: %d/%d operations observed", observed(), mainOps)
	}

	// A client can finish before the plan quiesces: replicas 0 and 1 alone
	// form the f+1 reply quorum, so on the wall clock every operation can
	// complete while a link still eats replica 2's commits. The settling
	// traffic must run on a clean network, so that the checkpoints it
	// generates, and the state transfer they trigger, reach a replica that
	// was cut off mid-stream. It crosses a checkpoint boundary (interval 8)
	// in ordered writes, so the generator is write-heavy: a lagging replica
	// only catches up past entries whose commits it lost via a checkpoint
	// that covers them. The settling machine stays on the durable tier: in
	// a fast-commit run its reads cross tiers, durable clients observing
	// fast-tier writes and repaired retractions, which is what the two-tier
	// checker must validate.
	rt.quiesce(o.plan.End() + 250*time.Millisecond)
	const settleClients, settleOps = 2, 12
	settle := machine(2, legacyclient.Config{
		Clients:       settleClients,
		FirstClientID: 9000,
		Replicas:      cl.ReplicaIDs(),
		Gen:           workload.KVGen{Keys: 5, ReadRatio: 0.2, ValueSize: 16},
		MaxOps:        settleOps,
	}, false)
	if !rt.await(func() bool { return observed() >= mainOps+settleClients*settleOps }) {
		res.fail(t, "settling workload: %d/%d operations observed", observed(), mainOps+settleClients*settleOps)
	}
	rt.stop()

	for i, m := range machines {
		if got, want := m.Done(), perMachine*opsPerClient; got != want {
			res.fail(t, "machine %d completed %d/%d operations", i, got, want)
		}
		// Every speculative answer settled, confirmed or retracted and
		// repaired: one still open means the durable tier never caught up.
		if u := m.Unsettled(); u != 0 {
			res.fail(t, "machine %d still holds %d unsettled speculative answers", i, u)
		}
	}
	if got, want := settle.Done(), settleClients*settleOps; got != want {
		res.fail(t, "settling machine completed %d/%d operations", got, want)
	}

	if o.expectViolation {
		if err := faultplane.CheckLinearizable(res.hist.Ops()); err == nil {
			res.fail(t, "collusion above f went undetected: %d-op history passed the linearizability check", res.hist.Len())
		} else {
			t.Logf("violation detected as required: %v", err)
		}
		return res
	}
	checkRun(t, res)
	return res
}

// checkRun judges a finished run by invariants (a), (b), (d) and (e) of the
// chaos suite. A replica the plan crashes and never restarts is left out of
// (b), (d) and (e): it stopped where it crashed.
func checkRun(t *testing.T, r chaosResult) {
	t.Helper()
	cl := r.cl
	var live []int
	for i := 0; i < cl.Config.N; i++ {
		if !slices.ContainsFunc(r.plan.Crashes, func(c faultplane.CrashEvent) bool {
			return c.Node == msg.NodeID(i) && c.RestartAt == 0
		}) {
			live = append(live, i)
		}
	}

	// (a) Safety: the complete observed history is linearizable. Fast-commit
	// runs use the two-tier checker: retractions attributed and repaired,
	// confirmed speculations ratified by identical durable results, and the
	// merged cross-tier history linearizable at speculative response times.
	if r.tier != nil {
		if err := faultplane.CheckTiered(r.tier.TierOps()); err != nil {
			r.fail(t, "two-tier history check failed: %v", err)
		}
	} else if err := faultplane.CheckLinearizable(r.hist.Ops()); err != nil {
		r.fail(t, "history not linearizable: %v", err)
	}

	// (b) Convergence: every live replica ends at the same application
	// state (a replica crashed and restarted must have caught up).
	want := app.StateDigest(cl.App(live[0]))
	for _, i := range live[1:] {
		if app.StateDigest(cl.App(i)) != want {
			for _, j := range live {
				c := cl.Replicas[j].Core()
				t.Logf("replica %d: exec=%d metrics=%+v", j, c.LastExecuted(), c.Metrics())
			}
			r.fail(t, "replica %d state diverged from replica %d after heal", i, live[0])
		}
	}

	// (d) No correct-peer certificate rejected: rejections may only be
	// attributed to Byzantine replicas.
	for _, i := range live {
		if _, bad := r.byz[msg.NodeID(i)]; bad {
			continue
		}
		for j := 0; j < cl.Config.N; j++ {
			if _, bad := r.byz[msg.NodeID(j)]; bad || i == j {
				continue
			}
			if rej := cl.Replicas[i].Core().RejectedCertsFrom(msg.NodeID(j)); rej != 0 {
				r.fail(t, "replica %d rejected %d certificates from correct replica %d", i, rej, j)
			}
		}
	}

	// (e) No Byzantine replica and no corrupting link: every certificate
	// verifies — an unverified one is a correct replica certifying
	// something other than what it sent — and every envelope passes
	// transport authentication and decodes: a runtime that delivered a body
	// other than the one sent (another envelope's, or one overwritten since)
	// fails here even where the history survives it.
	if len(r.byz) > 0 || slices.ContainsFunc(r.plan.Links, func(lf faultplane.LinkFault) bool { return lf.CorruptP > 0 }) {
		return
	}
	for _, i := range live {
		if n := cl.Replicas[i].Core().Metrics().UnverifiedCerts; n != 0 {
			r.fail(t, "replica %d dropped %d unverified certificates on a run that corrupts nothing", i, n)
		}
		if s := cl.Replicas[i].Stats(); s.BadMACs != 0 || s.BadBatches != 0 {
			r.fail(t, "replica %d dropped %d envelopes as bad MACs and cut %d reply batches short on a run that corrupts nothing",
				i, s.BadMACs, s.BadBatches)
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
			runChaos(t, newSimRuntime, chaosOpts{seed: seed, plan: networkFaultsPlan(seed)})
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
		res := runChaos(t, newSimRuntime, chaosOpts{seed: 21, wrongExec: map[int]string{1: "#byz"}})
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
		res := runChaos(t, newSimRuntime, chaosOpts{
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
		runChaos(t, newSimRuntime, chaosOpts{
			seed: 23,
			byz:  map[msg.NodeID]faultplane.Behavior{1: faultplane.ReplayStaleReplies},
		})
	})

	t.Run("misdirect-cache-messages", func(t *testing.T) {
		// Replica 1's host copies every cache query and reply it sends to the
		// replica it is not addressed to. The cache exchange has no transport
		// MAC; the tags name the addressee, and the other Troxy must reject
		// the copies rather than answer or count them.
		res := runChaos(t, newSimRuntime, chaosOpts{
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
		res := runChaos(t, newSimRuntime, chaosOpts{
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
		res := runChaos(t, newSimRuntime, chaosOpts{
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
			res := runChaos(t, newSimRuntime, chaosOpts{
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
			if first, second := ops(runChaos(t, newSimRuntime, o)), ops(runChaos(t, newSimRuntime, o)); !reflect.DeepEqual(first, second) {
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
	res := runChaos(t, newSimRuntime, chaosOpts{
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
	runChaos(t, newSimRuntime, chaosOpts{
		seed:            31,
		wrongExec:       map[int]string{1: "#byz", 2: "#byz"},
		expectViolation: true,
	})
}
