package troxy

// Wall-clock chaos variant: the same seeded fault plans as the simulator
// suite, but driven through the goroutine/TCP runtime (internal/realnet).
// Replicas 0 and 1 plus the client machines run in one router; replica 2
// lives behind a TCP bridge in a second router whose listener comes up late,
// so the bridge's dial-failure backoff path is exercised on every run before
// the fault schedule even starts.
//
// Wall-clock runs are not deterministic, so the checkers are
// sloppy-deadline: liveness and convergence are polled with generous
// timeouts instead of asserted at an exact virtual instant. Safety checks
// (linearizability, certificate rejections) run after both routers have
// been closed — Close joins every node goroutine, so the post-mortem state
// reads are race-free.

import (
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/faultplane"
	"github.com/troxy-bft/troxy/internal/legacyclient"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/realnet"
	"github.com/troxy-bft/troxy/internal/workload"
)

// wallScheduler adapts faultplane.Scheduler to wall-clock time for the
// realnet runtime (the simulator uses *simnet.Network.At instead).
type wallScheduler struct{}

func (wallScheduler) At(d time.Duration, f func()) { time.AfterFunc(d, f) }

// dualRestorer fans a crash/restore out to every process router: blocking
// delivery toward the crashed node in its own router silences it locally,
// doing the same in the peer router stops cross-bridge traffic reaching it.
// (Unlike the simulator, realnet only gates deliveries: a "crashed" node's
// timers keep firing, modeling an isolated node whose outbound babble the
// network discards.)
type dualRestorer struct{ routers []*realnet.Router }

func (d dualRestorer) Crash(id msg.NodeID) {
	for _, r := range d.routers {
		r.Crash(id)
	}
}

func (d dualRestorer) Restore(id msg.NodeID) {
	for _, r := range d.routers {
		r.Restore(id)
	}
}

// reserveAddr grabs a loopback address for a listener that will be bound
// later (the late-listen window is what exercises the bridge backoff).
func reserveAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// chaosRealnetOpts configures one wall-clock chaos run: a network-fault plan,
// Byzantine host wrappers, or both.
type chaosRealnetOpts struct {
	seed int64
	plan faultplane.Plan
	// byz wraps the listed replicas' hosts with Byzantine message-level
	// behaviors at their router attach point.
	byz map[msg.NodeID]faultplane.Behavior
	// fast opts both client machines into the crash-commit tier over the
	// real transport; invariant (a) switches to the two-tier checker.
	fast bool
}

// chaosRealnetResult hands the cluster back for behavior-specific assertions.
type chaosRealnetResult struct {
	cl   *Cluster
	hist *faultplane.History
	// tier is the annotated history of a fast-commit run (nil otherwise).
	tier *faultplane.TieredHistory
}

// TestChaosRealnetNetworkFaults replays the simulator chaos seeds on the
// real runtime with the ordering pipeline enabled: same plans, same
// invariants, but real goroutines, real TCP framing, and wall-clock timers.
func TestChaosRealnetNetworkFaults(t *testing.T) {
	ids := []msg.NodeID{0, 1, 2}
	clients := []msg.NodeID{100, 101}
	seeds := []int64{11, 12}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChaosRealnet(t, chaosRealnetOpts{
				seed: seed,
				plan: faultplane.RandomPlan(seed, ids, clients, 2*time.Second),
			})
		})
	}
}

// TestChaosRealnetByzantine arms one faulty replica on the real runtime:
// replica 1's host tampers with ordered replies after its own Troxy has
// tagged them, crossing real TCP framing toward the voters. The network
// itself is clean (no fault plan) — the misbehavior is entirely the
// replica's — and all invariants must hold with the tag-verification
// defense observably engaged.
func TestChaosRealnetByzantine(t *testing.T) {
	res := runChaosRealnet(t, chaosRealnetOpts{
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
}

// TestChaosRealnetEquivocatingLeader: the view-0 leader's host tampers with
// its PREPAREs alone (COMMITs honest) and sends them the way a replica sends
// a PREPARE, without a MAC, across real TCP framing. The followers must let
// them through transport — no bad MAC on a clean network — drop them on the
// leader's counter certificate as unverified, blaming nobody, and finish the
// workload.
func TestChaosRealnetEquivocatingLeader(t *testing.T) {
	res := runChaosRealnet(t, chaosRealnetOpts{
		seed: 25,
		byz:  map[msg.NodeID]faultplane.Behavior{0: faultplane.EquivocatePrepares},
	})
	expectUnverifiedOnlyAt(t, res.cl, 0, 1, 2)
	expectNoBadMACs(t, res.cl, 1, 2)
}

func runChaosRealnet(t *testing.T, o chaosRealnetOpts) chaosRealnetResult {
	seed, plan := o.seed, o.plan

	cl, err := NewCluster(ClusterConfig{
		Mode:               ETroxy,
		App:                app.NewStoreFactory(),
		Classify:           storeClassifier(),
		FastReads:          true,
		CommitLevels:       o.fast,
		Seed:               seed,
		CheckpointInterval: 8,
		ViewChangeTimeout:  800 * time.Millisecond,
		TickInterval:       20 * time.Millisecond,
		QueryTimeout:       150 * time.Millisecond,
		PipelineDepth:      4,
	})
	if err != nil {
		t.Fatal(err)
	}

	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s\n  seed=%d plan=%s", fmt.Sprintf(format, args...), seed, plan)
	}

	// Process A hosts replicas 0, 1 and the client machines; process B hosts
	// replica 2 behind a TCP bridge whose listener is bound late.
	addrB := reserveAddr(t)
	routerA := realnet.NewRouter()
	defer routerA.Close()
	bridgeA := realnet.NewBridge(routerA, map[msg.NodeID]string{2: addrB})
	defer bridgeA.Close()
	if err := bridgeA.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addrA := bridgeA.Addr().String()

	routerB := realnet.NewRouter()
	defer routerB.Close()
	toA := make(map[msg.NodeID]string)
	for _, id := range []msg.NodeID{0, 1, 100, 101, 102} {
		toA[id] = addrA
	}
	bridgeB := realnet.NewBridge(routerB, toA)
	defer bridgeB.Close()

	// One injector, installed on router A only: A-side traffic is judged at
	// its sending router, and bridge-crossing traffic is judged exactly once
	// because inbound bridge frames re-enter through Router.Send (judged on
	// A, unjudged on B where no judge is installed).
	faultStart := time.Now()
	routerA.SetFault(faultplane.NewInjector(seed, plan))
	faultplane.ScheduleCrashes(wallScheduler{}, dualRestorer{[]*realnet.Router{routerA, routerB}}, plan)

	// Byzantine hosts are wrapped at their attach point, exactly as in the
	// simulator suite: the wrapper impersonates the compromised replica at
	// message level, and everything it emits crosses the real transport.
	attach := func(r *realnet.Router, id msg.NodeID) {
		if mode, ok := o.byz[id]; ok {
			r.Attach(id, faultplane.NewByzantine(cl.Replicas[id], id, len(cl.Replicas), cl.Directory, mode))
			return
		}
		r.Attach(id, cl.Replicas[id])
	}
	attach(routerA, 0)
	attach(routerA, 1)
	attach(routerB, 2)

	hist := &faultplane.History{}
	var tier *faultplane.TieredHistory
	observed := hist.Len
	if o.fast {
		tier = &faultplane.TieredHistory{}
		observed = tier.Len
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
		routerA.Attach(msg.NodeID(100+i), lc)
	}

	// Late listen: replica 2 is unreachable until now, so bridge A's dials
	// fail and its per-peer queue must hold the early protocol traffic.
	time.Sleep(150 * time.Millisecond)
	if err := bridgeB.Listen(addrB); err != nil {
		fail("late bridge listen: %v", err)
	}

	waitFor := func(what string, deadline time.Duration, cond func() bool) {
		t.Helper()
		end := time.Now().Add(deadline)
		for time.Now().Before(end) {
			if cond() {
				return
			}
			time.Sleep(50 * time.Millisecond)
		}
		fail("timed out after %v waiting for %s", deadline, what)
	}

	// (c) Liveness, sloppy-deadline form: every operation completes well
	// after the plan has quiesced. History.Observe is the only cross-thread
	// signal polled while node goroutines are live.
	mainOps := 2 * perMachine * opsPerClient
	waitFor("main workload completion", 60*time.Second, func() bool {
		return observed() >= mainOps
	})

	// Unlike the simulator run, wall-clock clients can finish the whole
	// workload before the fault schedule has quiesced: replicas 0 and 1
	// alone form the f+1 reply quorum, so every operation can complete
	// while the bridge link is still eating replica 2's commits. Wait out
	// the plan before settling — the settle traffic must run on a clean
	// network so the checkpoints it generates (and the state transfer they
	// trigger) actually reach a replica that was cut off mid-stream.
	if rem := plan.End() + 250*time.Millisecond - time.Since(faultStart); rem > 0 {
		time.Sleep(rem)
	}

	// Settling traffic lets a crashed-and-restored (or cut-off) replica
	// reach a fresh stable checkpoint and state-transfer back in. It must
	// comfortably cross a checkpoint boundary (interval 8) in ordered
	// writes, so the generator is write-heavy: a lagging replica only
	// catches up past entries whose commits it lost via a checkpoint that
	// covers them.
	const settleOps = 12
	sc := legacyclient.Config{
		Machine:       102,
		Clients:       2,
		FirstClientID: 9000,
		Replicas:      cl.ReplicaIDs(),
		ServerPub:     cl.ServerPub,
		Gen:           workload.KVGen{Keys: 5, ReadRatio: 0.2, ValueSize: 16},
		MaxOps:        settleOps,
		Timeout:       time.Second,
		Observe:       hist.Observe,
	}
	if o.fast {
		// The settling machine stays durable: its reads cross tiers, which
		// is what the merged two-tier check must validate.
		sc.Observe = tier.ObserveFunc(false)
	}
	settle := legacyclient.New(sc)
	routerA.Attach(102, settle)
	waitFor("settling workload completion", 30*time.Second, func() bool {
		return observed() >= mainOps+2*settleOps
	})
	// Grace period: checkpoint exchange and state transfer ride ordinary
	// protocol traffic that has no client-visible completion signal.
	time.Sleep(2 * time.Second)

	// Join every goroutine before touching replica state: Close waits for
	// the node goroutines, making the post-mortem reads race-free.
	bridgeA.Close()
	bridgeB.Close()
	routerA.Close()
	routerB.Close()

	for i, m := range machines {
		if got, want := m.Done(), perMachine*opsPerClient; got != want {
			fail("machine %d completed %d/%d operations", i, got, want)
		}
	}
	if got, want := settle.Done(), 2*settleOps; got != want {
		fail("settling machine completed %d/%d operations", got, want)
	}
	if o.fast {
		// Post-mortem (routers closed, so the read is race-free): every
		// speculative answer must have settled by the time the run ended.
		for i, m := range machines {
			if u := m.Unsettled(); u != 0 {
				fail("machine %d still holds %d unsettled speculative answers", i, u)
			}
		}
	}

	// (a) Safety: the observed history is linearizable, fast reads included.
	// Fast-commit runs swap in the two-tier checker: attributed-and-repaired
	// retractions, ratified confirmations, merged cross-tier history
	// linearizable at speculative response times.
	if o.fast {
		if err := faultplane.CheckTiered(tier.TierOps()); err != nil {
			fail("two-tier history check failed: %v", err)
		}
	} else if err := faultplane.CheckLinearizable(hist.Ops()); err != nil {
		fail("history not linearizable: %v", err)
	}

	// (b) Convergence: all replicas end at the same application state.
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
	// (e) No Byzantine replica and no corrupting link: every certificate
	// verifies.
	if len(o.byz) == 0 && !corrupts(plan) {
		expectNoUnverifiedCerts(t, fail, cl)
	}
	return chaosRealnetResult{cl, hist, tier}
}

// TestChaosRealnetFastCommit replays a seeded fault schedule with every
// client machine on the crash-commit tier over the real runtime: speculative
// answers cross real TCP framing (including the late-bound bridge toward
// replica 2), durable confirmations chase them, and the two-tier checker
// judges the result.
func TestChaosRealnetFastCommit(t *testing.T) {
	ids := []msg.NodeID{0, 1, 2}
	clients := []msg.NodeID{100, 101}
	const seed = 41
	res := runChaosRealnet(t, chaosRealnetOpts{
		seed: seed,
		plan: faultplane.RandomPlan(seed, ids, clients, 2*time.Second),
		fast: true,
	})
	specs, retracted := res.tier.Speculated()
	if specs == 0 {
		t.Error("no operation completed on a speculative answer; the fast path was never exercised")
	}
	t.Logf("speculative completions: %d (retracted and repaired: %d)", specs, retracted)
}
