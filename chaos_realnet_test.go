package troxy

// Wall-clock chaos runtime: the simulator suite's seeded fault plans driven
// through the goroutine/TCP runtime (internal/realnet) by the same runChaos.
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

	"github.com/troxy-bft/troxy/internal/faultplane"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/realnet"
)

// wallRuntime is two process routers joined by TCP: router A hosts every
// node but replica 2, which router B hosts behind a bridge that starts
// listening 150 ms after start. An await polls its condition for up to
// 30 s, where an unloaded phase takes about one: a longer bound only
// lengthens a failing run, and a fault that stalls every wall-clock run
// must not push the package past its test timeout before the tests behind
// these have run. stop waits out a 2 s grace and joins every goroutine.
type wallRuntime struct {
	t                *testing.T
	seed             int64
	routerA, routerB *realnet.Router
	bridgeA, bridgeB *realnet.Bridge
	addrB            string
	begun            time.Time     // when start installed the plan
	listened         chan struct{} // closed once router B's late listen has run
	listenErr        error
}

func newWallRuntime(t *testing.T, seed int64) chaosRuntime {
	w := &wallRuntime{t: t, seed: seed, addrB: reserveAddr(t), listened: make(chan struct{})}
	addrA := reserveAddr(t)
	w.routerA, w.routerB = realnet.NewRouter(), realnet.NewRouter()
	w.bridgeA = realnet.NewBridge(w.routerA, map[msg.NodeID]string{2: w.addrB})
	toA := make(map[msg.NodeID]string)
	for _, id := range []msg.NodeID{0, 1, 100, 101, 102} {
		toA[id] = addrA
	}
	w.bridgeB = realnet.NewBridge(w.routerB, toA)
	t.Cleanup(w.close) // a run that fails closes down here
	if err := w.bridgeA.Listen(addrA); err != nil {
		t.Fatal(err)
	}
	return w
}

func (w *wallRuntime) attach(id msg.NodeID, h node.Handler) {
	if id == 2 {
		w.routerB.Attach(id, h)
	} else {
		w.routerA.Attach(id, h)
	}
}

// start installs one injector, on router A only: A-side traffic is judged at
// its sending router, and bridge-crossing traffic is judged exactly once
// because inbound bridge frames re-enter through Router.Send (judged on A,
// unjudged on B where no judge is installed). Until router B listens,
// replica 2 is unreachable: bridge A's dials fail and its per-peer queue
// must hold the early protocol traffic.
func (w *wallRuntime) start(plan faultplane.Plan) {
	w.begun = time.Now()
	w.routerA.SetFault(faultplane.NewInjector(w.seed, plan))
	faultplane.ScheduleCrashes(w, w, plan)
	w.At(150*time.Millisecond, func() {
		w.listenErr = w.bridgeB.Listen(w.addrB)
		close(w.listened)
	})
}

// At runs f d after now on its own goroutine (faultplane.Scheduler).
func (w *wallRuntime) At(d time.Duration, f func()) { time.AfterFunc(d, f) }

// Crash fans a crash out to both routers: blocking delivery toward the
// crashed node in its own router silences it locally, doing the same in the
// peer router stops cross-bridge traffic reaching it. (Unlike the simulator,
// realnet only gates deliveries: a "crashed" node's timers keep firing,
// modeling an isolated node whose outbound babble the network discards.)
func (w *wallRuntime) Crash(id msg.NodeID) {
	w.routerA.Crash(id)
	w.routerB.Crash(id)
}

// Restore undoes Crash on both routers.
func (w *wallRuntime) Restore(id msg.NodeID) {
	w.routerA.Restore(id)
	w.routerB.Restore(id)
}

func (w *wallRuntime) await(cond func() bool) bool {
	for end := time.Now().Add(30 * time.Second); time.Now().Before(end); time.Sleep(50 * time.Millisecond) {
		if cond() {
			return true
		}
	}
	return cond()
}

func (w *wallRuntime) quiesce(until time.Duration) {
	time.Sleep(until - time.Since(w.begun))
}

// stop waits out a grace period first: checkpoint exchange and state
// transfer ride ordinary protocol traffic that has no client-visible
// completion signal. Close then joins every goroutine, so what the test
// reads of the replicas afterwards is race-free.
func (w *wallRuntime) stop() {
	time.Sleep(2 * time.Second)
	w.close()
	if w.listenErr != nil {
		w.t.Errorf("late bridge listen: %v", w.listenErr)
	}
}

// close waits for the late listen, once start has scheduled it, and then
// joins every goroutine of the run. A second call finds everything closed.
func (w *wallRuntime) close() {
	if !w.begun.IsZero() {
		<-w.listened
	}
	w.bridgeA.Close()
	w.bridgeB.Close()
	w.routerA.Close()
	w.routerB.Close()
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

// TestChaosRealnetNetworkFaults replays the simulator chaos seeds on the
// real runtime with the ordering pipeline enabled: same plans, same
// invariants, but real goroutines, real TCP framing, and wall-clock timers.
func TestChaosRealnetNetworkFaults(t *testing.T) {
	seeds := []int64{11, 12}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChaos(t, newWallRuntime, chaosOpts{seed: seed, plan: networkFaultsPlan(seed)})
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
	res := runChaos(t, newWallRuntime, chaosOpts{
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
	res := runChaos(t, newWallRuntime, chaosOpts{
		seed: 25,
		byz:  map[msg.NodeID]faultplane.Behavior{0: faultplane.EquivocatePrepares},
	})
	expectUnverifiedOnlyAt(t, res.cl, 0, 1, 2)
	expectNoBadMACs(t, res.cl, 1, 2)
}

// TestChaosRealnetFastCommit replays a seeded fault schedule with every
// client machine on the crash-commit tier over the real runtime: speculative
// answers cross real TCP framing (including the late-bound bridge toward
// replica 2), durable confirmations chase them, and the two-tier checker
// judges the result.
func TestChaosRealnetFastCommit(t *testing.T) {
	const seed = 41
	res := runChaos(t, newWallRuntime, chaosOpts{seed: seed, plan: networkFaultsPlan(seed), fast: true})
	specs, retracted := res.tier.Speculated()
	if specs == 0 {
		t.Error("no operation completed on a speculative answer; the fast path was never exercised")
	}
	t.Logf("speculative completions: %d (retracted and repaired: %d)", specs, retracted)
}
