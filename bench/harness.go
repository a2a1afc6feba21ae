package main

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	troxy "github.com/troxy-bft/troxy"
	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/enclave"
	"github.com/troxy-bft/troxy/internal/faultplane"
	"github.com/troxy-bft/troxy/internal/legacyclient"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/realnet"
	itroxy "github.com/troxy-bft/troxy/internal/troxy"
)

// The common set-up of every workload: what a troxy-replica deployment runs
// by default (ETroxy, N=3/F=1, fast reads, batch 16 / 1 ms / depth 4, default
// checkpoint interval), loaded by one client machine of 32 closed-loop
// logical clients — sized for the 2-core machine the benchmark runs on.
const (
	numReplicas    = 3
	numClients     = 32
	clientMachine  = msg.NodeID(100)
	firstClientID  = uint64(1000)
	clientTimeout  = 5 * time.Second
	batchSize      = 16
	batchDelay     = time.Millisecond
	pipelineDepth  = 4
	checkpointStep = 128 // hybster's default CheckpointInterval

	setupTimeout = 30 * time.Second
	drainTimeout = 2 * clientTimeout
)

// repConfig describes one repetition: a fresh cluster, a warm-up and a
// measured window.
type repConfig struct {
	spec    workloadSpec
	seed    int64
	rep     int
	warmup  time.Duration
	measure time.Duration

	// setupOnly ends the repetition once every client has completed one
	// operation: an extra sample of setup_s and nothing else.
	setupOnly bool

	// maxOps, when positive, replaces the timed windows: every client stops
	// after that many operations and the whole run is measured (fixed work,
	// for the trace-fidelity tests).
	maxOps int

	// traced builds the decorated cluster.
	traced bool

	// judge, when set, is installed on the replicas' router (tests count
	// sends with it; a judge that alters nothing).
	judge faultplane.Judge
}

// clusterConfig is the deployment under test for a workload.
func clusterConfig(spec workloadSpec, seed int64) troxy.ClusterConfig {
	return troxy.ClusterConfig{
		Mode:          troxy.ETroxy,
		App:           preloadedStore(spec),
		Classify:      app.NewStore().IsRead,
		FastReads:     true,
		Seed:          seed,
		BatchSize:     batchSize,
		BatchDelay:    batchDelay,
		PipelineDepth: pipelineDepth,
	}
}

// repSeed derives the nonzero seed of one repetition from the benchmark
// seed; the generator and ClusterConfig.Seed both come from it.
func repSeed(seed int64, rep int) int64 {
	s := seed*7919 + int64(rep)*104729 + 1
	if s == 0 {
		s = 1
	}
	return s
}

// repResult is everything one repetition measured.
type repResult struct {
	// Measured window.
	lat        []int64 // per-operation latency, ns
	readLat    []bool  // parallel to lat: the operation was a GET
	window     time.Duration
	cpu        time.Duration // process user+sys CPU over the window
	mallocs    uint64
	allocBytes uint64
	slices     []slice // the window cut into pieces of about sliceLen

	setup    time.Duration
	heapLive uint64 // bytes

	attempted, failed int64
	counters          counters
	trace             *traceResult // traced repetitions only
}

// traceResult is what the decorators of a traced repetition recorded.
type traceResult struct {
	tracer *tracer
	stages stageSums
	latSum int64 // latency sum of the operations stages cover, ns
}

// observer receives every completed operation from the client machine (on
// its handler goroutine): it validates the reply, keeps the latency sample,
// and on a traced run books the stage budget and the sampled history.
type observer struct {
	phase *atomic.Int32

	lat     []int64
	readLat []bool
	// measured is len(lat), published after the append so that another
	// goroutine can mark a position in lat while the run goes on.
	measured atomic.Int64

	invalid  int64
	firstErr error

	seen      [numClients]bool
	seenCount int
	ready     chan struct{} // closed once every client has completed an operation

	// completed is published last, so the harness's drain check implies the
	// bookkeeping above is done.
	completed atomic.Int64

	// Traced runs only.
	tr      *tracer
	stages  stageSums
	latSum  int64
	history *faultplane.History
	sample  map[string]int
}

func (o *observer) observe(client, seq uint64, op []byte, read bool, invoked, responded time.Duration, result []byte) {
	if err := validateReply(op, read, result); err != nil {
		o.invalid++
		if o.firstErr == nil {
			o.firstErr = fmt.Errorf("client %d seq %d: %w", client, seq, err)
		}
	}
	if idx := client - firstClientID; idx < numClients && !o.seen[idx] {
		o.seen[idx] = true
		if o.seenCount++; o.seenCount == numClients {
			close(o.ready)
		}
	}
	if o.phase.Load() == phaseMeasure {
		o.lat = append(o.lat, int64(responded-invoked))
		o.readLat = append(o.readLat, read)
		o.measured.Store(int64(len(o.lat)))
		if o.tr != nil {
			off := o.tr.client().clockOffset
			if st := o.tr.stamp(client); st != nil && o.stages.add(int64(invoked)+off, int64(responded)+off, st) {
				o.latSum += int64(responded - invoked)
			}
		}
	}
	if o.history != nil {
		key := string(opKey(op))
		if n, ok := o.sample[key]; ok && n < sampledOpsPerKey {
			o.sample[key] = n + 1
			o.history.Observe(client, seq, op, read, invoked, responded, result)
		}
	}
	o.completed.Add(1)
}

// clientHost runs the client machine and lets the harness stop it without a
// data race: Machine.Stop must be called on the handler goroutine, so the
// harness raises a flag and the next callback delivers it.
type clientHost struct {
	m       *legacyclient.Machine
	stop    atomic.Bool
	stopped bool
}

var _ node.Handler = (*clientHost)(nil)

func (h *clientHost) checkStop() {
	if !h.stopped && h.stop.Load() {
		h.stopped = true
		h.m.Stop()
	}
}

func (h *clientHost) OnStart(env node.Env) { h.m.OnStart(env) }

func (h *clientHost) OnEnvelope(env node.Env, e *msg.Envelope) {
	h.checkStop()
	h.m.OnEnvelope(env, e)
}

func (h *clientHost) OnTimer(env node.Env, key node.TimerKey) {
	h.checkStop()
	h.m.OnTimer(env, key)
}

// topology is the transport experiment's two-router harness: the replicas in
// router B, the client machine in router A, joined by realnet bridges over
// loopback TCP (ring transport). Only client<->replica traffic crosses TCP;
// inter-replica messages are delivered by router B in process. No delay is
// injected.
//
// A bridge copies its address book when it is created, so each side's listen
// address must be known before the other side's bridge exists. Router A
// therefore gets two bridges: listenA only accepts (it is created first, with
// an empty address book, and binds port 0), bridgeA only sends (it is created
// last, once bridge B's address is known, and takes over as the router's
// remote sender). Every port is picked by the kernel while it is being bound,
// so no address is ever reserved and bound again later.
type topology struct {
	routerA, routerB          *realnet.Router
	listenA, bridgeA, bridgeB *realnet.Bridge
	replicaIDs                []msg.NodeID
}

// newTopology builds the routers and bridges and attaches the replicas.
func newTopology(dep *deployment, judge faultplane.Judge) (*topology, error) {
	t := &topology{routerA: realnet.NewRouter(), routerB: realnet.NewRouter()}
	t.routerA.SetLogOutput(io.Discard)
	t.routerB.SetLogOutput(io.Discard)
	if judge != nil {
		t.routerB.SetFault(judge)
	}
	t.listenA = realnet.NewBridge(t.routerA, nil)
	if err := t.listenA.Listen("127.0.0.1:0"); err != nil {
		t.close()
		return nil, err
	}
	t.bridgeB = realnet.NewBridge(t.routerB, map[msg.NodeID]string{clientMachine: t.listenA.Addr().String()})
	if err := t.bridgeB.Listen("127.0.0.1:0"); err != nil {
		t.close()
		return nil, err
	}
	toB := make(map[msg.NodeID]string, numReplicas)
	for i := 0; i < numReplicas; i++ {
		t.replicaIDs = append(t.replicaIDs, msg.NodeID(i))
		toB[msg.NodeID(i)] = t.bridgeB.Addr().String()
	}
	t.bridgeA = realnet.NewBridge(t.routerA, toB)
	for i, h := range dep.handlers {
		t.routerB.Attach(msg.NodeID(i), h)
	}
	return t, nil
}

// close tears everything down and waits for every goroutine. Client side
// first: closing router A's bridges severs the TCP links, so the replica side
// stops receiving before router B joins its nodes.
func (t *topology) close() {
	if t.bridgeA != nil {
		t.bridgeA.Close()
	}
	if t.listenA != nil {
		t.listenA.Close()
	}
	t.routerA.Close()
	if t.bridgeB != nil {
		t.bridgeB.Close()
	}
	t.routerB.Close()
}

// liveHeap returns the bytes still allocated after two collections (the second
// also empties the sync.Pool victim caches).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sliceLen is the nominal length of one slice of a measured window, the step
// by which the windows of the timing metrics slide (see pool).
const sliceLen = 50 * time.Millisecond

// slice is one piece of a measured window: lat[lo:hi] completed in it.
type slice struct {
	lo, hi   int
	dur, cpu time.Duration
}

// window brackets the measured part of a repetition.
type window struct {
	start time.Time
	cpu   time.Duration
	mem   runtime.MemStats
}

func openWindow(phase *atomic.Int32) *window {
	w := &window{}
	runtime.ReadMemStats(&w.mem)
	w.cpu = processCPU()
	phase.Store(phaseMeasure)
	w.start = time.Now()
	return w
}

// measure sleeps through the window and returns it cut into slices.
func (w *window) measure(length time.Duration, obs *observer) []slice {
	n := max(1, int(length/sliceLen))
	slices := make([]slice, 0, n)
	lo, at, cpu := 0, w.start, w.cpu
	for i := 1; i <= n; i++ {
		time.Sleep(time.Until(w.start.Add(length * time.Duration(i) / time.Duration(n))))
		now, nowCPU, hi := time.Now(), processCPU(), int(obs.measured.Load())
		slices = append(slices, slice{lo: lo, hi: hi, dur: now.Sub(at), cpu: nowCPU - cpu})
		lo, at, cpu = hi, now, nowCPU
	}
	return slices
}

func (w *window) close(phase *atomic.Int32, res *repResult) {
	phase.Store(phaseDone)
	res.window = time.Since(w.start)
	res.cpu = processCPU() - w.cpu
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	res.mallocs = mem.Mallocs - w.mem.Mallocs
	res.allocBytes = mem.TotalAlloc - w.mem.TotalAlloc
}

// runRep runs one repetition on a fresh cluster.
func runRep(cfg repConfig) (*repResult, error) {
	seed := repSeed(cfg.seed, cfg.rep)
	var phase atomic.Int32
	obs := &observer{
		phase:   &phase,
		lat:     make([]int64, 0, 1<<20),
		readLat: make([]bool, 0, 1<<20),
		ready:   make(chan struct{}),
	}
	// What is live before the deployment exists (the harness's buffers,
	// earlier repetitions' samples) is not the deployment's.
	heapBefore := liveHeap()
	begin := time.Now()
	gen := newGenerator(cfg.spec, seed, fmt.Sprintf("r%d", cfg.rep))

	var (
		dep *deployment
		tr  *tracer
		err error
	)
	if cfg.traced {
		tr = newTracer(&phase)
		obs.tr = tr
		obs.history = &faultplane.History{}
		obs.sample = sampleKeys(cfg.spec, seed)
		dep, err = tracedDeployment(clusterConfig(cfg.spec, seed), tr)
	} else {
		dep, err = plainDeployment(clusterConfig(cfg.spec, seed))
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	top, err := newTopology(dep, cfg.judge)
	if err != nil {
		return nil, err
	}
	host := &clientHost{m: legacyclient.New(legacyclient.Config{
		Machine:       clientMachine,
		Clients:       numClients,
		FirstClientID: firstClientID,
		Replicas:      top.replicaIDs,
		ServerPub:     dep.serverPub,
		Gen:           gen,
		Timeout:       clientTimeout,
		MaxOps:        cfg.maxOps,
		Observe:       obs.observe,
	})}
	var clientHandler node.Handler = host
	if tr != nil {
		clientHandler = newTracedHandler(host, tr.client(), layerClient)
	}

	res := &repResult{}
	if cfg.maxOps > 0 {
		// Fixed work: measure from the first handshake to the last reply.
		w := openWindow(&phase)
		top.routerA.Attach(clientMachine, clientHandler)
		want := int64(numClients * cfg.maxOps)
		deadline := time.Now().Add(setupTimeout + drainTimeout)
		for obs.completed.Load() < want && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		w.close(&phase, res)
	} else {
		top.routerA.Attach(clientMachine, clientHandler)
		select {
		case <-obs.ready:
		case <-time.After(setupTimeout):
			top.close()
			return nil, fmt.Errorf("set-up: not every client completed an operation within %v", setupTimeout)
		}
		res.setup = time.Since(begin)
		if cfg.setupOnly {
			top.close()
			return res, nil
		}
		time.Sleep(cfg.warmup)
		w := openWindow(&phase)
		res.slices = w.measure(cfg.measure, obs)
		w.close(&phase, res)
	}

	// Stop issuing and let the operations in flight finish.
	host.stop.Store(true)
	deadline := time.Now().Add(drainTimeout)
	for obs.completed.Load() < gen.issued.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// A reply needs only the fastest f+1 replicas, so the slowest may still
	// be executing its backlog; closing now would cut it short and its state
	// would differ. Every executed request costs its replica exactly one
	// authenticate-reply ecall, and the enclave's counters are safe to read
	// while it runs: once the three counts agree, the laggard has caught up
	// with the two that answered the last operation.
	for !sameExecuted(dep.enclaves) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	heapAfter := liveHeap()
	res.heapLive = heapAfter - min(heapAfter, heapBefore)

	c := &res.counters
	for _, b := range []*realnet.Bridge{top.bridgeA, top.listenA, top.bridgeB} {
		c.addBridge(b)
	}
	top.close()

	// Both routers are closed: no handler runs any more, so the observer, the
	// per-node traces and the program's counters are quiescent.
	res.lat, res.readLat = obs.lat, obs.readLat
	c.ops = obs.completed.Load()
	digests := c.addReplicas(dep)
	res.attempted = gen.issued.Load()
	res.failed = obs.invalid + c.reconnects() + (res.attempted - c.ops)
	if tr != nil {
		res.trace = &traceResult{tracer: tr, stages: obs.stages, latSum: obs.latSum}
	}

	// Output correctness: any of these fails the command.
	problems := c.mustBeZero()
	if obs.firstErr != nil {
		problems = append(problems, fmt.Sprintf("%d invalid results, first: %v", obs.invalid, obs.firstErr))
	}
	for i := 1; i < len(digests); i++ {
		if digests[i] != digests[0] {
			problems = append(problems, fmt.Sprintf("replica %d state digest %s differs from replica 0's %s",
				i, digests[i].Short(), digests[0].Short()))
		}
	}
	if len(res.lat) == 0 {
		problems = append(problems, "no operation completed in the measured window")
	}
	if tr != nil {
		for _, n := range tr.nodes {
			if n.desync != 0 {
				problems = append(problems, fmt.Sprintf("trace: %d unmatched link deliveries at node %d", n.desync, n.id))
			}
		}
		if err := checkSampledHistory(cfg.spec, obs.history.Ops()); err != nil {
			problems = append(problems, err.Error())
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return res, errors.New("correctness: " + strings.Join(problems, "; "))
	}
	return res, nil
}

// sameExecuted reports whether every replica has executed the same number of
// requests, read off the enclaves' authenticate-reply ecall counts.
func sameExecuted(enclaves []*enclave.Enclave) bool {
	first := enclaves[0].Stats().ECalls[itroxy.ECallAuthReply]
	for _, e := range enclaves[1:] {
		if e.Stats().ECalls[itroxy.ECallAuthReply] != first {
			return false
		}
	}
	return true
}
