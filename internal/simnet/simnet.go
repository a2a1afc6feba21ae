// Package simnet is a deterministic discrete-event network simulator that
// drives the protocol state machines of internal/node under a virtual clock.
// It substitutes for the paper's five-machine SGX cluster: per-node CPU
// models (with a configurable core count), per-NIC bandwidth, and per-link
// latency distributions — including the simulated wide-area network of the
// evaluation, Normal(100 ms, 20 ms) on the client links.
//
// Determinism: given the same seed and the same sequence of
// Attach/Detach/SetLink calls, a simulation produces bit-identical results.
// Handler randomness comes from per-node seeded sources; latency sampling
// from a dedicated source. Nothing reads the wall clock.
package simnet

import (
	"container/heap"
	"fmt"
	"io"
	"math/rand"
	"time"

	"github.com/troxy-bft/troxy/internal/faultplane"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/wire"
)

// NodeConfig models one machine's hardware.
type NodeConfig struct {
	// Cores is the number of CPU cores available to the node's handlers.
	// Zero means 1.
	Cores int

	// EgressBps and IngressBps are NIC bandwidths in bytes per second.
	// Zero means unlimited.
	EgressBps  float64
	IngressBps float64
}

// DefaultNodeConfig approximates the paper's machines: a quad-core CPU with
// hyper-threading (modelled as 8 hardware threads) and four bonded 1 Gbps
// NICs.
func DefaultNodeConfig() NodeConfig {
	return NodeConfig{Cores: 8, EgressBps: 4 * 125e6, IngressBps: 4 * 125e6}
}

// LatencyModel samples one-way link latencies.
type LatencyModel interface {
	Sample(r *rand.Rand) time.Duration
}

// FixedLatency is a constant one-way latency.
type FixedLatency time.Duration

// Sample implements LatencyModel.
func (f FixedLatency) Sample(*rand.Rand) time.Duration { return time.Duration(f) }

// NormalLatency samples from a normal distribution truncated at Min. The
// paper's WAN emulation adds 100±20 ms (normal distribution) on the client
// NICs.
type NormalLatency struct {
	Mean, Stddev, Min time.Duration
}

// Sample implements LatencyModel.
func (n NormalLatency) Sample(r *rand.Rand) time.Duration {
	d := time.Duration(float64(n.Mean) + r.NormFloat64()*float64(n.Stddev))
	if d < n.Min {
		d = n.Min
	}
	return d
}

// LANLatency is the in-datacenter latency used for the "local network"
// scenarios.
var LANLatency = FixedLatency(60 * time.Microsecond)

// WANLatency is the paper's emulated wide-area latency (100±20 ms, applied
// per direction on client links; see Section VI-A).
var WANLatency = NormalLatency{Mean: 50 * time.Millisecond, Stddev: 10 * time.Millisecond, Min: 5 * time.Millisecond}

// event kinds
type eventKind uint8

const (
	evDeliver eventKind = iota + 1
	evTimer
	evFunc
)

type event struct {
	at   time.Duration
	seq  uint64
	kind eventKind

	to   msg.NodeID
	env  msg.Envelope // by value: Send copies the sender's header
	buf  *wire.Writer // env's body and MAC: Send copies the sender's bytes
	node *simNode     // the incarnation that set the timer or took the delivery into its NIC

	key node.TimerKey
	gen uint64

	fn func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

type simNode struct {
	id      msg.NodeID
	handler node.Handler
	cfg     NodeConfig

	coreFree    []time.Duration
	egressFree  time.Duration
	ingressFree time.Duration
	rng         *rand.Rand
	timerGen    map[node.TimerKey]uint64
	crashed     bool
}

// Stats aggregates network-level counters.
type Stats struct {
	Delivered uint64
	Dropped   uint64
	Bytes     uint64

	// Fault-injection counters (see SetFault): messages duplicated and
	// corrupted by the installed judge. Injected drops count into Dropped.
	Duplicated uint64
	Corrupted  uint64
}

// Network is a deterministic discrete-event runtime.
type Network struct {
	cost     *CostModel
	nodes    map[msg.NodeID]*simNode
	links    map[[2]msg.NodeID]LatencyModel
	fifoLast map[[2]msg.NodeID]time.Duration
	defLink  LatencyModel
	fault    faultplane.Judge
	events   eventHeap
	now      time.Duration
	seq      uint64
	latRng   *rand.Rand
	seed     int64
	stats    Stats
	logOut   io.Writer
	running  bool
}

// New creates a network with the given seed and cost model (nil = all
// operations free, useful for functional tests).
func New(seed int64, cost *CostModel) *Network {
	return &Network{
		cost:     cost,
		nodes:    make(map[msg.NodeID]*simNode),
		links:    make(map[[2]msg.NodeID]LatencyModel),
		fifoLast: make(map[[2]msg.NodeID]time.Duration),
		defLink:  LANLatency,
		latRng:   rand.New(rand.NewSource(seed ^ 0x5deece66d)),
		seed:     seed,
	}
}

// SetLogOutput directs node debug logs to w (nil disables, the default).
func (n *Network) SetLogOutput(w io.Writer) { n.logOut = w }

// Attach registers a handler with the default node configuration.
func (n *Network) Attach(id msg.NodeID, h node.Handler) {
	n.AttachConfig(id, h, DefaultNodeConfig())
}

// AttachConfig registers a handler with an explicit hardware configuration.
// The handler's OnStart runs immediately at the current virtual time.
func (n *Network) AttachConfig(id msg.NodeID, h node.Handler, cfg NodeConfig) {
	if _, dup := n.nodes[id]; dup {
		panic(fmt.Sprintf("simnet: duplicate node %d", id))
	}
	cores := cfg.Cores
	if cores <= 0 {
		cores = 1
	}
	sn := &simNode{
		id:       id,
		handler:  h,
		cfg:      cfg,
		coreFree: make([]time.Duration, cores),
		rng:      rand.New(rand.NewSource(n.seed*1000003 + int64(id))),
		timerGen: make(map[node.TimerKey]uint64),
	}
	n.nodes[id] = sn
	n.invoke(sn, n.now, func(env node.Env) { h.OnStart(env) })
}

// Detach removes a node and its crash mark. Its pending timers and the
// deliveries in its ingress NIC die with it, unseen by a later incarnation.
func (n *Network) Detach(id msg.NodeID) { delete(n.nodes, id) }

// SetFault installs a fault judge consulted on every transmission (nil
// disables). The judge sees virtual time, so decisions — and therefore the
// whole simulation — stay deterministic for a given seed and schedule.
// Installing one mid-run is deterministic when done from an At callback.
func (n *Network) SetFault(j faultplane.Judge) { n.fault = j }

// SetDefaultLink sets the latency model for all links without an explicit
// override.
func (n *Network) SetDefaultLink(lm LatencyModel) { n.defLink = lm }

// SetLink sets the latency model for both directions between a and b.
func (n *Network) SetLink(a, b msg.NodeID, lm LatencyModel) {
	n.links[[2]msg.NodeID{a, b}] = lm
	n.links[[2]msg.NodeID{b, a}] = lm
}

// Crash stops delivering events to id (messages and timers are dropped).
func (n *Network) Crash(id msg.NodeID) {
	if sn, ok := n.nodes[id]; ok {
		sn.crashed = true
	}
}

// Restore resumes deliveries to a crashed node. State is whatever the
// handler kept; protocols that need recovery semantics implement them
// themselves.
func (n *Network) Restore(id msg.NodeID) {
	if sn, ok := n.nodes[id]; ok {
		sn.crashed = false
	}
}

// Now returns the current virtual time.
func (n *Network) Now() time.Duration { return n.now }

// Stats returns delivery counters.
func (n *Network) Stats() Stats { return n.stats }

// At schedules fn to run at virtual time t (or now, if t has passed).
// Experiments use it to start and stop workload phases.
func (n *Network) At(t time.Duration, fn func()) {
	if t < n.now {
		t = n.now
	}
	n.push(&event{at: t, kind: evFunc, fn: fn})
}

func (n *Network) push(e *event) {
	e.seq = n.seq
	n.seq++
	heap.Push(&n.events, e)
}

// Run processes events until the virtual clock reaches until or no events
// remain.
func (n *Network) Run(until time.Duration) {
	if n.running {
		panic("simnet: Run is not reentrant")
	}
	n.running = true
	defer func() { n.running = false }()
	for len(n.events) > 0 {
		e := n.events[0]
		if e.at > until {
			break
		}
		heap.Pop(&n.events)
		n.now = e.at
		n.dispatch(e)
	}
	if n.now < until {
		n.now = until
	}
}

func (n *Network) dispatch(e *event) {
	if e.kind == evFunc {
		e.fn()
		return
	}
	sn := n.nodes[e.to]
	if sn == nil || sn.crashed || e.node != nil && e.node != sn {
		// Detached, crashed, or owned by an earlier incarnation.
		if e.kind == evDeliver {
			n.stats.Dropped++
			wire.PutWriter(e.buf)
		}
		return
	}
	switch e.kind {
	case evDeliver:
		if e.node == nil {
			// The message just reached the receiver's NIC; serialize it
			// through the ingress link before handing it to the CPU.
			e.node = sn
			if sn.cfg.IngressBps > 0 {
				deliver := e.at
				if sn.ingressFree > deliver {
					deliver = sn.ingressFree
				}
				size := e.env.WireSize()
				deliver += time.Duration(float64(size) / sn.cfg.IngressBps * float64(time.Second))
				sn.ingressFree = deliver
				if deliver > e.at {
					e.at = deliver
					n.push(e)
					return
				}
			}
		}
		n.stats.Delivered++
		n.stats.Bytes += uint64(e.env.WireSize())
		n.invoke(sn, e.at, func(env node.Env) { sn.handler.OnEnvelope(env, &e.env) })
		wire.PutWriter(e.buf) // the handler has returned: the bytes are free
	case evTimer:
		if sn.timerGen[e.key] != e.gen {
			return // canceled or replaced
		}
		delete(sn.timerGen, e.key)
		n.invoke(sn, e.at, func(env node.Env) { sn.handler.OnTimer(env, e.key) })
	}
}

// invoke runs a handler callback with CPU queueing: the invocation begins
// when both the triggering event has arrived and a core is free, and
// occupies that core for the charged virtual time.
func (n *Network) invoke(sn *simNode, arrival time.Duration, fn func(node.Env)) {
	core := 0
	for i := 1; i < len(sn.coreFree); i++ {
		if sn.coreFree[i] < sn.coreFree[core] {
			core = i
		}
	}
	begin := arrival
	if sn.coreFree[core] > begin {
		begin = sn.coreFree[core]
	}
	env := &simEnv{net: n, node: sn, begin: begin}
	fn(env)
	sn.coreFree[core] = begin + env.charged
}

type simEnv struct {
	net     *Network
	node    *simNode
	begin   time.Duration
	charged time.Duration
}

var _ node.Env = (*simEnv)(nil)

func (e *simEnv) Self() msg.NodeID { return e.node.id }

func (e *simEnv) Now() time.Duration { return e.begin + e.charged }

func (e *simEnv) Send(env *msg.Envelope) {
	if env.From != e.node.id {
		panic(fmt.Sprintf("simnet: node %d sending as %d", e.node.id, env.From))
	}
	e.net.transmit(e.node, env, e.Now())
}

func (e *simEnv) SetTimer(after time.Duration, key node.TimerKey) {
	sn := e.node
	sn.timerGen[key]++
	e.net.push(&event{
		at:   e.Now() + after,
		kind: evTimer,
		to:   sn.id,
		node: sn,
		key:  key,
		gen:  sn.timerGen[key],
	})
}

func (e *simEnv) CancelTimer(key node.TimerKey) {
	// Bumping the generation invalidates any pending event for the key.
	e.node.timerGen[key]++
}

func (e *simEnv) Rand() *rand.Rand { return e.node.rng }

func (e *simEnv) Charge(p node.Profile, k node.ChargeKind, bytes int) {
	e.charged += e.net.cost.CostOf(p, k, bytes)
}

func (e *simEnv) Logf(format string, args ...any) {
	if e.net.logOut == nil {
		return
	}
	fmt.Fprintf(e.net.logOut, "%12s node=%d "+format+"\n",
		append([]any{e.Now(), e.node.id}, args...)...)
}

// transmit models the sender half of the network path: egress NIC
// serialization plus one-way link latency. Ingress serialization at the
// receiver is applied when the message arrives (see dispatch).
func (n *Network) transmit(from *simNode, env *msg.Envelope, t time.Duration) {
	size := env.WireSize()

	depart := t
	if from.cfg.EgressBps > 0 {
		if from.egressFree > depart {
			depart = from.egressFree
		}
		depart += time.Duration(float64(size) / from.cfg.EgressBps * float64(time.Second))
		from.egressFree = depart
	}

	lat := n.linkLatency(env.From, env.To).Sample(n.latRng)
	arrive := depart + lat
	// Connections deliver in order (TCP semantics): a message that drew a
	// long latency sample holds back everything sent after it on the same
	// link. Under the WAN jitter of the evaluation this head-of-line
	// blocking is what makes waiting for multiple reply flows expensive.
	key := [2]msg.NodeID{env.From, env.To}
	if last, ok := n.fifoLast[key]; ok && last > arrive {
		arrive = last
	}
	n.fifoLast[key] = arrive

	if n.fault != nil {
		d := n.fault.Judge(t, env.From, env.To, env.Kind)
		if d.Drop {
			n.stats.Dropped++
			return
		}
		if d.Corrupt {
			env = faultplane.CorruptCopy(env)
			n.stats.Corrupted++
		}
		if d.Duplicate {
			// The copy arrives undelayed, so a delayed original also yields
			// a reordered pair.
			n.stats.Duplicated++
			n.deliverAt(arrive, env)
		}
		// Extra delay is applied after the FIFO point above and not written
		// back to fifoLast: later messages on the link can overtake, which
		// is exactly the reordering fault.
		arrive += d.Delay
	}
	n.deliverAt(arrive, env)
}

// deliverAt queues env's delivery at its receiver's NIC at time at, as a copy
// of it, header and bytes: the sender may reuse its own once Send returns.
// The bytes live in a pooled writer until the delivery is done or dropped.
func (n *Network) deliverAt(at time.Duration, env *msg.Envelope) {
	ev := &event{at: at, kind: evDeliver, to: env.To, env: *env, buf: wire.GetWriter()}
	faultplane.CopyEnvelope(ev.buf, &ev.env)
	n.push(ev)
}

func (n *Network) linkLatency(a, b msg.NodeID) LatencyModel {
	if lm, ok := n.links[[2]msg.NodeID{a, b}]; ok {
		return lm
	}
	return n.defLink
}
