// Package realnet is the real-time runtime for the protocol state machines
// of internal/node: every node runs on its own goroutine with an unbounded
// FIFO mailbox, timers are wall-clock timers, and Charge calls are no-ops
// (real CPUs burn real cycles). It backs the deployable library: in-process
// clusters for tests and examples, and TCP bridges plus a legacy-client
// gateway for multi-process deployments (cmd/troxy-replica).
package realnet

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"github.com/troxy-bft/troxy/internal/faultplane"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
)

// Router delivers envelopes between attached nodes and, when a remote sender
// is configured, to nodes hosted by other processes.
type Router struct {
	start time.Time

	mu      sync.Mutex
	nodes   map[msg.NodeID]*realNode
	fault   faultplane.Judge
	remote  func(*msg.Envelope)
	logOut  io.Writer
	crashed map[msg.NodeID]bool
	closed  bool
	seed    int64

	wg sync.WaitGroup
}

// NewRouter creates an empty router.
func NewRouter() *Router {
	return &Router{
		start:   time.Now(),
		nodes:   make(map[msg.NodeID]*realNode),
		crashed: make(map[msg.NodeID]bool),
		seed:    time.Now().UnixNano(),
	}
}

// SetLogOutput directs node debug logs to w (nil disables, the default).
func (r *Router) SetLogOutput(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.logOut = w
}

// SetRemoteSender installs the fallback used for envelopes addressed to
// nodes not attached locally (e.g. a TCP bridge). The envelope send is handed
// is the caller's, valid only for the call: send copies or encodes what it
// keeps.
func (r *Router) SetRemoteSender(send func(*msg.Envelope)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.remote = send
}

// mailboxItem is a delivery or a timer fire. A delivery holds its envelope by
// value: Send copies the header in, so the sender may reuse its own at once.
type mailboxItem struct {
	env msg.Envelope
	key node.TimerKey
	gen uint64
	tmr bool
}

// nodeTimer is one wall-clock timer of a node, armed for key under generation
// gen. The object and its callback are created once and re-armed with Reset:
// a protocol that sets and clears a timer per request (hybster's progress
// watch, the legacy client's retransmission timer) allocates nothing for it.
// key and gen are guarded by the node's timerMu.
type nodeTimer struct {
	n   *realNode
	t   *time.Timer
	key node.TimerKey
	gen uint64
}

// maxFreeTimers bounds the free list: timers beyond it are left to the
// garbage collector.
const maxFreeTimers = 64

// fire is the timer's callback. It reads what the timer is armed for at the
// time it runs, and says nothing if the node has dropped the object since (a
// cancel or re-arm that came too late to stop this callback).
func (tm *nodeTimer) fire() {
	n := tm.n
	n.timerMu.Lock()
	key, gen := tm.key, tm.gen
	live := n.timers[key] == tm
	n.timerMu.Unlock()
	if live {
		n.enqueue(mailboxItem{tmr: true, key: key, gen: gen})
	}
}

type realNode struct {
	id      msg.NodeID
	handler node.Handler
	router  *Router

	mu     sync.Mutex
	queue  []mailboxItem // the mailbox's backing array; head is the next item
	head   int
	wake   chan struct{}
	closed bool

	// timers holds the pending timer of each key. Every SetTimer draws a
	// fresh generation from timerGen, so a fire that is already in the
	// mailbox when its key is cancelled or re-armed no longer matches. A
	// timer object is recycled through freeTimers only once its callback
	// cannot run any more for the arming it was given: Stop returned true, or
	// the fire it enqueued has been taken out of the mailbox.
	timerMu    sync.Mutex
	timerGen   uint64
	timers     map[node.TimerKey]*nodeTimer
	freeTimers []*nodeTimer

	rng *rand.Rand
}

// Attach registers a handler and starts its goroutine. OnStart runs on that
// goroutine before any delivery.
func (r *Router) Attach(id msg.NodeID, h node.Handler) {
	r.mu.Lock()
	if _, dup := r.nodes[id]; dup {
		r.mu.Unlock()
		panic(fmt.Sprintf("realnet: duplicate node %d", id))
	}
	n := &realNode{
		id:      id,
		handler: h,
		router:  r,
		wake:    make(chan struct{}, 1),
		timers:  make(map[node.TimerKey]*nodeTimer),
		rng:     rand.New(rand.NewSource(r.seed + int64(id)*7919)),
	}
	r.nodes[id] = n
	r.wg.Add(1)
	r.mu.Unlock()

	go n.run()
}

// Detach removes a node, stopping its goroutine and ending a crash of it;
// its pending messages and timers are dropped. It models a full replica crash.
func (r *Router) Detach(id msg.NodeID) {
	r.mu.Lock()
	n := r.nodes[id]
	delete(r.nodes, id)
	delete(r.crashed, id)
	r.mu.Unlock()
	if n != nil {
		n.stop()
	}
}

// Crash marks a node crashed: deliveries to it are dropped but its state is
// retained; Restore resumes delivery.
func (r *Router) Crash(id msg.NodeID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.crashed[id] = true
}

// Restore reverses Crash.
func (r *Router) Restore(id msg.NodeID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.crashed, id)
}

// SetFault installs a fault judge consulted on every Send (nil disables).
// The judge sees wall-clock time since the router started; its lock makes it
// safe under the router's concurrency.
func (r *Router) SetFault(j faultplane.Judge) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fault = j
}

// Send routes an envelope to a local node or through the remote sender.
// Unroutable envelopes are dropped silently (the network is asynchronous and
// unreliable; protocols own their retransmissions). With no fault judge, one
// critical section decides where the envelope goes.
func (r *Router) Send(e *msg.Envelope) {
	r.mu.Lock()
	fault := r.fault
	if fault == nil {
		n, remote := r.route(e.To)
		r.mu.Unlock()
		dispatch(n, remote, e)
		return
	}
	blocked := r.closed || r.crashed[e.To]
	r.mu.Unlock()
	if blocked {
		return
	}

	d := fault.Judge(time.Since(r.start), e.From, e.To, e.Kind)
	if d.Drop {
		return
	}
	if d.Corrupt {
		e = faultplane.CorruptCopy(e)
	}
	if d.Duplicate {
		r.deliver(faultplane.CloneEnvelope(e))
	}
	if d.Delay > 0 {
		// Deliver later without judging again; deliver re-checks
		// closed/crashed at fire time. The closure keeps a copy of the
		// header: e is the sender's.
		delayed := *e
		time.AfterFunc(d.Delay, func() { r.deliver(&delayed) })
		return
	}
	r.deliver(e)
}

func (r *Router) deliver(e *msg.Envelope) {
	r.mu.Lock()
	n, remote := r.route(e.To)
	r.mu.Unlock()
	dispatch(n, remote, e)
}

// route says where an envelope to id goes: its local node, else the remote
// sender; neither when the router is closed or id crashed. Caller holds mu.
func (r *Router) route(id msg.NodeID) (*realNode, func(*msg.Envelope)) {
	if r.closed || r.crashed[id] {
		return nil, nil
	}
	if n, ok := r.nodes[id]; ok {
		return n, nil
	}
	return nil, r.remote
}

// dispatch hands e to where route sent it: a copy of its header into n's
// mailbox, or e itself to the remote sender, which keeps nothing of it.
func dispatch(n *realNode, remote func(*msg.Envelope), e *msg.Envelope) {
	if n != nil {
		n.enqueue(mailboxItem{env: *e})
		return
	}
	if remote != nil {
		remote(e)
	}
}

// Close stops all node goroutines and waits for them to exit.
func (r *Router) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	nodes := make([]*realNode, 0, len(r.nodes))
	for _, n := range r.nodes {
		nodes = append(nodes, n)
	}
	r.nodes = make(map[msg.NodeID]*realNode)
	r.mu.Unlock()

	for _, n := range nodes {
		n.stop()
	}
	r.wg.Wait()
}

func (n *realNode) enqueue(item mailboxItem) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	if len(n.queue) == cap(n.queue) && n.head > len(n.queue)/2 {
		// A mailbox that is never quite empty: move what is pending to the
		// front, over the delivered majority, instead of growing the array.
		pending := copy(n.queue, n.queue[n.head:])
		clear(n.queue[pending:])
		n.queue, n.head = n.queue[:pending], 0
	}
	n.queue = append(n.queue, item)
	n.mu.Unlock()
	select {
	case n.wake <- struct{}{}:
	default:
	}
}

func (n *realNode) stop() {
	n.mu.Lock()
	alreadyClosed := n.closed
	n.closed = true
	n.mu.Unlock()

	n.timerMu.Lock()
	for _, tm := range n.timers {
		tm.t.Stop()
	}
	clear(n.timers)
	n.freeTimers = nil
	n.timerMu.Unlock()

	if !alreadyClosed {
		select {
		case n.wake <- struct{}{}:
		default:
		}
	}
}

func (n *realNode) run() {
	defer n.router.wg.Done()
	env := &realEnv{node: n}
	// cur is the one slot every delivery is made from: a handler is handed
	// its address, valid for that invocation, and it is cleared afterwards.
	var cur msg.Envelope
	n.handler.OnStart(env)
	for {
		n.mu.Lock()
		for n.head == len(n.queue) && !n.closed {
			n.mu.Unlock()
			<-n.wake
			n.mu.Lock()
		}
		if n.closed && n.head == len(n.queue) {
			n.mu.Unlock()
			return
		}
		// The taken slot is zeroed, so the mailbox stops holding the envelope
		// the moment it is delivered, and a drained mailbox starts over at the
		// front of its array instead of growing a new one behind itself.
		item := n.queue[n.head]
		n.queue[n.head] = mailboxItem{}
		n.head++
		if n.head == len(n.queue) {
			n.queue, n.head = n.queue[:0], 0
		}
		closed := n.closed
		n.mu.Unlock()
		if closed {
			return
		}

		if item.tmr {
			n.timerMu.Lock()
			tm := n.timers[item.key]
			live := tm != nil && tm.gen == item.gen
			if live {
				// The callback that enqueued this item is done with tm.
				n.dropTimer(tm, true)
			}
			n.timerMu.Unlock()
			if live {
				n.handler.OnTimer(env, item.key)
			}
			continue
		}
		cur = item.env
		n.handler.OnEnvelope(env, &cur)
		cur = msg.Envelope{}
	}
}

type realEnv struct {
	node *realNode
}

var _ node.Env = (*realEnv)(nil)

func (e *realEnv) Self() msg.NodeID { return e.node.id }

func (e *realEnv) Now() time.Duration { return time.Since(e.node.router.start) }

func (e *realEnv) Send(env *msg.Envelope) {
	if env.From != e.node.id {
		panic(fmt.Sprintf("realnet: node %d sending as %d", e.node.id, env.From))
	}
	e.node.router.Send(env)
}

func (e *realEnv) SetTimer(after time.Duration, key node.TimerKey) {
	n := e.node
	n.timerMu.Lock()
	defer n.timerMu.Unlock()
	n.timerGen++
	tm := n.timers[key]
	if tm != nil && !tm.t.Stop() {
		// Its callback has started: whatever it enqueues carries the old
		// generation, and the object is not touched again.
		n.dropTimer(tm, false)
		tm = nil
	}
	if tm == nil {
		if last := len(n.freeTimers) - 1; last >= 0 {
			tm, n.freeTimers = n.freeTimers[last], n.freeTimers[:last]
		} else {
			tm = &nodeTimer{n: n}
		}
		tm.key = key
		n.timers[key] = tm
	}
	tm.gen = n.timerGen
	if tm.t == nil {
		tm.t = time.AfterFunc(after, tm.fire)
	} else {
		tm.t.Reset(after)
	}
}

func (e *realEnv) CancelTimer(key node.TimerKey) {
	n := e.node
	n.timerMu.Lock()
	defer n.timerMu.Unlock()
	if tm := n.timers[key]; tm != nil {
		n.dropTimer(tm, tm.t.Stop())
	}
}

// dropTimer forgets tm's key and, when tm's callback is known not to run any
// more for this arming, keeps the object for the next SetTimer. An object
// whose callback may still be running is abandoned instead: re-armed under
// another key it would fire for that key at once. Caller holds timerMu.
func (n *realNode) dropTimer(tm *nodeTimer, quiet bool) {
	delete(n.timers, tm.key)
	if quiet && len(n.freeTimers) < maxFreeTimers {
		n.freeTimers = append(n.freeTimers, tm)
	}
}

func (e *realEnv) Rand() *rand.Rand { return e.node.rng }

func (e *realEnv) Charge(node.Profile, node.ChargeKind, int) {}

func (e *realEnv) Logf(format string, args ...any) {
	r := e.node.router
	r.mu.Lock()
	w := r.logOut
	r.mu.Unlock()
	if w == nil {
		return
	}
	fmt.Fprintf(w, "%12s node=%d "+format+"\n",
		append([]any{e.Now().Round(time.Microsecond), e.node.id}, args...)...)
}
