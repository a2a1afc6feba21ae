package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/wire"
)

// Tracing measures the program from outside: span-recording decorators sit
// on the interfaces the program already exposes (node.Handler/node.Env,
// troxy.Proxy, tcounter.Authority, app.Application) and nothing inside the
// program changes. Every node's callbacks run on that node's single handler
// goroutine, so each node records into its own lock-free nodeTrace; the few
// values that cross goroutines (phase, request stamps, link queues) are
// atomics or mutex-guarded.

// layer identifies whose code a span times.
type layer uint8

const (
	layerClient   layer = iota // legacyclient.Machine handler invocation
	layerReplica               // replica.Replica handler invocation
	layerTroxy                 // troxy.Proxy call (ecall boundary included)
	layerCounter               // tcounter.Authority call
	layerExec                  // app.Application.Execute
	layerSnapshot              // app snapshot/restore (iterator and sink included)
	numLayers
)

var layerNames = [numLayers]string{"legacyclient", "replica", "troxy", "tcounter", "app.exec", "app.snapshot"}

// Trace phases: spans and counts are aggregated only while measuring.
const (
	phaseWarmup int32 = iota
	phaseMeasure
	phaseDone
)

// span is one retained span. IDs are unique within a trace; Parent is the ID
// of the enclosing span on the same node (0: none). Req is the request
// identifier where the boundary exposes one: the connection ID (which for a
// legacy client equals its client identity) and, on ordered replies, the
// client's sequence number.
type span struct {
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent,omitempty"`
	Node   int32  `json:"node"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Req    uint64 `json:"req,omitempty"`
	Seq    uint64 `json:"seq,omitempty"`
}

// frame is an open span on a node's stack.
type frame struct {
	layer    layer
	start    int64
	children int64 // total duration of closed child spans
	snapshot bool  // a snapshot span closed somewhere beneath
	kept     int   // index into nodeTrace.spans, -1 if not retained
}

// keepSpans bounds the spans a node keeps verbatim for the trace file; the
// per-layer metrics aggregate every span.
const keepSpans = 10000

// tracer is the shared state of one traced repetition.
type tracer struct {
	epoch time.Time
	phase *atomic.Int32 // the repetition's phase, shared with the observer
	nodes []*nodeTrace  // replicas first, then the client machine

	// links are the FIFO send-time queues of the in-process inter-replica
	// links, indexed [from][to].
	links [numReplicas][numReplicas]linkQueue

	// stamps are the per-client stage timestamps of the operation in
	// flight, indexed by client index (closed loop: one per client).
	stamps [numClients]opStamps
}

func newTracer(phase *atomic.Int32) *tracer {
	t := &tracer{epoch: time.Now(), phase: phase}
	for i := 0; i <= numReplicas; i++ {
		t.nodes = append(t.nodes, &nodeTrace{t: t, id: int32(i), idBase: uint32(i+1) << 24})
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) measuring() bool { return t.phase.Load() == phaseMeasure }

// replica returns replica i's recorder; client the client machine's.
func (t *tracer) replica(i int) *nodeTrace { return t.nodes[i] }
func (t *tracer) client() *nodeTrace       { return t.nodes[numReplicas] }

// stamp returns the stage stamps of the client owning connID (nil if the ID
// is not one of the benchmark's clients).
func (t *tracer) stamp(connID uint64) *opStamps {
	idx := connID - firstClientID
	if idx >= numClients {
		return nil
	}
	return &t.stamps[idx]
}

// opStamps are the replica-side timestamps (tracer clock, ns) of one
// client's operation in flight. The contact replica's handler goroutine
// writes them and the client machine's goroutine reads them when the
// operation completes; the client only sends its next request afterwards, so
// a completed operation's stamps are stable when read.
type opStamps struct {
	handlerStart atomic.Int64 // contact replica starts handling the request's ChannelData
	troxyIn      atomic.Int64 // HandleClientData returned
	executed     atomic.Int64 // AuthenticateReply for this client on the contact replica
	voted        atomic.Int64 // a Troxy call returned the client-bound record
}

// linkQueue FIFO-matches sends on one in-process link with their deliveries.
type linkQueue struct {
	mu   sync.Mutex
	q    []linkSend
	head int
}

type linkSend struct {
	at   int64
	kind msg.Kind
}

func (l *linkQueue) push(s linkSend) {
	l.mu.Lock()
	if l.head > 1024 && l.head*2 > len(l.q) {
		l.q = append(l.q[:0], l.q[l.head:]...)
		l.head = 0
	}
	l.q = append(l.q, s)
	l.mu.Unlock()
}

func (l *linkQueue) pop() (linkSend, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.head >= len(l.q) {
		return linkSend{}, false
	}
	s := l.q[l.head]
	l.head++
	return s, true
}

// chargeCount tallies Env.Charge calls of one kind.
type chargeCount struct {
	calls, bytes int64
}

// nodeTrace is one node's recorder; only that node's handler goroutine
// touches it until the runtime has been closed.
type nodeTrace struct {
	t      *tracer
	id     int32
	idBase uint32

	stack []frame
	spans []span

	// Aggregates over the measured window.
	self       [numLayers]int64 // self time per layer, ns
	count      [numLayers]int64
	stallNs    int64 // handler invocations that contained a snapshot
	stallCount int64
	sentMsgs   int64
	sentBytes  int64
	waitNs     int64 // inter-replica send -> handler start
	waitCount  int64
	desync     int64 // link-queue mismatches (must stay 0)
	charges    [node.ChargeJNI + 1]chargeCount
	truncated  bool

	// clockOffset converts the node's runtime clock (Env.Now) to the
	// tracer clock.
	clockOffset int64
}

// begin opens a span. name is only evaluated if the span is retained.
func (n *nodeTrace) begin(l layer, name func() string, req, seq uint64) {
	f := frame{layer: l, start: n.t.now(), kept: -1}
	if n.t.measuring() {
		if len(n.spans) < keepSpans {
			s := span{ID: n.idBase + uint32(len(n.spans)) + 1, Node: n.id, Name: name(), Start: f.start, Req: req, Seq: seq}
			if d := len(n.stack); d > 0 && n.stack[d-1].kept >= 0 {
				s.Parent = n.spans[n.stack[d-1].kept].ID
			}
			f.kept = len(n.spans)
			n.spans = append(n.spans, s)
		} else {
			n.truncated = true
		}
	}
	n.stack = append(n.stack, f)
}

// end closes the innermost open span and books its self time.
func (n *nodeTrace) end() {
	now := n.t.now()
	d := len(n.stack) - 1
	f := n.stack[d]
	n.stack = n.stack[:d]
	dur := now - f.start
	if f.kept >= 0 {
		n.spans[f.kept].End = now
	}
	snapshot := f.snapshot || f.layer == layerSnapshot
	if d > 0 {
		p := &n.stack[d-1]
		p.children += dur
		p.snapshot = p.snapshot || snapshot
	}
	if !n.t.measuring() {
		return
	}
	n.self[f.layer] += dur - f.children
	n.count[f.layer]++
	if d == 0 && snapshot {
		n.stallNs += dur
		n.stallCount++
	}
}

// tracedEnv is the node.Env handed to a decorated handler: Send and Charge
// are observed, everything else passes through. One value per node is reused
// across invocations (handlers never retain their Env).
type tracedEnv struct {
	node.Env
	n *nodeTrace
}

func (e *tracedEnv) Send(env *msg.Envelope) {
	n := e.n
	t := n.t
	if int(n.id) < numReplicas {
		if t.measuring() {
			n.sentMsgs++
			n.sentBytes += int64(env.WireSize())
		}
		if to := int(env.To); to >= 0 && to < numReplicas {
			t.links[n.id][to].push(linkSend{at: t.now(), kind: env.Kind})
		}
	}
	e.Env.Send(env)
}

func (e *tracedEnv) Charge(p node.Profile, k node.ChargeKind, bytes int) {
	if int(k) < len(e.n.charges) && e.n.t.measuring() {
		e.n.charges[k].calls++
		e.n.charges[k].bytes += int64(bytes)
	}
	e.Env.Charge(p, k, bytes)
}

// tracedHandler decorates a node.Handler with one span per invocation.
type tracedHandler struct {
	inner node.Handler
	n     *nodeTrace
	layer layer
	env   tracedEnv
}

var _ node.Handler = (*tracedHandler)(nil)

func newTracedHandler(inner node.Handler, n *nodeTrace, l layer) *tracedHandler {
	return &tracedHandler{inner: inner, n: n, layer: l, env: tracedEnv{n: n}}
}

func (h *tracedHandler) wrap(env node.Env) node.Env {
	h.env.Env = env
	return &h.env
}

func (h *tracedHandler) OnStart(env node.Env) {
	h.n.clockOffset = h.n.t.now() - int64(env.Now())
	h.n.begin(h.layer, func() string { return layerNames[h.layer] + ".on_start" }, 0, 0)
	h.inner.OnStart(h.wrap(env))
	h.n.end()
}

func (h *tracedHandler) OnTimer(env node.Env, key node.TimerKey) {
	h.n.begin(h.layer, func() string { return layerNames[h.layer] + ".on_timer/" + key.Kind }, 0, 0)
	h.inner.OnTimer(h.wrap(env), key)
	h.n.end()
}

func (h *tracedHandler) OnEnvelope(env node.Env, e *msg.Envelope) {
	n, t := h.n, h.n.t
	var req uint64
	if e.Kind == msg.KindChannelData {
		req = wire.NewReader(e.Body).U64() // ChannelData leads with its ConnID
	}
	h.n.begin(h.layer, func() string { return layerNames[h.layer] + ".on_" + e.Kind.String() }, req, 0)
	if h.layer == layerReplica {
		start := n.stack[len(n.stack)-1].start
		if from := int(e.From); from >= 0 && from < numReplicas {
			// Delivery over an in-process link: match it with its send.
			if s, ok := t.links[from][n.id].pop(); !ok || s.kind != e.Kind {
				n.desync++
			} else if t.measuring() {
				n.waitNs += start - s.at
				n.waitCount++
			}
		} else if st := t.stamp(req); e.Kind == msg.KindChannelData && st != nil {
			st.handlerStart.Store(start)
			st.troxyIn.Store(0)
			st.executed.Store(0)
			st.voted.Store(0)
		}
	}
	h.inner.OnEnvelope(h.wrap(env), e)
	h.n.end()
}

// stageSums accumulates the latency budget over completed operations.
type stageSums struct {
	ingress, troxyIn, order, vote, egress int64
	complete, incomplete                  int64
}

// add books one completed operation from its client-side invocation and
// response times (tracer clock) and its replica-side stamps; it reports
// whether every stamp was present and in order.
func (s *stageSums) add(invoked, responded int64, st *opStamps) bool {
	t1, t2, t3, t4 := st.handlerStart.Load(), st.troxyIn.Load(), st.executed.Load(), st.voted.Load()
	if !(invoked <= t1 && t1 <= t2 && t2 <= t4 && t4 <= responded) {
		s.incomplete++
		return false
	}
	// A fast read has no ordered execution, and a reply vote can complete
	// on the peers' replies before the contact replica has executed: in
	// both cases the whole interval up to the vote counts as the ordering
	// (or cache-query) stage.
	if t3 < t2 || t3 > t4 {
		t3 = t4
	}
	s.ingress += t1 - invoked
	s.troxyIn += t2 - t1
	s.order += t3 - t2
	s.vote += t4 - t3
	s.egress += responded - t4
	s.complete++
	return true
}

// traceFile is the on-disk form of a traced repetition.
type traceFile struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Truncated bool               `json:"truncated"`
	Note      string             `json:"note"`
	Summary   map[string]float64 `json:"summary"`
	Spans     []span             `json:"spans"`
}

// write stores the retained spans and the derived summary as
// <dir>/trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed int64, summary map[string]float64) error {
	tf := traceFile{
		Workload: workload,
		Seed:     seed,
		Summary:  summary,
		Note: fmt.Sprintf("first %d spans per node of the measured window, kept verbatim; "+
			"the summary aggregates every span of the window", keepSpans),
	}
	for _, n := range t.nodes {
		tf.Spans = append(tf.Spans, n.spans...)
		tf.Truncated = tf.Truncated || n.truncated
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	data, err := json.Marshal(&tf)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
