package hybster

import (
	"bytes"
	"testing"
	"time"

	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/tcounter"
	"github.com/troxy-bft/troxy/internal/testutil"
	"github.com/troxy-bft/troxy/internal/wire"
)

// heldHost is the host of a stand-alone core in the tests of what Submit
// keeps: it records what the core sends and executes. A FORWARD is valid for
// the Send only (the core sends every one from the same value), so it keeps a
// copy of the message: the request's bytes are still the ones sent.
type heldHost struct {
	core     *Core
	forwards []msg.Forward
	preps    []*msg.Prepare
	executed []uint64 // client sequence numbers, in execution order
}

func (h *heldHost) Send(_ node.Env, to msg.NodeID, m msg.Message) {
	switch m := m.(type) {
	case *msg.Forward:
		h.forwards = append(h.forwards, *m)
	case *msg.Prepare:
		if to == (h.core.cfg.Self+1)%3 { // one recipient's copy per broadcast
			h.preps = append(h.preps, m)
		}
	}
}

func (h *heldHost) Committed(_ node.Env, _ uint64, req *msg.OrderRequest, _ []byte, _ []string, _, fresh bool) {
	if fresh {
		h.executed = append(h.executed, req.ClientSeq)
	}
}

// timerEnv counts what happens to the leader-suspicion timer.
type timerEnv struct {
	fakeEnv
	armed, cancelled int
}

func (e *timerEnv) SetTimer(_ time.Duration, key node.TimerKey) {
	if key.Kind == timerProgress {
		e.armed++
	}
}

func (e *timerEnv) CancelTimer(key node.TimerKey) {
	if key.Kind == timerProgress {
		e.cancelled++
	}
}

const heldDepth = 2

// heldCore builds replica self of three (replica 0 leads view 0, replica 1
// view 1) and the counter subsystem of view 0's leader.
func heldCore(self msg.NodeID) (*heldHost, *tcounter.Subsystem) {
	keyed := func(owner msg.NodeID) *tcounter.Subsystem {
		s := tcounter.NewSubsystem(owner)
		s.SetKey([]byte("test-counter-key"))
		return s
	}
	h := &heldHost{}
	h.core = New(Config{
		Self:               self,
		N:                  3,
		F:                  1,
		CheckpointInterval: 1 << 30,
		ViewChangeTimeout:  time.Minute,
		Authority:          tcounter.Direct{S: keyed(self)},
		App:                app.NewStore(),
		PipelineDepth:      heldDepth,
	}, h)
	return h, keyed(0)
}

// proposal certifies reqs as view 0's batch at seq the way the leader does and
// returns the PREPARE's encoding: what a follower is delivered.
func proposal(t testing.TB, leader *tcounter.Subsystem, seq uint64, reqs ...msg.OrderRequest) []byte {
	t.Helper()
	batch := msg.Batch{Reqs: reqs}
	counter := tcounter.OrderLaneCounter(0, tcounter.LaneOf(seq, heldDepth), heldDepth)
	cert, err := leader.Certify(counter, seq, prepareDigest(0, seq, batch.Digest()))
	if err != nil {
		t.Fatalf("certify prepare seq %d: %v", seq, err)
	}
	return msg.EncodeBody(&msg.Prepare{View: 0, Seq: seq, Batch: batch, Cert: cert})
}

// deliver hands a core a PREPARE the way replica.Replica does: decoded by view
// from body, matched against what the core holds, then processed — after
// which the transport is free to overwrite body, and does.
func deliver(t testing.TB, c *Core, env node.Env, body []byte) {
	t.Helper()
	e := &msg.Envelope{From: 0, To: c.cfg.Self, Kind: msg.KindPrepare, Body: body}
	m, err := e.Open()
	if err != nil {
		t.Fatal(err)
	}
	prep := m.(*msg.Prepare)
	c.AdoptHeld(&prep.Batch)
	c.OnPrepare(env, 0, prep)
	for i := range body {
		body[i] = 0xA5
	}
}

// wireCopy is req as a peer's message would carry it: the same fields over
// bytes of its own, with no digest yet.
func wireCopy(req *msg.OrderRequest) msg.OrderRequest {
	return msg.OrderRequest{Origin: req.Origin, Client: req.Client, ClientSeq: req.ClientSeq,
		Flags: req.Flags, Op: bytes.Clone(req.Op)}
}

func bigPut(key string) []byte {
	return append([]byte("PUT "+key+" "), bytes.Repeat([]byte{'v'}, 4096-5-len(key))...)
}

// uncarved is a PUT too long to be carved from an operation chunk.
func uncarved(key string) []byte {
	return append([]byte("PUT "+key+" "), bytes.Repeat([]byte{'v'}, slabOps/4)...)
}

// kept returns the request Submit keeps on the progress watch for req's
// client and sequence number: a copy of req, in the core's slab.
func kept(t testing.TB, c *Core, req *msg.OrderRequest) *msg.OrderRequest {
	t.Helper()
	held := c.pendingLocal[idOf(req)].req
	if held == nil || !bytes.Equal(held.Op, req.Op) || held.Digest() != req.Digest() {
		t.Fatalf("the progress watch does not hold %v", req)
	}
	if &held.Op[0] == &req.Op[0] {
		t.Fatal("Submit kept the caller's bytes instead of a copy")
	}
	return held
}

// admissionAllocs is what a follower allocates to admit body's batch to its
// log — decoded into a PREPARE it reuses, matched against what it holds and
// kept — per admission, counted by testing.AllocsPerRun: the core's harness
// starts no goroutine, so every allocation counted is the admission's.
func admissionAllocs(c *Core, body []byte) float64 {
	var prep msg.Prepare
	return testing.AllocsPerRun(100, func() {
		if err := prep.UnmarshalWire(wire.NewReader(body)); err != nil {
			panic(err)
		}
		c.AdoptHeld(&prep.Batch)
		c.keepBatch(&prep.Batch)
	})
}

// TestOriginFollowerAdmitsItsOwnRequestWithoutCopying: a follower that
// submitted a request holds a copy of its bytes and its digest. When the
// leader's PREPARE brings the request back, the follower finds it by
// comparison: the log entry shares the held request's bytes instead of
// copying them out of the envelope, and a stranger's request in the same
// batch is copied as ever — into the core's slab, which advances by the
// stranger's operation alone, or, for an operation too long to be carved,
// into an allocation of its own: admitting the held request allocates one
// operation less than admitting a stranger's in its place.
func TestOriginFollowerAdmitsItsOwnRequestWithoutCopying(t *testing.T) {
	var env fakeEnv
	foreign := msg.OrderRequest{Origin: 2, Client: 8, ClientSeq: 1, Op: []byte("PUT foreign 1")}
	own := &msg.OrderRequest{Origin: 1, Client: 7, ClientSeq: 1, Op: []byte("PUT own 1")}
	h, leader := heldCore(1)
	h.core.Submit(&env, own)
	held := kept(t, h.core, own)
	if len(h.forwards) != 1 || &h.forwards[0].Req.Op[0] != &held.Op[0] {
		t.Fatalf("the request was forwarded %d times, or not from the bytes Submit kept", len(h.forwards))
	}
	body := proposal(t, leader, 1, wireCopy(own), wireCopy(&foreign))
	free := len(h.core.slab.ops)
	deliver(t, h.core, &env, body)

	e := h.core.log[1]
	if e == nil || !e.hasPrep || !e.executed {
		t.Fatalf("the PREPARE was not admitted and executed: %+v", e)
	}
	if got := e.batch.Reqs[0].Op; &got[0] != &held.Op[0] {
		t.Fatal("the log entry copied the request this replica submitted and held")
	}
	if got := e.batch.Reqs[1].Op; !bytes.Equal(got, foreign.Op) {
		t.Fatalf("the stranger's request was kept as a view of the overwritten envelope: %q", got)
	}
	if e.batch.Reqs[0].Digest() != own.Digest() || e.batch.Digest() != e.digest {
		t.Fatal("the admitted batch does not carry the digests hashing would have produced")
	}
	if used := free - len(h.core.slab.ops); used != len(foreign.Op) {
		t.Errorf("admitting the batch carved %d bytes of operations, want the stranger's %d", used, len(foreign.Op))
	}
	if len(h.core.pendingLocal) != 0 {
		t.Fatal("the executed request is still on the progress watch")
	}

	// Operations too long for the slab, each copied into an allocation of
	// its own, make the saving countable.
	if testutil.RaceEnabled() {
		return // the race detector's sync.Pool drops what is put back: noise the size of the signal
	}
	bigOwn := &msg.OrderRequest{Origin: 1, Client: 7, ClientSeq: 2, Op: uncarved("own")}
	bigForeign := msg.OrderRequest{Origin: 2, Client: 8, ClientSeq: 2, Op: uncarved("foreign")}
	stranger := msg.OrderRequest{Origin: 2, Client: 9, ClientSeq: 1, Op: uncarved("own")}
	h.core.Submit(&env, bigOwn)
	withOwn := admissionAllocs(h.core, proposal(t, leader, 2, wireCopy(bigOwn), wireCopy(&bigForeign)))
	withStranger := admissionAllocs(h.core, proposal(t, leader, 4, wireCopy(&stranger), wireCopy(&bigForeign)))
	if withOwn != 1 || withStranger != 2 {
		t.Errorf("admitting the held request with a stranger's allocated %v times, two strangers' %v; want 1 and 2",
			withOwn, withStranger)
	}
}

// TestTamperedOwnRequestIsNotRecognised: the leader's PREPARE carries a
// request this follower submitted with one thing changed — a byte of the
// operation, the flags, the origin. The follower must not take it for the one
// it holds: the request is hashed as received, the batch digest differs from
// the certified one, and the PREPARE dies on the certificate check, counted
// as unverified and blaming nobody — what TestForgedCertificateIsRejected
// demands of a forged certificate, demanded of a genuine certificate over
// other bytes.
// (Matching by client and sequence number alone would verify the certificate
// against the held request's digest and acknowledge a PREPARE that does not
// carry what was certified.)
func TestTamperedOwnRequestIsNotRecognised(t *testing.T) {
	var env fakeEnv
	for name, tamper := range map[string]func(*msg.OrderRequest){
		"operation byte": func(r *msg.OrderRequest) { r.Op[len(r.Op)/2] ^= 1 },
		"operation cut":  func(r *msg.OrderRequest) { r.Op = r.Op[:len(r.Op)-1] },
		"flags":          func(r *msg.OrderRequest) { r.Flags ^= msg.FlagFastCommit },
		"origin":         func(r *msg.OrderRequest) { r.Origin = 2 },
	} {
		t.Run(name, func(t *testing.T) {
			own := &msg.OrderRequest{Origin: 1, Client: 7, ClientSeq: 1, Op: []byte("PUT k genuine")}
			h, leader := heldCore(1)
			h.core.Submit(&env, own)
			held := kept(t, h.core, own)

			genuine := proposal(t, leader, 1, wireCopy(own))
			m, err := (&msg.Envelope{Kind: msg.KindPrepare, Body: genuine}).Open()
			if err != nil {
				t.Fatal(err)
			}
			tampered := m.(*msg.Prepare) // the genuine certificate …
			tampered.Batch.Reqs[0] = wireCopy(own)
			tamper(&tampered.Batch.Reqs[0]) // … over a request that is not the certified one
			deliver(t, h.core, &env, msg.EncodeBody(tampered))

			if m := h.core.Metrics(); m.UnverifiedCerts != 1 || h.core.RejectedCertsFrom(0) != 0 {
				t.Errorf("after a PREPARE whose request was tampered with: UnverifiedCerts %d, RejectedCertsFrom(leader) %d, want 1 and 0",
					m.UnverifiedCerts, h.core.RejectedCertsFrom(0))
			}
			if e, ok := h.core.log[1]; ok && e.hasPrep {
				t.Fatal("the tampered PREPARE was admitted to the log")
			}
			if len(h.executed) != 0 {
				t.Fatal("the tampered PREPARE executed")
			}

			deliver(t, h.core, &env, genuine)
			if len(h.executed) != 1 || &h.core.log[1].batch.Reqs[0].Op[0] != &held.Op[0] {
				t.Errorf("the genuine PREPARE executed %d requests, or was not admitted from the held bytes", len(h.executed))
			}
		})
	}
}

// TestRetransmissionFindsTheRequestHeld: a client retransmission reaches
// Submit as a second request equal to the first. The core goes on holding its
// copy of the first — one watch entry, the suspicion deadline not reset —
// forwards it again, and copies nothing of the second.
func TestRetransmissionFindsTheRequestHeld(t *testing.T) {
	env := &timerEnv{}
	h, leader := heldCore(1)
	first := &msg.OrderRequest{Origin: 1, Client: 7, ClientSeq: 1, Op: []byte("PUT k v")}
	again := wireCopy(first)
	h.core.Submit(env, first)
	held := kept(t, h.core, first)
	free := len(h.core.slab.ops)
	h.core.Submit(env, &again)
	if len(h.core.slab.ops) != free {
		t.Error("the retransmission was copied")
	}
	for i := range again.Op {
		again.Op[i] = 0xA5 // nothing may depend on the retransmission's bytes
	}

	if len(h.core.pendingLocal) != 1 || env.armed != 1 {
		t.Fatalf("%d requests watched and the timer armed %d times after a retransmission, want 1 and 1",
			len(h.core.pendingLocal), env.armed)
	}
	if len(h.forwards) != 2 || &h.forwards[1].Req.Op[0] != &held.Op[0] {
		t.Fatalf("%d forwards, or the retransmission was not forwarded from the held request", len(h.forwards))
	}
	deliver(t, h.core, env, proposal(t, leader, 1, wireCopy(first)))
	if len(h.executed) != 1 || len(h.core.pendingLocal) != 0 || env.cancelled != 1 {
		t.Errorf("executed %d, still watching %d, timer cancelled %d times; want 1, 0, 1",
			len(h.executed), len(h.core.pendingLocal), env.cancelled)
	}
}

// TestTwoSubmitsUnderOneIDAreWatchedEachForItself: a client that reuses a
// sequence number for a different operation has two requests pending under
// one name. Both are forwarded and watched; each is recognised in a PREPARE by
// its own bytes; executing one clears that one, and the watch ends when the
// other has been ordered too (and skipped: the client table has moved on).
func TestTwoSubmitsUnderOneIDAreWatchedEachForItself(t *testing.T) {
	env := &timerEnv{}
	h, leader := heldCore(1)
	a := &msg.OrderRequest{Origin: 1, Client: 7, ClientSeq: 1, Op: []byte("PUT k a")}
	b := &msg.OrderRequest{Origin: 1, Client: 7, ClientSeq: 1, Op: []byte("PUT k b")}
	h.core.Submit(env, a)
	h.core.Submit(env, b)
	if len(h.forwards) != 2 || env.armed != 1 {
		t.Fatalf("%d forwards, timer armed %d times; want 2 and 1", len(h.forwards), env.armed)
	}
	w := h.core.pendingLocal[idOf(a)]
	heldA, heldB := w.req, w.more[0]

	deliver(t, h.core, env, proposal(t, leader, 1, wireCopy(b)))
	if got := h.core.log[1].batch.Reqs[0].Op; &got[0] != &heldB.Op[0] {
		t.Error("the second request under the ID was not recognised by its bytes")
	}
	if len(h.executed) != 1 || len(h.core.pendingLocal) != 1 || env.cancelled != 0 {
		t.Fatalf("after one of the two: executed %d, IDs watched %d, timer cancelled %d; want 1, 1, 0",
			len(h.executed), len(h.core.pendingLocal), env.cancelled)
	}
	if h.core.pendingLocal[idOf(a)].req != heldA {
		t.Fatal("executing one request cleared the other")
	}

	deliver(t, h.core, env, proposal(t, leader, 2, wireCopy(a)))
	if got := h.core.log[2].batch.Reqs[0].Op; &got[0] != &heldA.Op[0] {
		t.Error("the first request under the ID was not recognised by its bytes")
	}
	if len(h.executed) != 1 || len(h.core.pendingLocal) != 0 || env.cancelled != 1 {
		t.Errorf("after both: executed %d, IDs watched %d, timer cancelled %d; want 1, 0, 1",
			len(h.executed), len(h.core.pendingLocal), env.cancelled)
	}
	if got := h.core.cfg.App.Execute([]byte("GET k")); string(got) != "VALUE b" {
		t.Errorf("GET k = %q, want the value of the request ordered first", got)
	}
}

// TestViewChangeRedrivesTheRequestsSubmitKept: what a replica re-drives after
// a view change — the requests on its progress watch, and those queued while
// the change was under way — are the copies Submit kept, not copies of them,
// and not the caller's memory, which it reuses. The replica that becomes
// leader proposes them from those bytes, under the digests they were
// submitted with.
func TestViewChangeRedrivesTheRequestsSubmitKept(t *testing.T) {
	var env fakeEnv
	h, _ := heldCore(1) // leads view 1
	watchedReq := &msg.OrderRequest{Origin: 1, Client: 7, ClientSeq: 1, Op: []byte("PUT k watched")}
	queuedReq := &msg.OrderRequest{Origin: 1, Client: 8, ClientSeq: 1, Op: []byte("PUT k queued")}
	want := (&msg.Batch{Reqs: []msg.OrderRequest{wireCopy(watchedReq), wireCopy(queuedReq)}}).Digest()

	h.core.Submit(&env, watchedReq) // forwarded to replica 0, which never answers
	watchedKept := kept(t, h.core, watchedReq)
	h.core.startViewChange(&env, 1)
	if !h.core.inVC {
		t.Fatal("the replica did not join the view change")
	}
	h.core.Submit(&env, queuedReq)
	if len(h.core.queued) != 1 || !bytes.Equal(h.core.queued[0].Op, queuedReq.Op) || &h.core.queued[0].Op[0] == &queuedReq.Op[0] {
		t.Fatal("a request submitted during the view change is not queued as a copy of what was handed over")
	}
	queuedKept := h.core.queued[0]
	for _, req := range []*msg.OrderRequest{watchedReq, queuedReq} {
		for i := range req.Op {
			req.Op[i] = 0xA5 // the caller reuses its memory
		}
	}

	peer := tcounter.NewSubsystem(2)
	peer.SetKey([]byte("test-counter-key"))
	vc := &ViewChange{Replica: 2, NewView: 1}
	cert, err := peer.Certify(tcounter.ViewChangeCounter, 1, vc.CertDigest())
	if err != nil {
		t.Fatal(err)
	}
	vc.Cert = cert
	h.core.OnViewChange(&env, 2, vc)
	if h.core.View() != 1 || !h.core.IsLeader() {
		t.Fatalf("view %d installed, leader %v; want view 1 led by this replica", h.core.View(), h.core.IsLeader())
	}

	var proposed []msg.OrderRequest
	for _, p := range h.preps {
		proposed = append(proposed, p.Batch.Reqs...)
	}
	if len(proposed) != 2 {
		t.Fatalf("the new leader proposed %d requests, want the two it was responsible for", len(proposed))
	}
	if &proposed[0].Op[0] != &watchedKept.Op[0] || &proposed[1].Op[0] != &queuedKept.Op[0] {
		t.Error("the re-driven requests were proposed from copies, or out of client order")
	}
	if got := (&msg.Batch{Reqs: proposed}).Digest(); got != want {
		t.Errorf("re-driven requests digest to %s, the requests as submitted to %s", got.Short(), want.Short())
	}
}

// roundNet is three cores that hand each other what they send the way
// replica.Replica does: encoded once per broadcast, and decoded by view into
// the PREPARE, COMMIT or FORWARD the receiving host owns, on the caller's
// goroutine until nothing is in flight.
type roundNet struct {
	hosts    []*roundHost
	queue    []roundMsg
	executed int
}

type roundMsg struct {
	from, to msg.NodeID
	kind     msg.Kind
	body     []byte
}

// roundHost is one core's Outbound and Broadcaster, and the structs its
// deliveries are decoded into.
type roundHost struct {
	net  *roundNet
	core *Core
	self msg.NodeID
	prep msg.Prepare
	com  msg.Commit
	fwd  msg.Forward
}

func (h *roundHost) Send(_ node.Env, to msg.NodeID, m msg.Message) {
	h.net.queue = append(h.net.queue, roundMsg{h.self, to, m.Kind(), msg.EncodeBody(m)})
}

func (h *roundHost) Broadcast(_ node.Env, m msg.Message) {
	body := msg.EncodeBody(m)
	for to := range h.net.hosts {
		if msg.NodeID(to) != h.self {
			h.net.queue = append(h.net.queue, roundMsg{h.self, msg.NodeID(to), m.Kind(), body})
		}
	}
}

func (h *roundHost) Committed(node.Env, uint64, *msg.OrderRequest, []byte, []string, bool, bool) {
	h.net.executed++
}

func newRoundNet(batch int) *roundNet {
	n := &roundNet{}
	for i := range 3 {
		sub := tcounter.NewSubsystem(msg.NodeID(i))
		sub.SetKey([]byte("test-counter-key"))
		h := &roundHost{net: n, self: msg.NodeID(i)}
		h.core = New(Config{
			Self: msg.NodeID(i), N: 3, F: 1,
			CheckpointInterval: 1 << 30,
			ViewChangeTimeout:  time.Minute,
			BatchSize:          batch,
			BatchDelay:         time.Hour, // a batch is cut when full
			PipelineDepth:      4,
			Authority:          tcounter.Direct{S: sub},
			App:                app.NewStore(),
		}, h)
		n.hosts = append(n.hosts, h)
	}
	return n
}

// deliver moves messages until none is in flight.
func (n *roundNet) deliver(tb testing.TB, env node.Env) {
	for i := 0; i < len(n.queue); i++ {
		d := n.queue[i]
		h := n.hosts[d.to]
		rd := wire.NewReader(d.body)
		var err error
		switch d.kind {
		case msg.KindPrepare:
			if err = h.prep.UnmarshalWire(rd); err == nil {
				h.core.AdoptHeld(&h.prep.Batch)
				h.core.OnPrepare(env, d.from, &h.prep)
			}
		case msg.KindCommit:
			if err = h.com.UnmarshalWire(rd); err == nil {
				h.core.OnCommit(env, d.from, &h.com)
			}
		case msg.KindForward:
			if err = h.fwd.UnmarshalWire(rd); err == nil {
				h.core.OnForward(env, d.from, &h.fwd)
			}
		default:
			tb.Fatalf("a round sent a %s", d.kind)
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	n.queue = n.queue[:0]
}

// BenchmarkAllocGate holds the steps that make the origin's copy the only
// one, and what a sequence number costs. Submit copies the request it is
// given into the core's slab: at a follower it sends the core's one FORWARD
// from the copy and allocates nothing per request — the progress watch's
// entry is a map slot, the copy a carve of a chunk. A PREPARE that brings held
// requests back is decoded into a struct its host reuses, matched and
// admitted without hashing or copying them: a batch of four held 4 KiB
// requests costs the log four request slots of the slab, and no operation.
// And one round of a batch of one across three cores — submitted at the
// leader, certified, encoded, decoded, committed and executed everywhere — is
// held at what it measures.
func BenchmarkAllocGate(b *testing.B) {
	var env fakeEnv
	h, leader := heldCore(1)

	req, seq := new(msg.OrderRequest), uint64(1<<32)
	op := append([]byte("PUT own "), bytes.Repeat([]byte{'v'}, 120)...)
	testutil.AllocGate(b, "SubmitCopiesIntoTheSlab", 0, func() {
		seq++
		*req = msg.OrderRequest{Origin: 1, Client: 7, ClientSeq: seq, Op: op}
		h.core.Submit(&env, req)
		held := h.core.pendingLocal[idOf(req)].req
		if held == req || &held.Op[0] == &op[0] || &h.forwards[0].Req.Op[0] != &held.Op[0] {
			b.Fatal("Submit did not keep a copy of the request it was given, or forwarded another")
		}
		h.core.clearProgress(&env, req, req.Digest()) // as its execution would
		h.forwards = h.forwards[:0]
	})

	held := make([]msg.OrderRequest, 4)
	onWire := make([]msg.OrderRequest, len(held))
	for i := range held {
		held[i] = msg.OrderRequest{Origin: 1, Client: 7, ClientSeq: uint64(i + 1), Op: bigPut("own")}
		h.core.Submit(&env, &held[i])
		onWire[i] = wireCopy(&held[i])
	}
	body := proposal(b, leader, 1, onWire...)
	var prep msg.Prepare
	testutil.AllocGate(b, "AdmitPrepareWithHeldRequest", 0, func() {
		if err := prep.UnmarshalWire(wire.NewReader(body)); err != nil {
			b.Fatal(err)
		}
		h.core.AdoptHeld(&prep.Batch)
		kept := h.core.keepBatch(&prep.Batch) // four slots of the slab
		if kept.Reqs[3].Op == nil || &kept.Reqs[3].Op[0] != &h.core.pendingLocal[idOf(&held[3])].req.Op[0] ||
			kept.Digest() != prep.Batch.Digest() {
			b.Fatal("the held requests were not adopted")
		}
	})

	n := newRoundNet(1)
	put := append([]byte("PUT k "), bytes.Repeat([]byte{'v'}, 128)...)
	round := uint64(0)
	testutil.AllocGate(b, "RoundOfOneOnThreeCores", 16, func() {
		round++
		want := n.executed + 3
		n.hosts[0].core.Submit(&env, &msg.OrderRequest{Origin: 0, Client: 1, ClientSeq: round, Op: put})
		n.deliver(b, &env)
		if n.executed != want {
			b.Fatalf("round %d executed %d of 3", round, n.executed-want+3)
		}
	})
}
