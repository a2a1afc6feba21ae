package hybster

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/tcounter"
	"github.com/troxy-bft/troxy/internal/testutil"
)

// heldHost is the host of a stand-alone core in the tests of what Submit
// keeps: it records what the core sends and executes.
type heldHost struct {
	core     *Core
	forwards []*msg.Forward
	preps    []*msg.Prepare
	executed []uint64 // client sequence numbers, in execution order
}

func (h *heldHost) Send(_ node.Env, to msg.NodeID, m msg.Message) {
	switch m := m.(type) {
	case *msg.Forward:
		h.forwards = append(h.forwards, m)
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

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestOriginFollowerAdmitsItsOwnRequestWithoutCopying: a follower that
// submitted a request holds its bytes and its digest. When the leader's
// PREPARE brings the request back, the follower finds it by comparison: the
// log entry shares the held request's bytes instead of copying them out of the
// envelope, a stranger's request in the same batch is copied as ever, and the
// admission allocates one operation less than it does for two strangers.
func TestOriginFollowerAdmitsItsOwnRequestWithoutCopying(t *testing.T) {
	var env fakeEnv
	own := &msg.OrderRequest{Origin: 1, Client: 7, ClientSeq: 1, Op: bigPut("own")}
	foreign := msg.OrderRequest{Origin: 2, Client: 8, ClientSeq: 1, Op: bigPut("foreign")}
	stranger := msg.OrderRequest{Origin: 2, Client: 9, ClientSeq: 1, Op: bigPut("own")}

	h, leader := heldCore(1)
	h.core.Submit(&env, own)
	if len(h.forwards) != 1 || &h.forwards[0].Req.Op[0] != &own.Op[0] {
		t.Fatalf("the request was forwarded %d times, or not from the bytes it was submitted in", len(h.forwards))
	}
	body := proposal(t, leader, 1, wireCopy(own), wireCopy(&foreign))
	withOwn := allocated(func() { deliver(t, h.core, &env, body) })

	e := h.core.log[1]
	if e == nil || !e.hasPrep || !e.executed {
		t.Fatalf("the PREPARE was not admitted and executed: %+v", e)
	}
	if got := e.batch.Reqs[0].Op; &got[0] != &own.Op[0] {
		t.Error("the log entry copied the request this replica submitted and held")
	}
	if got := e.batch.Reqs[1].Op; !bytes.Equal(got, foreign.Op) {
		t.Errorf("the stranger's request was kept as a view of the overwritten envelope: %q…", got[:16])
	}
	if e.batch.Reqs[0].Digest() != own.Digest() || e.batch.Digest() != e.digest {
		t.Error("the admitted batch does not carry the digests hashing would have produced")
	}
	if len(h.core.pendingLocal) != 0 {
		t.Error("the executed request is still on the progress watch")
	}

	// The same batch from two strangers, at a follower that holds neither.
	h2, leader2 := heldCore(1)
	body2 := proposal(t, leader2, 1, wireCopy(&stranger), wireCopy(&foreign))
	withStranger := allocated(func() { deliver(t, h2.core, &env, body2) })
	if e := h2.core.log[1]; e == nil || !e.executed {
		t.Fatal("the strangers' PREPARE was not admitted and executed")
	}
	// (Not under the race detector, whose sync.Pool drops a share of what is
	// put back: a pooled writer allocated anew on one side is noise the size
	// of the signal.)
	if saved := int64(withStranger) - int64(withOwn); !testutil.RaceEnabled() && saved < int64(len(own.Op)) {
		t.Errorf("admitting the held request allocated %d bytes, a stranger's in its place %d: saved %d, want the operation's %d",
			withOwn, withStranger, saved, len(own.Op))
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
			if len(h.executed) != 1 || &h.core.log[1].batch.Reqs[0].Op[0] != &own.Op[0] {
				t.Errorf("the genuine PREPARE executed %d requests, or was not admitted from the held bytes", len(h.executed))
			}
		})
	}
}

// TestRetransmissionFindsTheRequestHeld: a client retransmission reaches
// Submit as a second request equal to the first. The core goes on holding the
// first — one watch entry, the suspicion deadline not reset — forwards it
// again, and keeps nothing of the second.
func TestRetransmissionFindsTheRequestHeld(t *testing.T) {
	env := &timerEnv{}
	h, leader := heldCore(1)
	first := &msg.OrderRequest{Origin: 1, Client: 7, ClientSeq: 1, Op: []byte("PUT k v")}
	again := wireCopy(first)
	h.core.Submit(env, first)
	h.core.Submit(env, &again)
	for i := range again.Op {
		again.Op[i] = 0xA5 // nothing may depend on the retransmission's bytes
	}

	if len(h.core.pendingLocal) != 1 || env.armed != 1 {
		t.Fatalf("%d requests watched and the timer armed %d times after a retransmission, want 1 and 1",
			len(h.core.pendingLocal), env.armed)
	}
	if len(h.forwards) != 2 || &h.forwards[1].Req.Op[0] != &first.Op[0] {
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

	deliver(t, h.core, env, proposal(t, leader, 1, wireCopy(b)))
	if got := h.core.log[1].batch.Reqs[0].Op; &got[0] != &b.Op[0] {
		t.Error("the second request under the ID was not recognised by its bytes")
	}
	if len(h.executed) != 1 || len(h.core.pendingLocal) != 1 || env.cancelled != 0 {
		t.Fatalf("after one of the two: executed %d, IDs watched %d, timer cancelled %d; want 1, 1, 0",
			len(h.executed), len(h.core.pendingLocal), env.cancelled)
	}
	if h.core.pendingLocal[idOf(a)].req != a {
		t.Fatal("executing one request cleared the other")
	}

	deliver(t, h.core, env, proposal(t, leader, 2, wireCopy(a)))
	if got := h.core.log[2].batch.Reqs[0].Op; &got[0] != &a.Op[0] {
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
// the change was under way — are the requests Submit was handed, not copies.
// The replica that becomes leader proposes them from those bytes, under the
// digests they were submitted with.
func TestViewChangeRedrivesTheRequestsSubmitKept(t *testing.T) {
	var env fakeEnv
	h, _ := heldCore(1) // leads view 1
	watchedReq := &msg.OrderRequest{Origin: 1, Client: 7, ClientSeq: 1, Op: []byte("PUT k watched")}
	queuedReq := &msg.OrderRequest{Origin: 1, Client: 8, ClientSeq: 1, Op: []byte("PUT k queued")}
	want := (&msg.Batch{Reqs: []msg.OrderRequest{wireCopy(watchedReq), wireCopy(queuedReq)}}).Digest()

	h.core.Submit(&env, watchedReq) // forwarded to replica 0, which never answers
	h.core.startViewChange(&env, 1)
	if !h.core.InViewChange() {
		t.Fatal("the replica did not join the view change")
	}
	h.core.Submit(&env, queuedReq)
	if len(h.core.queued) != 1 || h.core.queued[0] != queuedReq {
		t.Fatal("a request submitted during the view change is not queued as it was handed over")
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
	if &proposed[0].Op[0] != &watchedReq.Op[0] || &proposed[1].Op[0] != &queuedReq.Op[0] {
		t.Error("the re-driven requests were proposed from copies, or out of client order")
	}
	if got := (&msg.Batch{Reqs: proposed}).Digest(); got != want {
		t.Errorf("re-driven requests digest to %s, the requests as submitted to %s", got.Short(), want.Short())
	}
}

// BenchmarkAllocGate holds the two steps that make the origin's copy the only
// one. Submit keeps the request it is given: at a follower it allocates the
// FORWARD it sends and nothing for the request — the progress watch's entry is
// a map slot. And a PREPARE that brings held requests back is matched and
// admitted without hashing or copying them: decoded by view, a batch of four
// held 4 KiB requests costs the log its batch and request slice, no slab.
func BenchmarkAllocGate(b *testing.B) {
	var env fakeEnv
	h, leader := heldCore(1)

	req, seq := new(msg.OrderRequest), uint64(1<<32)
	op := bigPut("own")
	testutil.AllocGate(b, "SubmitKeepsWhatItIsGiven", 1, func() {
		seq++
		*req = msg.OrderRequest{Origin: 1, Client: 7, ClientSeq: seq, Op: op}
		h.core.Submit(&env, req)
		if h.core.pendingLocal[idOf(req)].req != req || &h.forwards[0].Req.Op[0] != &op[0] {
			b.Fatal("Submit did not keep the request it was given")
		}
		h.core.clearProgress(&env, req, req.Digest()) // as its execution would
		h.forwards = h.forwards[:0]
	})

	held := make([]msg.OrderRequest, 4)
	wire := make([]msg.OrderRequest, len(held))
	for i := range held {
		held[i] = msg.OrderRequest{Origin: 1, Client: 7, ClientSeq: uint64(i + 1), Op: bigPut("own")}
		h.core.Submit(&env, &held[i])
		wire[i] = wireCopy(&held[i])
	}
	body := proposal(b, leader, 1, wire...)
	testutil.AllocGate(b, "AdmitPrepareWithHeldRequest", 2+2, func() {
		m, err := (&msg.Envelope{Kind: msg.KindPrepare, Body: body}).Open() // message, request slice
		if err != nil {
			b.Fatal(err)
		}
		batch := &m.(*msg.Prepare).Batch
		h.core.AdoptHeld(batch)
		kept := batch.CloneExcept(h.core.holds) // batch, request slice
		if &kept.Reqs[3].Op[0] != &held[3].Op[0] || kept.Digest() != batch.Digest() {
			b.Fatal("the held requests were not adopted")
		}
	})
}
