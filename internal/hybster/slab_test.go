package hybster

import (
	"bytes"
	"testing"

	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/testutil"
)

// overwrite is what a lender does to the memory it lent once the call
// returns: it reuses it.
func overwrite(b []byte) {
	for i := range b {
		b[i] = 0xA5
	}
}

// TestOrderingCopiesWhatItKeeps: every request ordering keeps is copied into
// the core's slab at the one point where it is kept — Submit's progress watch,
// OnForward's batch, acceptPrepare's log entry, the queue of a view change —
// so the caller may overwrite the view it handed over as soon as the call
// returns, and the log and the progress watch still hold the original bytes,
// under the original digests. Each copy is cap-limited: appending to one
// never writes into the next.
func TestOrderingCopiesWhatItKeeps(t *testing.T) {
	var env fakeEnv
	check := func(what string, got *msg.OrderRequest, want msg.OrderRequest) {
		t.Helper()
		if got == nil || !bytes.Equal(got.Op, want.Op) || got.Client != want.Client || got.Digest() != want.Digest() {
			t.Errorf("%s keeps %v, want %v", what, got, &want)
			return
		}
		if cap(got.Op) != len(got.Op) {
			t.Errorf("%s keeps an operation of cap %d beyond its %d bytes", what, cap(got.Op), len(got.Op))
		}
	}

	// A follower: Submit, then the PREPARE that brings its request back with
	// a stranger's (deliver overwrites the PREPARE's body once it returns).
	h, leader := heldCore(1)
	sub := &msg.OrderRequest{Origin: 1, Client: 7, ClientSeq: 1, Op: []byte("PUT s submitted")}
	submitted := wireCopy(sub)
	h.core.Submit(&env, sub)
	overwrite(sub.Op)
	check("the progress watch", h.core.pendingLocal[idOf(&submitted)].req, submitted)
	check("the forwarded request", &h.forwards[0].Req, submitted)
	prepared := msg.OrderRequest{Origin: 2, Client: 8, ClientSeq: 1, Op: []byte("PUT p prepared")}
	deliver(t, h.core, &env, proposal(t, leader, 1, wireCopy(&submitted), wireCopy(&prepared)))
	if e := h.core.log[1]; e == nil || len(e.batch.Reqs) != 2 {
		t.Fatal("the PREPARE was not admitted")
	}
	check("the follower's log, for its own request", &h.core.log[1].batch.Reqs[0], submitted)
	check("the follower's log, for a stranger's", &h.core.log[1].batch.Reqs[1], prepared)

	// The leader: a FORWARD, proposed (a batch of one) and logged.
	lh, _ := heldCore(0)
	fwd := &msg.Forward{Req: msg.OrderRequest{Origin: 1, Client: 9, ClientSeq: 1, Op: []byte("PUT f forwarded")}}
	forwarded := wireCopy(&fwd.Req)
	lh.core.OnForward(&env, 1, fwd)
	overwrite(fwd.Req.Op)
	if e := lh.core.log[1]; e == nil || len(e.batch.Reqs) != 1 {
		t.Fatal("the forwarded request was not proposed")
	}
	check("the leader's log", &lh.core.log[1].batch.Reqs[0], forwarded)

	// A view change: a request submitted and one forwarded meanwhile are
	// queued until the next view.
	h.core.startViewChange(&env, 1)
	queuedSub := &msg.OrderRequest{Origin: 1, Client: 10, ClientSeq: 1, Op: []byte("PUT q submitted")}
	queuedFwd := &msg.Forward{Req: msg.OrderRequest{Origin: 2, Client: 11, ClientSeq: 1, Op: []byte("PUT q forwarded")}}
	wantSub, wantFwd := wireCopy(queuedSub), wireCopy(&queuedFwd.Req)
	h.core.Submit(&env, queuedSub)
	overwrite(queuedSub.Op)
	h.core.OnForward(&env, 2, queuedFwd)
	overwrite(queuedFwd.Req.Op)
	if len(h.core.queued) != 2 {
		t.Fatalf("%d requests queued during the view change, want 2", len(h.core.queued))
	}
	check("the view-change queue, for a submitted request", h.core.queued[0], wantSub)
	check("the view-change queue, for a forwarded one", h.core.queued[1], wantFwd)

	// Consecutive carves share nothing.
	q0, q1 := h.core.queued[0], h.core.queued[1]
	if grown := append(q0.Op, 'x'); !bytes.Equal(q1.Op, wantFwd.Op) || &grown[0] == &q0.Op[0] {
		t.Error("appending to one kept operation wrote into the next")
	}
}

// TestSlabCarvesAreCapLimited: consecutive carves of a chunk never share
// capacity, request slots or operation bytes, and a run longer than a quarter
// of its chunk is allocated alone — counted, and leaving the chunk as it was.
func TestSlabCarvesAreCapLimited(t *testing.T) {
	var s slab
	a, b := s.op([]byte("abc")), s.op([]byte("def"))
	if cap(a) != len(a) || cap(b) != len(b) {
		t.Fatalf("carved operations of cap %d and %d beyond their 3 bytes", cap(a), cap(b))
	}
	if grown := append(a, 'x'); string(b) != "def" || &grown[0] == &a[0] {
		t.Errorf("appending to one carve wrote %q into the next", b)
	}
	r0, r1 := s.take(2), s.take(3)
	if cap(r0) != 2 || cap(r1) != 3 {
		t.Fatalf("carved request slices of cap %d and %d, want 2 and 3", cap(r0), cap(r1))
	}
	if grown := append(r0, msg.OrderRequest{Client: 1}); r1[0].Client != 0 || &grown[0] == &r0[0] {
		t.Error("appending to one slot carve wrote into the next")
	}

	free := len(s.ops)
	if at := s.op(make([]byte, slabOps/4)); len(s.ops) != free-slabOps/4 || cap(at) != len(at) {
		t.Errorf("an operation of a quarter chunk was not carved: %d bytes left of %d", len(s.ops), free)
	}
	free, freeReqs := len(s.ops), len(s.reqs)
	big := make([]byte, slabOps/4+1)
	if alone := s.op(big); len(s.ops) != free || cap(alone) != len(alone) || !bytes.Equal(alone, big) || &alone[0] == &big[0] {
		t.Errorf("an operation above a quarter chunk was carved (%d bytes left of %d), or not copied", len(s.ops), free)
	}
	if alone := s.take(slabReqs/4 + 1); len(s.reqs) != freeReqs || cap(alone) != len(alone) {
		t.Errorf("a batch above a quarter chunk was carved (%d slots left of %d)", len(s.reqs), freeReqs)
	}
	if !testutil.RaceEnabled() {
		if n := testing.AllocsPerRun(100, func() { s.op(big) }); n != 1 {
			t.Errorf("an operation above a quarter chunk took %v allocations, want 1", n)
		}
	}
}

// TestKeepBatchSharesWhatIsHeld: the copy a follower's log keeps of a
// PREPARE's batch owns its operations — carved from the slab, each
// cap-limited to itself — except those of requests this replica submitted
// and holds (AdoptHeld made them its own), which it shares; and keeping a
// batch allocates less than once per batch, a chunk now and then.
func TestKeepBatchSharesWhatIsHeld(t *testing.T) {
	var env fakeEnv
	h, _ := heldCore(1)
	own := &msg.OrderRequest{Origin: 1, Client: 8, ClientSeq: 1, Op: []byte("PUT own 2")}
	h.core.Submit(&env, own)
	held := kept(t, h.core, own)
	b := &msg.Batch{Reqs: []msg.OrderRequest{
		{Origin: 1, Client: 7, ClientSeq: 1, Op: []byte("PUT a 1")},
		wireCopy(own),
		{Origin: msg.NoNode},
		{Origin: 1, Client: 9, ClientSeq: 4, Op: []byte("PUT c 3")},
	}}
	h.core.AdoptHeld(b)
	want := b.Digest()
	c := h.core.keepBatch(b)
	if c.Digest() != want || len(c.Reqs) != len(b.Reqs) || cap(c.Reqs) != len(c.Reqs) {
		t.Fatalf("the copy differs from the batch:\n got  %v\n want %v", c.Reqs, b.Reqs)
	}
	for i := range c.Reqs {
		got, orig := c.Reqs[i].Op, b.Reqs[i].Op
		switch {
		case !bytes.Equal(got, orig) || c.Reqs[i].Client != b.Reqs[i].Client:
			t.Errorf("request %d is %v in the copy, %v in the batch", i, &c.Reqs[i], &b.Reqs[i])
		case len(orig) == 0:
		case c.Reqs[i].Client == own.Client:
			if &got[0] != &held.Op[0] {
				t.Errorf("request %d is the replica's own and was copied", i)
			}
		case &got[0] == &orig[0]:
			t.Errorf("request %d is shared with the batch it was kept from", i)
		case cap(got) != len(got):
			t.Errorf("request %d: cap %d beyond its %d bytes reaches into its neighbour", i, cap(got), len(got))
		}
	}
	if !testutil.RaceEnabled() {
		if n := testing.AllocsPerRun(100, func() { h.core.keepBatch(b) }); n != 0 {
			t.Errorf("keeping a batch takes %v allocations, want 0 (rounded down): its slots and operations are carved from chunks", n)
		}
	}
	for i := range b.Reqs { // the source may be overwritten
		if b.Reqs[i].Client != own.Client {
			overwrite(b.Reqs[i].Op)
		}
	}
	if string(c.Reqs[0].Op) != "PUT a 1" || string(c.Reqs[3].Op) != "PUT c 3" {
		t.Errorf("the copy changed with its source: %q, %q", c.Reqs[0].Op, c.Reqs[3].Op)
	}
}
