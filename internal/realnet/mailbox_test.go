package realnet

import (
	"runtime"
	"testing"
	"time"

	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/testutil"
)

// gatedNode reports every envelope it is handed and, when gated, holds the
// delivery open until the test lets it return.
type gatedNode struct {
	seen chan uint64 // the delivered envelope's connection ID
	next chan struct{}
}

func (g *gatedNode) OnStart(node.Env) {}
func (g *gatedNode) OnEnvelope(_ node.Env, e *msg.Envelope) {
	cd, _ := e.OpenChannelData()
	g.seen <- cd.ConnID
	if g.next != nil {
		<-g.next
	}
}
func (g *gatedNode) OnTimer(node.Env, node.TimerKey) {}

// TestMailboxReusesItsArray: a mailbox that is drained between deliveries
// neither grows nor reallocates — ten thousand deliver/drain cycles allocate
// nothing at all.
func TestMailboxReusesItsArray(t *testing.T) {
	if testutil.RaceEnabled() {
		t.Skip("the race detector allocates on its own")
	}
	r := NewRouter()
	defer r.Close()
	recv := &gatedNode{seen: make(chan uint64)}
	r.Attach(1, recv)
	e := msg.SealChannelData(2, 1, 7, nil)
	cycle := func() {
		r.Send(e)
		<-recv.seen
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	// The count is the whole process's, so the runtime's own rare allocation
	// can land in a round: the best of three has to be clean.
	least := ^uint64(0)
	for round := 0; round < 3 && least != 0; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 10000; i++ {
			cycle()
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	if least != 0 {
		t.Errorf("%d allocations over 10000 deliver/drain cycles, want none", least)
	}
}

// sendWithFinalizer sends an envelope whose body nobody else refers to and
// reports when the collector has reclaimed that body: the mailbox holds a
// copy of header and bytes, so nothing of the sender's. It is its own
// function so that no reference lingers on the test's stack.
//
//go:noinline
func sendWithFinalizer(r *Router, collected chan struct{}) {
	e := msg.SealChannelData(2, 1, 0, []byte("the first of a burst"))
	runtime.SetFinalizer(&e.Body[0], func(*byte) { close(collected) })
	r.Send(e)
}

// TestMailboxLetsGoOfDeliveredEnvelopes: a sent envelope's body is the
// garbage collector's by the time its delivery has returned, however much
// traffic is still queued behind it in the same array, and the mailbox slot
// it was delivered from holds nothing of the copy the mailbox made.
func TestMailboxLetsGoOfDeliveredEnvelopes(t *testing.T) {
	r := NewRouter()
	defer r.Close()
	recv := &gatedNode{seen: make(chan uint64), next: make(chan struct{})}
	r.Attach(1, recv)

	const burst = 64
	collected := make(chan struct{})
	sendWithFinalizer(r, collected)
	for i := uint64(1); i < burst; i++ {
		r.Send(msg.SealChannelData(2, 1, i, nil))
	}
	if id := <-recv.seen; id != 0 {
		t.Fatalf("first delivery is envelope %d", id)
	}
	recv.next <- struct{}{} // the first delivery returns
	if id := <-recv.seen; id != 1 {
		t.Fatalf("second delivery is envelope %d", id)
	}
	// The second envelope is being delivered and sixty-two wait behind it:
	// the slots of the two taken out hold neither a pooled writer nor the
	// bytes in it.
	r.mu.Lock()
	n := r.nodes[1]
	r.mu.Unlock()
	n.mu.Lock()
	for i, item := range n.queue[:n.head] {
		if item.buf != nil || item.env.Body != nil {
			t.Errorf("mailbox slot %d still holds the envelope delivered from it", i)
		}
	}
	n.mu.Unlock()
	reclaimed := false
	for i := 0; i < 200 && !reclaimed; i++ {
		runtime.GC()
		select {
		case <-collected:
			reclaimed = true
		case <-time.After(5 * time.Millisecond):
		}
	}
	if !reclaimed {
		t.Error("a delivered envelope is still reachable while later traffic waits in the mailbox")
	}
	for id := uint64(2); id < burst; id++ {
		recv.next <- struct{}{}
		if got := <-recv.seen; got != id {
			t.Fatalf("delivery %d is envelope %d", id, got)
		}
	}
	recv.next <- struct{}{}
}

// TestMailboxNeverQuiteEmpty: a mailbox that always has something pending
// moves it to the front of its array rather than growing without bound.
func TestMailboxNeverQuiteEmpty(t *testing.T) {
	r := NewRouter()
	defer r.Close()
	recv := &gatedNode{seen: make(chan uint64), next: make(chan struct{})}
	r.Attach(1, recv)
	r.mu.Lock()
	n := r.nodes[1]
	r.mu.Unlock()

	const rounds = 5000
	r.Send(msg.SealChannelData(2, 1, 0, nil))
	for id := uint64(1); id <= rounds; id++ {
		// One more arrives while one is being delivered: the mailbox is never
		// empty when the node comes back for the next.
		if got := <-recv.seen; got != id-1 {
			t.Fatalf("delivery %d is envelope %d", id-1, got)
		}
		r.Send(msg.SealChannelData(2, 1, id, nil))
		recv.next <- struct{}{}
	}
	<-recv.seen
	recv.next <- struct{}{}
	n.mu.Lock()
	size := cap(n.queue)
	n.mu.Unlock()
	if size > 16 {
		t.Errorf("the mailbox array grew to %d slots for at most two pending envelopes", size)
	}
}

// TestEnqueueToStoppedNodeUnlocks: a delivery to a stopped node is dropped
// and leaves the mailbox lock free, so the next sender is not stuck on it.
func TestEnqueueToStoppedNodeUnlocks(t *testing.T) {
	n := &realNode{closed: true}
	n.enqueue(mailboxItem{})
	if !n.mu.TryLock() {
		t.Fatal("enqueue to a stopped node returned with its mailbox lock held")
	}
	n.mu.Unlock()
	if len(n.queue) != 0 {
		t.Errorf("a stopped node queued %d items", len(n.queue))
	}
}
