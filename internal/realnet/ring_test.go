package realnet

import (
	"testing"
	"time"

	"github.com/troxy-bft/troxy/internal/faultplane"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/testutil"
	"github.com/troxy-bft/troxy/internal/wire"
)

func TestSendRingOverflowAndClose(t *testing.T) {
	r := newSendRing(new(ringCounters))
	// No drainer attached: fill to capacity, then overflow.
	for i := 0; i < ringCapacity; i++ {
		w := wire.GetWriter()
		w.U32(uint32(i))
		if !r.push(w) {
			t.Fatalf("push %d rejected below capacity", i)
		}
	}
	w := wire.GetWriter()
	if r.push(w) {
		t.Fatal("push beyond capacity accepted")
	}
	if got := r.stats.drops.Load(); got != 1 {
		t.Fatalf("drops = %d, want 1", got)
	}
	if got := r.pendingLen(); got != ringCapacity {
		t.Fatalf("pendingLen = %d, want %d", got, ringCapacity)
	}
	r.close()
	if r.pendingLen() != 0 {
		t.Fatal("close did not release pending frames")
	}
	// Pushes after close are rejected without counting as drops.
	if r.push(wire.GetWriter()) {
		t.Fatal("push after close accepted")
	}
	if got := r.stats.drops.Load(); got != 1 {
		t.Fatalf("drops after close = %d, want 1", got)
	}
}

func TestSendRingTakeDoubleBuffers(t *testing.T) {
	r := newSendRing(new(ringCounters))
	for i := 0; i < 3; i++ {
		r.push(wire.GetWriter())
	}
	batch := r.take()
	if len(batch) != 3 {
		t.Fatalf("take = %d frames, want 3", len(batch))
	}
	releaseBatch(batch)
	if got := r.take(); len(got) != 0 {
		t.Fatalf("second take = %d frames, want 0", len(got))
	}
	r.close()
}

// bridgePair wires router A (hosting node 1) to router B (hosting node 2)
// over a TCP bridge.
func bridgePair(t *testing.T) (ra, rb *Router, ba *Bridge) {
	t.Helper()
	ra, rb = NewRouter(), NewRouter()
	t.Cleanup(ra.Close)
	t.Cleanup(rb.Close)

	bb := NewBridge(rb, nil)
	if err := bb.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bb.Close)

	ba = NewBridge(ra, map[msg.NodeID]string{2: bb.Addr().String()})
	t.Cleanup(ba.Close)
	return ra, rb, ba
}

// settled polls read until it reports want frames. A drainer counts a flush
// once its write has returned, and the receiver can see the frames before
// that: reading the counters the moment the last frame arrived is a race the
// drainer usually, but not always, wins.
func settled(read func() RingStats, want uint64) RingStats {
	deadline := time.Now().Add(2 * time.Second)
	for {
		if s := read(); s.Frames >= want || time.Now().After(deadline) {
			return s
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRingTransportFlushStats(t *testing.T) {
	testutil.CheckGoroutines(t)
	ra, rb, ba := bridgePair(t)

	const sent = 32
	recv := newCollector(sent)
	rb.Attach(2, recv)
	ra.Attach(1, &senderNode{to: 2, n: sent})
	waitCh(t, recv.done, "ring-bridged envelopes")

	total := settled(func() (total RingStats) {
		for _, s := range ba.FlushStats() {
			total.Flushes += s.Flushes
			total.Frames += s.Frames
		}
		return total
	}, sent)
	if total.Frames != sent {
		t.Errorf("flushed frames = %d, want %d", total.Frames, sent)
	}
	if total.Flushes == 0 || total.Flushes > sent {
		t.Errorf("flushes = %d, want 1..%d", total.Flushes, sent)
	}
	for addr, n := range ba.Drops() {
		if n != 0 {
			t.Errorf("ring dropped %d frames to %s; want 0", n, addr)
		}
	}
}

// TestBridgeUnreachablePeerCountsEveryDrop pins the accounting of the one
// drop counter: with no listener at the peer address the drainer sits in
// dial backoff holding at most one taken batch, the ring holds at most
// ringCapacity more, and every further frame is counted — none vanishes.
func TestBridgeUnreachablePeerCountsEveryDrop(t *testing.T) {
	testutil.CheckGoroutines(t)
	l, err := listen(t)
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close() // nothing listens here any more: dials are refused at once

	ra := NewRouter()
	defer ra.Close()
	ba := NewBridge(ra, map[msg.NodeID]string{2: addr})

	const sent = 2*ringCapacity + 100
	for i := 0; i < sent; i++ {
		ra.Send(msg.Seal(1, 2, &msg.ChannelData{ConnID: uint64(i)}))
	}

	drops := ba.Drops()[addr]
	ba.mu.Lock()
	pending := ba.rings[addr].pendingLen()
	ba.mu.Unlock()
	inFlight := sent - int(drops) - pending
	if inFlight < 0 || inFlight > ringCapacity {
		t.Errorf("sent %d = %d dropped + %d in ring + %d unaccounted; want 0..%d held by the drainer",
			sent, drops, pending, inFlight, ringCapacity)
	}
	if s := ba.FlushStats()[addr]; s.Frames != 0 {
		t.Errorf("flushed %d frames to a peer that never accepted", s.Frames)
	}

	start := time.Now()
	ba.Close() // must interrupt the dial backoff, not wait it out
	if d := time.Since(start); d > time.Second {
		t.Errorf("Close took %v while the dial was backing off", d)
	}
}

func TestRingLoneFrameFlushesOnDeadline(t *testing.T) {
	// A lone frame must go out promptly (one straggler yield at most), not
	// wait for more traffic: this is the flush-on-idle latency pathology the
	// ring fixes.
	testutil.CheckGoroutines(t)
	ra, rb, _ := bridgePair(t)

	recv := newCollector(1)
	rb.Attach(2, recv)
	start := time.Now()
	ra.Attach(1, &senderNode{to: 2, n: 1})
	waitCh(t, recv.done, "lone frame")
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("lone frame took %v to flush", d)
	}
}

// TestRingFaultplanePerMessage pins the layering contract the coalescing
// optimization must not break: the fault judge runs in Router.Send, above
// the ring, so a drop plan applies to individual messages even though the
// survivors leave in coalesced vectored writes.
func TestRingFaultplanePerMessage(t *testing.T) {
	testutil.CheckGoroutines(t)
	ra, rb, _ := bridgePair(t)
	ra.SetFault(faultplane.NewInjector(7, faultplane.Plan{
		Links: []faultplane.LinkFault{{
			From: faultplane.Wildcard, To: 2,
			Start: 0, End: 200 * time.Millisecond,
			DropP: 1,
		}},
	}))

	recv := newCollector(3)
	rb.Attach(2, recv)
	ra.Attach(1, &senderNode{to: 2, n: 3}) // all inside the drop window

	time.Sleep(100 * time.Millisecond)
	if got := recv.envCount(); got != 0 {
		t.Fatalf("delivered %d envelopes through a total drop fault on the ring transport", got)
	}

	time.Sleep(150 * time.Millisecond) // past the fault window
	ra.Attach(3, &senderNode{to: 2, n: 3})
	waitCh(t, recv.done, "post-window delivery over the ring")
	if got := recv.envCount(); got != 3 {
		t.Fatalf("envelopes after the window = %d, want 3 (per-message drops)", got)
	}
}

func TestGatewayRingCounters(t *testing.T) {
	testutil.CheckGoroutines(t)
	r := NewRouter()
	defer r.Close()

	// The "replica" echoes channel payloads straight back.
	echo := newCollector(0)
	echo.onEnv = func(env node.Env, e *msg.Envelope) {
		m, err := e.Open()
		if err != nil {
			return
		}
		cd := m.(*msg.ChannelData)
		env.Send(msg.Seal(env.Self(), e.From, &msg.ChannelData{ConnID: cd.ConnID, Payload: cd.Payload}))
	}
	r.Attach(0, echo)

	g := NewGateway(r, 0, 1000)
	l, err := listen(t)
	if err != nil {
		t.Fatal(err)
	}
	go g.Serve(l)
	defer g.Close()

	conn, err := dial(t, l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const echoes = 8
	for i := 0; i < echoes; i++ {
		if err := wire.WriteFrame(conn, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := wire.ReadFrame(conn); err != nil {
			t.Fatal(err)
		}
	}
	stats := settled(g.FlushStats, echoes)
	if stats.Frames != echoes {
		t.Errorf("gateway egress frames = %d, want %d", stats.Frames, echoes)
	}
	if stats.Flushes == 0 || stats.Flushes > echoes {
		t.Errorf("gateway egress flushes = %d, want 1..%d", stats.Flushes, echoes)
	}
	if got := g.stats.drops.Load(); got != 0 {
		t.Errorf("dropped client-bound frames = %d, want 0", got)
	}
}

// returnsPromptly fails t unless fn returns within a second.
func returnsPromptly(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatalf("%s did not return", what)
	}
}

// TestCloseOrdering pins the shared lifecycle's close ordering: a Bridge or
// Gateway closed before it is given a listener closes that listener instead
// of accepting on it forever, one closed right after Listen stops the accept
// loop Listen started, and Close stops every listener a Gateway serves.
func TestCloseOrdering(t *testing.T) {
	t.Run("Close then Serve", func(t *testing.T) {
		testutil.CheckGoroutines(t)
		r := NewRouter()
		defer r.Close()
		g := NewGateway(r, 0, 1000)
		g.Close()
		l, err := listen(t)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		returnsPromptly(t, "Serve after Close", func() { g.Serve(l) })
		if _, err := l.Accept(); err == nil {
			t.Error("Serve after Close left its listener open")
		}
	})
	t.Run("Close then Listen", func(t *testing.T) {
		testutil.CheckGoroutines(t)
		r := NewRouter()
		defer r.Close()
		b := NewBridge(r, nil)
		b.Close()
		returnsPromptly(t, "Listen after Close", func() {
			if err := b.Listen("127.0.0.1:0"); err == nil {
				t.Error("Listen after Close succeeded")
			}
		})
		if a := b.Addr(); a != nil {
			t.Errorf("closed bridge listens on %v", a)
		}
	})
	t.Run("Listen then Close", func(t *testing.T) {
		testutil.CheckGoroutines(t)
		r := NewRouter()
		defer r.Close()
		b := NewBridge(r, nil)
		if err := b.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		returnsPromptly(t, "Close right after Listen", b.Close)
	})
	t.Run("Serve twice then Close", func(t *testing.T) {
		testutil.CheckGoroutines(t)
		r := NewRouter()
		defer r.Close()
		g := NewGateway(r, 0, 1000)
		served := make(chan struct{}, 2)
		for i := 0; i < 2; i++ {
			l, err := listen(t)
			if err != nil {
				t.Fatal(err)
			}
			go func() {
				g.Serve(l)
				served <- struct{}{}
			}()
		}
		for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
			g.mu.Lock()
			n := len(g.listeners)
			g.mu.Unlock()
			if n == 2 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("serving %d listeners, want 2", n)
			}
		}
		returnsPromptly(t, "Close of a gateway serving two listeners", g.Close)
		<-served
		<-served
	})
}
