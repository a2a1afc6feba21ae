package realnet

import (
	"sync"
	"testing"
	"time"

	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/testutil"
	"github.com/troxy-bft/troxy/internal/wire"
)

// collector records envelopes (by value: a delivered envelope is valid only
// for its invocation) and timer fires; it is the realnet analogue of the
// simnet test nodes.
type collector struct {
	mu     sync.Mutex
	envs   []msg.Envelope
	timers []node.TimerKey
	onEnv  func(env node.Env, e *msg.Envelope)
	onTmr  func(env node.Env, key node.TimerKey)
	onGo   func(env node.Env)
	done   chan struct{}
	want   int
}

func newCollector(want int) *collector {
	return &collector{done: make(chan struct{}, 16), want: want}
}

func (c *collector) OnStart(env node.Env) {
	if c.onGo != nil {
		c.onGo(env)
	}
}

func (c *collector) OnEnvelope(env node.Env, e *msg.Envelope) {
	c.mu.Lock()
	c.envs = append(c.envs, *e)
	n := len(c.envs)
	c.mu.Unlock()
	if c.onEnv != nil {
		c.onEnv(env, e)
	}
	if n == c.want {
		c.done <- struct{}{}
	}
}

func (c *collector) OnTimer(env node.Env, key node.TimerKey) {
	c.mu.Lock()
	c.timers = append(c.timers, key)
	c.mu.Unlock()
	if c.onTmr != nil {
		c.onTmr(env, key)
	}
	c.done <- struct{}{}
}

func (c *collector) envCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.envs)
}

func waitCh(t *testing.T, ch chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

func TestLocalDelivery(t *testing.T) {
	testutil.CheckGoroutines(t)
	r := NewRouter()
	defer r.Close()
	recv := newCollector(3)
	r.Attach(2, recv)
	r.Attach(1, &senderNode{to: 2, n: 3})
	waitCh(t, recv.done, "3 envelopes")
	if recv.envCount() != 3 {
		t.Errorf("envelopes = %d", recv.envCount())
	}
}

type senderNode struct {
	to msg.NodeID
	n  int
}

func (s *senderNode) OnStart(env node.Env) {
	for i := 0; i < s.n; i++ {
		env.Send(msg.Seal(env.Self(), s.to, &msg.ChannelData{ConnID: uint64(i)}))
	}
}
func (s *senderNode) OnEnvelope(node.Env, *msg.Envelope) {}
func (s *senderNode) OnTimer(node.Env, node.TimerKey)    {}

func TestTimers(t *testing.T) {
	testutil.CheckGoroutines(t)
	r := NewRouter()
	defer r.Close()
	c := newCollector(0)
	c.onGo = func(env node.Env) {
		env.SetTimer(30*time.Millisecond, node.TimerKey{Kind: "replaced"})
		env.SetTimer(10*time.Millisecond, node.TimerKey{Kind: "replaced"})
		env.SetTimer(5*time.Millisecond, node.TimerKey{Kind: "canceled"})
		env.CancelTimer(node.TimerKey{Kind: "canceled"})
	}
	r.Attach(1, c)
	waitCh(t, c.done, "timer")
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.timers) != 1 || c.timers[0].Kind != "replaced" {
		t.Errorf("timers = %v", c.timers)
	}
}

func TestCrashAndRestore(t *testing.T) {
	testutil.CheckGoroutines(t)
	r := NewRouter()
	defer r.Close()
	recv := newCollector(1)
	r.Attach(2, recv)
	r.Crash(2)
	r.Attach(1, &senderNode{to: 2, n: 1})
	time.Sleep(50 * time.Millisecond)
	if recv.envCount() != 0 {
		t.Fatal("crashed node received a message")
	}
	r.Restore(2)
	r.Attach(3, &senderNode{to: 2, n: 1})
	waitCh(t, recv.done, "post-restore delivery")
}

// TestDetachEndsTheCrashAndTheIncarnation crashes a node with a timer
// pending, detaches it and attaches a new handler under its ID: the new one
// starts, receives what is sent to the ID (the crash mark went with the
// node), and the first timer it sees is its own, set to fire after the old
// one's deadline.
func TestDetachEndsTheCrashAndTheIncarnation(t *testing.T) {
	testutil.CheckGoroutines(t)
	r := NewRouter()
	defer r.Close()
	h1 := newCollector(1)
	armed := make(chan struct{})
	h1.onGo = func(env node.Env) {
		env.SetTimer(30*time.Millisecond, node.TimerKey{Kind: "old"})
		close(armed)
	}
	r.Attach(2, h1)
	waitCh(t, armed, "the first handler's timer")
	r.Crash(2)
	r.Detach(2)

	h2 := newCollector(0) // done signals timers only
	started, delivered := make(chan struct{}), make(chan struct{})
	h2.onGo = func(env node.Env) {
		env.SetTimer(80*time.Millisecond, node.TimerKey{Kind: "own"})
		close(started)
	}
	h2.onEnv = func(node.Env, *msg.Envelope) { close(delivered) }
	r.Attach(2, h2)
	waitCh(t, started, "the new handler's OnStart")
	r.Attach(1, &senderNode{to: 2, n: 1})
	waitCh(t, delivered, "a delivery to the new handler")
	waitCh(t, h2.done, "the new handler's first timer")

	h2.mu.Lock()
	defer h2.mu.Unlock()
	if len(h2.timers) != 1 || h2.timers[0].Kind != "own" {
		t.Errorf("the new handler's timers are %v, want only its own", h2.timers)
	}
	h1.mu.Lock()
	defer h1.mu.Unlock()
	if len(h1.timers) != 0 {
		t.Errorf("the detached handler saw timers %v", h1.timers)
	}
}

func TestCloseIsIdempotentAndStopsNodes(t *testing.T) {
	testutil.CheckGoroutines(t)
	r := NewRouter()
	recv := newCollector(1)
	r.Attach(1, recv)
	r.Close()
	r.Close()
	// Sends after close are dropped, not panics.
	r.Send(msg.Seal(5, 1, &msg.ChannelData{}))
}

func TestBridgeBetweenRouters(t *testing.T) {
	testutil.CheckGoroutines(t)
	// Two processes: router A hosts node 1, router B hosts node 2.
	ra, rb := NewRouter(), NewRouter()
	defer ra.Close()
	defer rb.Close()

	bb := NewBridge(rb, nil)
	if err := bb.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer bb.Close()

	ba := NewBridge(ra, map[msg.NodeID]string{2: bb.Addr().String()})
	defer ba.Close()

	recv := newCollector(5)
	rb.Attach(2, recv)
	ra.Attach(1, &senderNode{to: 2, n: 5})
	waitCh(t, recv.done, "bridged envelopes")

	recv.mu.Lock()
	defer recv.mu.Unlock()
	for i, e := range recv.envs {
		if e.From != 1 || e.To != 2 || e.Kind != msg.KindChannelData {
			t.Errorf("envelope %d = %+v", i, e)
		}
	}
}

func TestBridgeDiscardsGarbage(t *testing.T) {
	testutil.CheckGoroutines(t)
	r := NewRouter()
	defer r.Close()
	b := NewBridge(r, nil)
	if err := b.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	conn, err := dial(t, b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A garbage frame must not crash the bridge.
	if err := wire.WriteFrame(conn, []byte("not an envelope")); err != nil {
		t.Fatal(err)
	}
	// A valid envelope after garbage still goes through.
	recv := newCollector(1)
	r.Attach(7, recv)
	env := msg.Seal(9, 7, &msg.ChannelData{Payload: []byte("ok")})
	if err := wire.WriteFrame(conn, msg.EncodeEnvelope(env)); err != nil {
		t.Fatal(err)
	}
	waitCh(t, recv.done, "envelope after garbage")
}

func TestGatewayRoundTrip(t *testing.T) {
	testutil.CheckGoroutines(t)
	r := NewRouter()
	defer r.Close()

	// The "replica" echoes channel payloads back, reversed.
	echo := newCollector(0)
	echo.onEnv = func(env node.Env, e *msg.Envelope) {
		m, err := e.Open()
		if err != nil {
			return
		}
		cd := m.(*msg.ChannelData)
		rev := make([]byte, len(cd.Payload))
		for i, b := range cd.Payload {
			rev[len(rev)-1-i] = b
		}
		env.Send(msg.Seal(env.Self(), e.From, &msg.ChannelData{ConnID: cd.ConnID, Payload: rev}))
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

	for _, sent := range []string{"abc", "hello-gateway"} {
		if err := wire.WriteFrame(conn, []byte(sent)); err != nil {
			t.Fatal(err)
		}
		got, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		want := reverse(sent)
		if string(got) != want {
			t.Errorf("echo = %q, want %q", got, want)
		}
	}
}

func reverse(s string) string {
	b := []byte(s)
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	return string(b)
}
