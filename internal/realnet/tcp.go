package realnet

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/wire"
)

// Bridge connects a Router to peer processes over TCP. Envelopes addressed
// to non-local nodes are framed and sent over a persistent connection to the
// peer process hosting the destination node; incoming frames are injected
// into the local router.
//
// The address book maps node IDs to "host:port" listen addresses. Multiple
// node IDs may map to the same address (one process hosting several nodes).
//
// Egress: senders encode each envelope into a pooled frame and push it onto
// a bounded per-peer ring; a drainer goroutine flushes the whole ring in one
// vectored write, on a size trigger or after yielding one scheduler quantum
// to stragglers. Ingress reads are chunked to match: one syscall consumes a
// whole coalesced burst, into a chunk the connection reuses. Encoding and
// decoding allocate nothing in steady state.
//
// Fault injection happens in Router.Send, above this layer: the fault judge
// sees every envelope individually before it is encoded into a ring, so
// drop/corrupt/jitter plans keep per-message granularity no matter how many
// frames a flush coalesces.
type Bridge struct {
	router *Router
	addrs  map[msg.NodeID]string // fixed at construction
	server
	rings map[string]*sendRing // per peer address, guarded by mu
}

// Dial backoff bounds: a failed dial is retried with jittered exponential
// backoff while the frames that triggered it wait in the ring, instead of
// being dropped silently. The ring bounds memory; overflow drops frames,
// and those are counted.
const (
	bridgeBackoffMin = 25 * time.Millisecond
	bridgeBackoffMax = 2 * time.Second
)

// dialer returns the connect function of the ring to addr: it dials with
// jittered exponential backoff and gives up (nil) when the ring closes first.
func dialer(addr string, r *sendRing) func() net.Conn {
	return func() net.Conn {
		backoff := time.Duration(0)
		for {
			c, err := net.DialTimeout("tcp", addr, 3*time.Second)
			if err == nil {
				return c
			}
			backoff = min(max(2*backoff, bridgeBackoffMin), bridgeBackoffMax)
			t := time.NewTimer(backoff/2 + time.Duration(rand.Int63n(int64(backoff)/2+1)))
			select {
			case <-t.C:
			case <-r.done:
				t.Stop()
				return nil // bridge closed while the peer was unreachable
			}
		}
	}
}

// NewBridge creates a bridge for router with the given address book and
// installs itself as the router's remote sender.
func NewBridge(router *Router, addrs map[msg.NodeID]string) *Bridge {
	b := &Bridge{
		router: router,
		addrs:  make(map[msg.NodeID]string, len(addrs)),
		server: newServer(),
		rings:  make(map[string]*sendRing),
	}
	for id, a := range addrs {
		b.addrs[id] = a
	}
	router.SetRemoteSender(b.send)
	return b
}

// Listen starts accepting peer connections on addr. Incoming envelopes are
// injected into the local router.
func (b *Bridge) Listen(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("realnet: bridge listen: %w", err)
	}
	if !b.listen(l) {
		return fmt.Errorf("realnet: bridge listen: %w", net.ErrClosed)
	}
	go b.accept(l, b.readLoop)
	return nil
}

// readLoop injects frames from an accepted peer connection into the router.
// Ingress is batched to match the peer's vectored egress: a ChunkReader
// consumes a coalesced burst at one read syscall, into the chunk it reuses,
// instead of two syscalls and an allocation per frame. Every frame is decoded
// into the same envelope, which the router copies, header and bytes, before
// the next frame is read over it.
func (b *Bridge) readLoop(conn net.Conn) {
	cr := wire.NewChunkReader(conn)
	var env msg.Envelope
	for {
		frame, err := cr.ReadFrame()
		if err != nil {
			return
		}
		b.inject(&env, frame)
	}
}

// inject decodes frame into env and routes it. A frame that does not decode
// is garbage from an untrusted peer and is discarded.
func (b *Bridge) inject(env *msg.Envelope, frame []byte) {
	if env.Decode(frame) == nil {
		b.router.Send(env)
	}
}

// send transmits an envelope to the peer process hosting e.To. Transmission
// failures drop the envelope (the network is unreliable by assumption).
func (b *Bridge) send(e *msg.Envelope) {
	addr, ok := b.addrs[e.To]
	if !ok {
		return
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	r, ok := b.rings[addr]
	if !ok {
		r = newSendRing(new(ringCounters))
		b.rings[addr] = r
		b.spawn(func() { r.drain(dialer(addr, r)) })
	}
	b.mu.Unlock()

	// Zero-allocation path: the envelope (frame header included) encodes
	// into a pooled writer that travels through the ring to the writev
	// iovec and back to the pool.
	w := wire.GetWriter()
	if err := msg.AppendEnvelopeFrame(w, e); err != nil {
		wire.PutWriter(w)
		r.stats.drops.Add(1)
		return
	}
	r.push(w)
}

// Drops returns, per peer address, how many outbound frames were dropped:
// on ring overflow (the peer was unreachable long enough to fill it), or
// with a failed write.
func (b *Bridge) Drops() map[string]uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]uint64, len(b.rings))
	for addr, r := range b.rings {
		out[addr] = r.stats.drops.Load()
	}
	return out
}

// FlushStats returns, per peer address, the send ring's flush counters.
func (b *Bridge) FlushStats() map[string]RingStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]RingStats, len(b.rings))
	for addr, r := range b.rings {
		out[addr] = r.stats.load()
	}
	return out
}

// Close shuts the bridge down and waits for its goroutines. Closing the
// rings stops their drainers, mid-backoff too.
func (b *Bridge) Close() {
	b.shutdown(func() {
		for _, r := range b.rings { // final: send adds rings only while open
			r.close()
		}
	})
}

// Gateway bridges raw legacy-client TCP connections into the envelope
// world: each accepted connection is assigned a synthetic client node ID;
// frames read from the socket become ChannelData envelopes to the replica,
// and ChannelData envelopes addressed to the synthetic ID are written back
// to the socket. The replica's untrusted connection handling (Section III-C:
// sockets and worker threads live outside the Troxy) is exactly this.
//
// Replies are encoded into pooled frames and drained to the client socket by
// a per-connection goroutine in vectored writes, so the router's handler
// goroutine never blocks on client I/O.
type Gateway struct {
	router  *Router
	replica msg.NodeID
	server
	nextID msg.NodeID   // guarded by mu
	stats  ringCounters // shared by every client connection's egress ring
}

// FlushStats returns the aggregated egress-ring flush counters.
func (g *Gateway) FlushStats() RingStats { return g.stats.load() }

// NewGateway creates a gateway that forwards client connections to replica,
// assigning synthetic node IDs starting at firstClientID.
func NewGateway(router *Router, replica, firstClientID msg.NodeID) *Gateway {
	return &Gateway{
		router:  router,
		replica: replica,
		server:  newServer(),
		nextID:  firstClientID,
	}
}

// Serve accepts connections on l until the gateway is closed. Serving a
// closed gateway closes l and returns at once.
func (g *Gateway) Serve(l net.Listener) {
	if g.listen(l) {
		g.accept(l, g.handle)
	}
}

// gatewayHandler is the per-connection node: it relays ChannelData
// envelopes from the replica back to the client socket through the
// connection's egress ring.
type gatewayHandler struct {
	conn net.Conn
	ring *sendRing
}

func (gatewayHandler) OnStart(node.Env) {}

func (h gatewayHandler) OnEnvelope(env node.Env, e *msg.Envelope) {
	cd, err := e.OpenChannelData()
	if err != nil {
		return
	}
	w := wire.GetWriter()
	if err := wire.AppendFramePayload(w, cd.Payload); err != nil {
		wire.PutWriter(w)
		h.ring.stats.drops.Add(1)
		return
	}
	if !h.ring.push(w) {
		env.Logf("realnet: gateway egress ring to %v full (%d dropped total)",
			h.conn.RemoteAddr(), h.ring.stats.drops.Load())
	}
}

func (gatewayHandler) OnTimer(node.Env, node.TimerKey) {}

var _ node.Handler = gatewayHandler{}

// handle serves one client connection: a synthetic node relays replies to
// the connection's egress ring, whose drainer writes them to the socket
// (failed writes are counted and close it), and frames read from the socket
// go to the replica until it breaks.
func (g *Gateway) handle(conn net.Conn) {
	g.mu.Lock()
	id := g.nextID
	g.nextID++
	g.mu.Unlock()
	ring := newSendRing(&g.stats)
	g.spawn(func() { ring.drain(func() net.Conn { return conn }) })
	defer ring.close()
	g.router.Attach(id, gatewayHandler{conn: conn, ring: ring})
	defer g.router.Detach(id)

	// Ingress mirrors egress: batched chunk reads instead of per-frame
	// syscalls and allocations. Each frame's ChannelData body is built in the
	// connection's one buffer and travels in its one envelope: the router
	// copies both before the next frame overwrites them.
	cr := wire.NewChunkReader(conn)
	env := msg.Envelope{From: id, To: g.replica, Kind: msg.KindChannelData}
	var body []byte
	for {
		frame, err := cr.ReadFrame()
		if err != nil {
			return
		}
		body = append(msg.AppendChannelDataHead(body[:0], uint64(id), len(frame)), frame...)
		env.Body = body
		g.router.Send(&env)
	}
}

// Close stops the gateway, tearing down active client connections.
func (g *Gateway) Close() { g.shutdown(nil) }

// server is the connection lifecycle a Bridge and a Gateway share: the
// listeners, the connections accepted on them, and a count of every
// goroutine accepting, serving a connection or draining a ring.
type server struct {
	mu        sync.Mutex
	closed    bool
	listeners []net.Listener
	live      map[net.Conn]struct{}
	wg        sync.WaitGroup
}

func newServer() server { return server{live: make(map[net.Conn]struct{})} }

// Addr returns the first listen address (nil before Listen or Serve).
func (s *server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.listeners) == 0 {
		return nil
	}
	return s.listeners[0].Addr()
}

// listen adds l to the listeners and counts the accept loop that must
// follow. It is synchronous so that Addr and Close see l as soon as it
// returns. A closed server closes l instead and reports false.
func (s *server) listen(l net.Listener) bool {
	s.mu.Lock()
	ok := !s.closed
	if ok {
		s.listeners = append(s.listeners, l)
		s.wg.Add(1)
	}
	s.mu.Unlock()
	if !ok {
		l.Close()
	}
	return ok
}

// accept is the accept loop listen counted: until l closes, it tracks each
// connection and serves it with handle on a goroutine of its own, which
// closes it afterwards.
func (s *server) accept(l net.Listener, handle func(net.Conn)) {
	defer s.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.live[conn] = struct{}{}
		s.spawn(func() {
			handle(conn)
			conn.Close()
			s.mu.Lock()
			delete(s.live, conn)
			s.mu.Unlock()
		})
		s.mu.Unlock()
	}
}

// spawn runs f on a goroutine Close waits for. Callers hold mu with the
// server open, or run on a goroutine already counted, so the count never
// rises from zero while Close waits.
func (s *server) spawn(f func()) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		f()
	}()
}

// shutdown is the one teardown: once, it marks the server closed, closes
// the listeners and every live connection, runs stop, and waits for every
// counted goroutine. Connections are snapshot under the lock and closed
// outside it: Close on a wedged conn may block, and accept and teardown
// contend on mu.
func (s *server) shutdown(stop func()) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	listeners := s.listeners
	conns := make([]net.Conn, 0, len(s.live))
	for conn := range s.live {
		conns = append(conns, conn)
	}
	s.mu.Unlock()
	for _, l := range listeners {
		l.Close()
	}
	for _, conn := range conns {
		conn.Close()
	}
	if stop != nil {
		stop()
	}
	s.wg.Wait()
}
