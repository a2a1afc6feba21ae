package realnet

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
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
// to stragglers. Ingress reads are chunked to match: one syscall and one
// allocation consume a whole coalesced burst. Encoding allocates nothing in
// steady state.
//
// Fault injection happens in Router.Send, above this layer: the fault judge
// sees every envelope individually before it is encoded into a ring, so
// drop/corrupt/jitter plans keep per-message granularity no matter how many
// frames a flush coalesces.
type Bridge struct {
	router *Router

	mu       sync.Mutex
	addrs    map[msg.NodeID]string
	conns    map[string]*bridgeConn
	inbound  map[net.Conn]struct{}
	listener net.Listener
	closed   bool

	wg sync.WaitGroup
}

// Dial backoff bounds: a failed dial is retried with jittered exponential
// backoff while the frames that triggered it wait in the ring, instead of
// being dropped silently. The ring bounds memory; only overflow drops
// frames, and those are counted.
const (
	bridgeBackoffMin = 25 * time.Millisecond
	bridgeBackoffMax = 2 * time.Second
)

// bridgeConn is one outbound peer connection: a send ring and the drainer
// goroutine that owns the socket.
type bridgeConn struct {
	ring *sendRing
	done chan struct{} // closed with the conn; interrupts dial backoff
}

// close is called once, by Bridge.Close, after the conn left b.conns.
func (bc *bridgeConn) close() {
	bc.ring.close()
	close(bc.done)
}

// sleepOrDone waits for d or until done closes; it reports whether the
// caller should keep going.
func sleepOrDone(d time.Duration, done <-chan struct{}) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-done:
		return false
	}
}

func (bc *bridgeConn) sleep(d time.Duration) bool { return sleepOrDone(d, bc.done) }

// dial establishes the peer connection with jittered exponential backoff,
// keeping queued frames while the peer is unreachable. It returns nil when
// the bridge closed first.
func (bc *bridgeConn) dial(addr string, rng *rand.Rand) net.Conn {
	backoff := time.Duration(0)
	for {
		c, err := net.DialTimeout("tcp", addr, 3*time.Second)
		if err == nil {
			return c
		}
		if backoff == 0 {
			backoff = bridgeBackoffMin
		} else if backoff < bridgeBackoffMax {
			backoff *= 2
			if backoff > bridgeBackoffMax {
				backoff = bridgeBackoffMax
			}
		}
		wait := backoff/2 + time.Duration(rng.Int63n(int64(backoff)/2+1))
		if !bc.sleep(wait) {
			return nil // bridge closed while the peer was unreachable
		}
	}
}

// drainLoop is the connection's writer: woken when the first frame of a
// burst lands, it yields one scheduler quantum so the burst's producers can
// finish (unless the size trigger is already met), swaps the whole ring out,
// and pushes it to the socket in one vectored write. Frames survive dial backoff
// in the batch; a write error costs the in-flight batch (the network is
// unreliable by assumption) and forces a redial.
func (bc *bridgeConn) drainLoop(addr string) {
	var conn net.Conn
	var iov [][]byte
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	for {
		select {
		case <-bc.done:
			// Closing released the ring's frames; nothing left to flush.
			return
		case <-bc.ring.wake:
		}
		bc.ring.accumulate()
		for {
			batch := bc.ring.take()
			if len(batch) == 0 {
				break
			}
			if conn == nil {
				if conn = bc.dial(addr, rng); conn == nil {
					releaseBatch(batch)
					return
				}
			}
			var err error
			iov, err = flushBatch(conn, iov, batch)
			bc.ring.flushes.Add(1)
			bc.ring.frames.Add(uint64(len(batch)))
			releaseBatch(batch)
			if err != nil {
				conn.Close()
				conn = nil
			}
		}
	}
}

// NewBridge creates a bridge for router with the given address book and
// installs itself as the router's remote sender.
func NewBridge(router *Router, addrs map[msg.NodeID]string) *Bridge {
	b := &Bridge{
		router:  router,
		addrs:   make(map[msg.NodeID]string, len(addrs)),
		conns:   make(map[string]*bridgeConn),
		inbound: make(map[net.Conn]struct{}),
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
	b.mu.Lock()
	b.listener = l
	b.mu.Unlock()

	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return // listener closed
			}
			b.mu.Lock()
			if b.closed {
				b.mu.Unlock()
				conn.Close()
				return
			}
			b.inbound[conn] = struct{}{}
			b.mu.Unlock()
			b.wg.Add(1)
			go func() {
				defer b.wg.Done()
				defer func() {
					b.mu.Lock()
					delete(b.inbound, conn)
					b.mu.Unlock()
				}()
				b.readLoop(conn)
			}()
		}
	}()
	return nil
}

// Addr returns the bridge's listen address (nil before Listen).
func (b *Bridge) Addr() net.Addr {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.listener == nil {
		return nil
	}
	return b.listener.Addr()
}

// readLoop injects frames from an accepted peer connection into the router.
// Ingress is batched to match the peer's vectored egress: a ChunkReader
// consumes a coalesced burst at one read syscall and one chunk allocation
// instead of two syscalls and an allocation per frame.
func (b *Bridge) readLoop(conn net.Conn) {
	defer conn.Close()
	cr := wire.NewChunkReader(conn)
	for {
		frame, err := cr.ReadFrame()
		if err != nil {
			return
		}
		env, err := msg.DecodeEnvelope(frame)
		if err != nil {
			continue // garbage from an untrusted peer: discard
		}
		b.router.Send(env)
	}
}

// send transmits an envelope to the peer process hosting e.To. Transmission
// failures drop the envelope (the network is unreliable by assumption).
func (b *Bridge) send(e *msg.Envelope) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	addr, ok := b.addrs[e.To]
	if !ok {
		b.mu.Unlock()
		return
	}
	bc, ok := b.conns[addr]
	if !ok {
		bc = &bridgeConn{ring: newSendRing(), done: make(chan struct{})}
		b.conns[addr] = bc
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			bc.drainLoop(addr)
		}()
	}
	b.mu.Unlock()

	// Zero-allocation path: the envelope (frame header included) encodes
	// into a pooled writer that travels through the ring to the writev
	// iovec and back to the pool.
	w := wire.GetWriter()
	if err := msg.AppendEnvelopeFrame(w, e); err != nil {
		wire.PutWriter(w)
		bc.ring.drops.Add(1)
		return
	}
	bc.ring.push(w)
}

// Drops returns, per peer address, how many outbound frames were dropped on
// ring overflow (the peer was unreachable long enough to fill it).
func (b *Bridge) Drops() map[string]uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]uint64, len(b.conns))
	for addr, bc := range b.conns {
		out[addr] = bc.ring.drops.Load()
	}
	return out
}

// FlushStats returns, per peer address, the send ring's flush counters.
func (b *Bridge) FlushStats() map[string]RingStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]RingStats, len(b.conns))
	for addr, bc := range b.conns {
		out[addr] = RingStats{
			Flushes: bc.ring.flushes.Load(),
			Frames:  bc.ring.frames.Load(),
		}
	}
	return out
}

// Close shuts the bridge down and waits for its goroutines.
func (b *Bridge) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	l := b.listener
	conns := b.conns
	b.conns = make(map[string]*bridgeConn)
	inbound := make([]net.Conn, 0, len(b.inbound))
	for conn := range b.inbound {
		inbound = append(inbound, conn)
	}
	b.mu.Unlock()

	if l != nil {
		l.Close()
	}
	for _, bc := range conns {
		bc.close()
	}
	// Tear down accepted peer connections too: their read loops would
	// otherwise keep Close waiting until the remote side hangs up.
	for _, conn := range inbound {
		conn.Close()
	}
	b.wg.Wait()
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

	mu     sync.Mutex
	nextID msg.NodeID
	closed bool
	active map[net.Conn]struct{}

	// sendFailures counts replies that could not be written back to a client
	// socket (write error or egress-ring overflow). They used to be dropped
	// silently; now every drop is counted and logged so a misbehaving client
	// or a saturated link is visible.
	sendFailures atomic.Uint64

	// flushes/frames aggregate the per-connection egress rings.
	flushes atomic.Uint64
	frames  atomic.Uint64

	wg       sync.WaitGroup
	listener net.Listener
}

// SendFailures returns how many client-bound frames failed to send.
func (g *Gateway) SendFailures() uint64 { return g.sendFailures.Load() }

// FlushStats returns the aggregated egress-ring flush counters.
func (g *Gateway) FlushStats() RingStats {
	return RingStats{Flushes: g.flushes.Load(), Frames: g.frames.Load()}
}

// NewGateway creates a gateway that forwards client connections to replica,
// assigning synthetic node IDs starting at firstClientID.
func NewGateway(router *Router, replica, firstClientID msg.NodeID) *Gateway {
	return &Gateway{
		router:  router,
		replica: replica,
		nextID:  firstClientID,
		active:  make(map[net.Conn]struct{}),
	}
}

// Serve accepts connections on l until the gateway is closed.
func (g *Gateway) Serve(l net.Listener) {
	g.mu.Lock()
	g.listener = l
	g.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		g.mu.Lock()
		if g.closed {
			g.mu.Unlock()
			conn.Close()
			return
		}
		id := g.nextID
		g.nextID++
		g.active[conn] = struct{}{}
		g.mu.Unlock()
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			defer func() {
				g.mu.Lock()
				delete(g.active, conn)
				g.mu.Unlock()
			}()
			g.handle(conn, id)
		}()
	}
}

// gatewayHandler is the per-connection node: it relays ChannelData
// envelopes from the replica back to the client socket through the
// connection's egress ring.
type gatewayHandler struct {
	conn net.Conn
	ring *sendRing
	gw   *Gateway
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
		h.gw.sendFailures.Add(1)
		return
	}
	if !h.ring.push(w) {
		n := h.gw.sendFailures.Add(1)
		env.Logf("realnet: gateway egress ring to %v full (%d dropped total)",
			h.conn.RemoteAddr(), n)
	}
}

func (gatewayHandler) OnTimer(node.Env, node.TimerKey) {}

var _ node.Handler = gatewayHandler{}

// drainClient flushes a client connection's egress ring until done closes.
// Write errors drop the in-flight batch (counted); the connection's read
// loop notices the broken socket and tears the node down.
func (g *Gateway) drainClient(conn net.Conn, ring *sendRing, done <-chan struct{}) {
	var iov [][]byte
	for {
		select {
		case <-done:
			return
		case <-ring.wake:
		}
		ring.accumulate()
		for {
			batch := ring.take()
			if len(batch) == 0 {
				break
			}
			var err error
			iov, err = flushBatch(conn, iov, batch)
			g.flushes.Add(1)
			g.frames.Add(uint64(len(batch)))
			if err != nil {
				g.sendFailures.Add(uint64(len(batch)))
			}
			releaseBatch(batch)
		}
	}
}

func (g *Gateway) handle(conn net.Conn, id msg.NodeID) {
	defer conn.Close()
	ring := newSendRing()
	done := make(chan struct{})
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		g.drainClient(conn, ring, done)
	}()
	defer func() {
		close(done)
		ring.close()
	}()
	g.router.Attach(id, gatewayHandler{conn: conn, ring: ring, gw: g})
	defer g.router.Detach(id)

	// Ingress mirrors egress: batched chunk reads instead of per-frame
	// syscalls and allocations.
	cr := wire.NewChunkReader(conn)
	for {
		frame, err := cr.ReadFrame()
		if err != nil {
			return
		}
		g.router.Send(msg.SealChannelData(id, g.replica, uint64(id), frame))
	}
}

// Close stops the gateway, tearing down active client connections.
func (g *Gateway) Close() {
	g.mu.Lock()
	g.closed = true
	l := g.listener
	// Snapshot under the lock, close outside it: Close on a wedged conn may
	// block, and accept/teardown paths contend on g.mu.
	conns := make([]net.Conn, 0, len(g.active))
	for conn := range g.active {
		conns = append(conns, conn)
	}
	g.mu.Unlock()
	for _, conn := range conns {
		conn.Close()
	}
	if l != nil {
		l.Close()
	}
	g.wg.Wait()
}
