// Package prophecy implements the Prophecy-style middlebox baseline the
// paper compares against (Section VI-D and Table I): a trusted proxy box
// placed between clients and the replicas that keeps a *sketch cache* —
// per-operation digests of previously voted read results.
//
//   - A read whose sketch is cached goes to ONE randomly chosen replica for
//     speculative execution; the full reply is returned to the client if its
//     digest matches the sketch.
//   - Sketches are updated by ordered reads, not invalidated by writes:
//     "the reply of a read operation reflects the state of the latest read,
//     so in the worst case it would return a stale but correct result" —
//     weak consistency, the trade-off Table I records.
//   - Unlike Troxy, the whole middlebox (OS, network stack, proxy process)
//     must be trusted, and it is a separate hop on the client path.
//
// The original Prophecy runs over 3f+1 PBFT; this reproduction runs it over
// the same 2f+1 hybrid substrate as everything else (see DESIGN.md), which
// preserves the properties the Fig. 11 experiment measures: one extra
// network hop, near-replica voting, and single-replica fast reads.
package prophecy

import (
	"bytes"
	"crypto/ed25519"
	"time"

	"github.com/troxy-bft/troxy/internal/authn"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/standalone"
	"github.com/troxy-bft/troxy/internal/troxy"
)

// Config parameterizes the middlebox.
type Config struct {
	// Self is the middlebox's node ID.
	Self msg.NodeID

	// N and F are the replication parameters of the backing cluster.
	N, F int

	// Directory provides middlebox↔replica MAC keys.
	Directory *authn.Directory

	// IdentitySeed is the Ed25519 seed of the TLS identity clients pin.
	IdentitySeed []byte

	// Classify reports whether an operation is read-only.
	Classify func(op []byte) bool

	// HTTP switches the client protocol to HTTP/1.1 byte streams.
	HTTP bool

	// Timeout bounds ordered requests and speculative reads before
	// retransmission (zero: 1s).
	Timeout time.Duration
}

// Stats counts middlebox events.
type Stats struct {
	Requests   uint64
	FastOK     uint64 // sketch-validated single-replica reads
	FastMiss   uint64 // sketch misses or mismatches
	Ordered    uint64
	BadReplies uint64
	Unhandled  uint64 // envelopes of a kind the middlebox does not speak
}

type pendKey struct {
	client uint64
	seq    uint64
}

type pending struct {
	connID  uint64
	opHash  msg.Digest
	op      []byte
	read    bool
	direct  bool
	target  msg.NodeID // expected executor for direct reads
	replies map[msg.NodeID]msg.Digest
	results map[msg.Digest][]byte
}

const (
	timerOp = "prophecy/op"

	// maxSketches bounds the sketch cache.
	maxSketches = 1 << 20
)

// Middlebox is the Prophecy proxy node.
type Middlebox struct {
	cfg      Config
	channels *troxy.Channels
	auth     *authn.Authenticator

	sketches map[msg.Digest]msg.Digest
	pending  map[pendKey]*pending

	stats Stats
}

var _ node.Handler = (*Middlebox)(nil)

// New creates a middlebox.
func New(cfg Config) *Middlebox {
	if cfg.Timeout <= 0 {
		cfg.Timeout = time.Second
	}
	return &Middlebox{
		cfg:      cfg,
		channels: troxy.NewChannels(ed25519.NewKeyFromSeed(cfg.IdentitySeed), cfg.HTTP),
		auth:     authn.NewAuthenticator(cfg.Self, cfg.Directory),
		sketches: make(map[msg.Digest]msg.Digest),
		pending:  make(map[pendKey]*pending),
	}
}

// Stats returns the middlebox counters.
func (m *Middlebox) Stats() Stats { return m.stats }

// OnStart implements node.Handler.
func (m *Middlebox) OnStart(node.Env) {}

// OnEnvelope implements node.Handler.
func (m *Middlebox) OnEnvelope(env node.Env, e *msg.Envelope) {
	switch e.Kind {
	case msg.KindChannelData:
		m.onChannelData(env, e)
	case msg.KindBFTReply:
		m.onReply(env, e)
	default:
		// The middlebox sits on the client edge: it only speaks the secure
		// channel and the reply path. Replica-to-replica kinds never route
		// here; count them so a routing bug is visible.
		m.stats.Unhandled++
	}
}

func (m *Middlebox) onChannelData(env node.Env, e *msg.Envelope) {
	cd, err := e.OpenChannelData()
	if err != nil {
		return
	}
	// The record's AEAD open is charged before its operations are routed; a
	// frame the channel refuses is dropped, with no one to report it to.
	var ops []msg.ChannelRequest
	hello, opened, _ := m.channels.Receive(cd.ConnID, e.From, cd.Payload, env.Rand(), func(client, seq uint64, op []byte, _ bool) {
		ops = append(ops, msg.ChannelRequest{Client: client, Seq: seq, Op: op})
	})
	if hello != nil {
		env.Send(msg.SealChannelData(m.cfg.Self, e.From, cd.ConnID, hello))
	}
	if opened < 0 {
		return
	}
	env.Charge(node.ProfileJava, node.ChargeAEAD, opened)
	for _, req := range ops {
		m.handleOp(env, cd.ConnID, req.Client, req.Seq, req.Op)
	}
}

// handleOp routes one client operation through the sketch cache.
func (m *Middlebox) handleOp(env node.Env, connID, client, seq uint64, op []byte) {
	m.stats.Requests++
	read := m.cfg.Classify != nil && m.cfg.Classify(op)
	opHash := msg.DigestOf(op)
	env.Charge(node.ProfileJava, node.ChargeHash, len(op))

	key := pendKey{client: client, seq: seq}
	if _, dup := m.pending[key]; dup {
		return // retransmission of an in-flight request
	}
	p := &pending{
		connID:  connID,
		opHash:  opHash,
		op:      bytes.Clone(op), // a view of the record, which the next one overwrites
		read:    read,
		replies: make(map[msg.NodeID]msg.Digest),
		results: make(map[msg.Digest][]byte),
	}
	m.pending[key] = p

	if read {
		if _, cached := m.sketches[opHash]; cached {
			// Fast path: one randomly chosen replica executes speculatively.
			p.direct = true
			p.target = msg.NodeID(env.Rand().Intn(m.cfg.N))
			m.sendToReplica(env, p.target, &msg.BFTRequest{
				Client:    client,
				ClientSeq: seq,
				Flags:     msg.FlagReadOnly | msg.FlagDirect,
				Op:        op,
			})
			env.SetTimer(m.cfg.Timeout, m.timerKey(key))
			return
		}
		m.stats.FastMiss++
	}
	m.order(env, key, p)
}

// order submits the request for regular BFT ordering.
func (m *Middlebox) order(env node.Env, key pendKey, p *pending) {
	m.stats.Ordered++
	p.direct = false
	p.replies = make(map[msg.NodeID]msg.Digest)
	p.results = make(map[msg.Digest][]byte)
	flags := uint8(0)
	if p.read {
		flags = msg.FlagReadOnly
	}
	req := &msg.BFTRequest{
		Client:    key.client,
		ClientSeq: key.seq,
		Flags:     flags,
		Op:        p.op,
	}
	// The middlebox does not track views; broadcasting lets any leader pick
	// the request up (followers forward).
	for i := 0; i < m.cfg.N; i++ {
		m.sendToReplica(env, msg.NodeID(i), req)
	}
	env.SetTimer(m.cfg.Timeout, m.timerKey(key))
}

func (m *Middlebox) timerKey(key pendKey) node.TimerKey {
	return node.TimerKey{Kind: timerOp, ID: key.client<<20 ^ key.seq}
}

func (m *Middlebox) sendToReplica(env node.Env, to msg.NodeID, req *msg.BFTRequest) {
	e := msg.Seal(m.cfg.Self, to, req)
	env.Charge(node.ProfileJava, node.ChargeMAC, len(e.Body))
	m.auth.SealMAC(e)
	env.Send(e)
}

// onReply processes replica replies for both paths.
func (m *Middlebox) onReply(env node.Env, e *msg.Envelope) {
	env.Charge(node.ProfileJava, node.ChargeMAC, len(e.Body))
	if !m.auth.VerifyMAC(e) {
		m.stats.BadReplies++
		return
	}
	raw, err := e.Open()
	if err != nil {
		return
	}
	rep, ok := raw.(*msg.BFTReply)
	if !ok || rep.Executor != e.From {
		m.stats.BadReplies++
		return
	}
	key := pendKey{client: rep.Client, seq: rep.ClientSeq}
	p, ok := m.pending[key]
	if !ok {
		return
	}

	if p.direct {
		if !rep.Direct || rep.Executor != p.target {
			return
		}
		h := msg.DigestOf(rep.Result)
		env.Charge(node.ProfileJava, node.ChargeHash, len(rep.Result))
		if rep.Conflict || h != m.sketches[p.opHash] {
			// Sketch mismatch: fall back to ordering.
			m.stats.FastMiss++
			m.order(env, key, p)
			return
		}
		m.stats.FastOK++
		m.finish(env, key, p, rep.Result)
		return
	}

	if rep.Direct {
		return // stale speculative reply from an earlier attempt
	}
	if _, dup := p.replies[rep.Executor]; dup {
		return
	}
	h := msg.DigestOf(rep.Result)
	env.Charge(node.ProfileJava, node.ChargeHash, len(rep.Result))
	p.replies[rep.Executor] = h
	if _, ok := p.results[h]; !ok {
		p.results[h] = bytes.Clone(rep.Result) // rep is a view of the envelope
	}
	matching := 0
	for _, vh := range p.replies {
		if vh == h {
			matching++
		}
	}
	if matching < m.cfg.F+1 {
		return
	}
	// Voted: update the sketch (Prophecy caches the result of ordered
	// reads) and answer the client.
	if p.read {
		if len(m.sketches) >= maxSketches {
			m.sketches = make(map[msg.Digest]msg.Digest) // crude reset
		}
		m.sketches[p.opHash] = h
	}
	m.finish(env, key, p, p.results[h])
}

// finish returns the result to the client and clears the request state.
func (m *Middlebox) finish(env node.Env, key pendKey, p *pending, result []byte) {
	delete(m.pending, key)
	env.CancelTimer(m.timerKey(key))
	standalone.Reply(env, m.channels, m.cfg.Self, m.cfg.HTTP, p.connID, key.seq, result)
}

// OnTimer implements node.Handler: a stalled request is re-ordered.
func (m *Middlebox) OnTimer(env node.Env, key node.TimerKey) {
	if key.Kind != timerOp {
		return
	}
	for k, p := range m.pending {
		if m.timerKey(k) == key {
			m.order(env, k, p)
			return
		}
	}
}
