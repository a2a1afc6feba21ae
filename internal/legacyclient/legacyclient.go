// Package legacyclient implements the unmodified-client side of a
// Troxy-backed deployment as a node.Handler: a "client machine" hosting a
// configurable number of logical clients, each holding one secure channel to
// a single replica's Troxy — exactly what a legacy client does (Figure 2).
// Clients never see BFT messages, never vote, and never learn replica
// identities beyond an address list for failover.
//
// Fault handling follows Section III-D: a request that times out (Troxy
// crash, corrupted channel, lost reply) makes the client reconnect to the
// next replica in its list and retransmit — the behaviour user-facing
// clients already have.
package legacyclient

import (
	"crypto/ed25519"
	"sync/atomic"
	"time"

	"github.com/troxy-bft/troxy/internal/httpfront"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/securechannel"
	"github.com/troxy-bft/troxy/internal/wire"
	"github.com/troxy-bft/troxy/internal/workload"
)

// Config parameterizes a client machine.
type Config struct {
	// Machine is this node's ID.
	Machine msg.NodeID

	// Clients is the number of logical clients hosted (≥1).
	Clients int

	// FirstClientID is the identity of the first logical client; identities
	// must be globally unique across machines.
	FirstClientID uint64

	// Replicas lists the service addresses in failover order. Client i
	// initially connects to Replicas[i % len].
	Replicas []msg.NodeID

	// ServerPub pins the service identity (the key inside the Troxies).
	ServerPub ed25519.PublicKey

	// Gen produces operations; Rec receives measurements (both may be
	// shared across machines).
	Gen workload.Generator
	Rec *workload.Recorder

	// Rate, when positive, paces each logical client at this many
	// operations per second (open loop); zero means closed loop.
	Rate float64

	// Timeout is the per-request deadline before failover (zero: 2s).
	Timeout time.Duration

	// MaxOps stops each client after this many operations (zero: run
	// forever).
	MaxOps int

	// HTTP switches the channel payload from the generic framing to raw
	// HTTP/1.1 (responses are delimited by Content-Length).
	HTTP bool

	// FastCommit opts every request into the crash-tolerant commit tier: a
	// StatusSpeculative answer (f+1 PREPARE-round certificates) completes the
	// operation immediately, and the client keeps the request retained until
	// the durable tier confirms (StatusOK), repairs, or the confirm timeout
	// retransmits it. Generic framing only — HTTP clients opt in per request
	// via the X-Troxy-Consistency header in the workload's own request bytes.
	FastCommit bool

	// Observe, when set, receives every completed operation with the result
	// the client accepted and its invocation/response times (runtime clock).
	// Chaos suites collect linearizability histories through it. The op and
	// result slices are only valid during the call; the callback must copy
	// what it keeps.
	Observe func(client, seq uint64, op []byte, read bool, invoked, responded time.Duration, result []byte)

	// ObserveTier, when set, receives the speculative tier's lifecycle
	// events for a retained request: kind is "spec" (answered speculatively;
	// data is the speculative result), "retract" (the answer was withdrawn;
	// data is the attribution string), or "confirm" (the durable tier
	// settled it; data is the durable result — after a retraction this is
	// the repair). The data slice is only valid during the call.
	ObserveTier func(kind string, client, seq uint64, data []byte, now time.Duration)
}

const (
	timerOp      = "lclient/op"      // per-client request timeout
	timerPace    = "lclient/pace"    // per-client open-loop pacing
	timerConnect = "lclient/connect" // staggered start
	timerConfirm = "lclient/confirm" // retained-speculation confirm deadline
)

// specRetained is a request completed on a speculative answer and not yet
// settled by the durable tier.
type specRetained struct {
	op        workload.Op
	result    []byte
	retracted bool
}

type clientState struct {
	idx      int
	identity uint64
	connID   uint64

	replicaIdx int
	hs         *securechannel.ClientHandshake
	sess       *securechannel.Session

	seq      uint64
	op       workload.Op
	inflight bool
	started  time.Duration
	done     int
	respBuf  []byte

	// specs retains speculatively answered operations by sequence number
	// until the durable tier confirms or repairs them.
	specs map[uint64]*specRetained
}

// Machine is the client-machine handler. Stop, Done and Unsettled may be
// called from any goroutine while a runtime drives the handler; everything
// else belongs to the handler goroutine.
type Machine struct {
	cfg     Config
	clients []*clientState
	byConn  map[uint64]*clientState

	// plain is where an incoming record is decrypted: replies are views of it
	// until the next record arrives (Observe's result among them).
	plain []byte

	// out is the envelope a record is sent in; env.Send copies it.
	out msg.Envelope

	stopped   atomic.Bool
	completed atomic.Int64 // operations completed, all clients
	unsettled atomic.Int64 // entries in the clients' specs maps
}

var _ node.Handler = (*Machine)(nil)

// New creates a client machine.
func New(cfg Config) *Machine {
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	m := &Machine{cfg: cfg, byConn: make(map[uint64]*clientState)}
	for i := 0; i < cfg.Clients; i++ {
		cs := &clientState{
			idx:        i,
			identity:   cfg.FirstClientID + uint64(i),
			connID:     cfg.FirstClientID + uint64(i),
			replicaIdx: i % len(cfg.Replicas),
		}
		m.clients = append(m.clients, cs)
		m.byConn[cs.connID] = cs
	}
	return m
}

// Stop makes the machine cease issuing new operations.
func (m *Machine) Stop() { m.stopped.Store(true) }

// Done reports how many operations completed across all clients.
func (m *Machine) Done() int { return int(m.completed.Load()) }

// Unsettled reports how many speculatively answered operations are still
// awaiting their durable confirmation or repair. Chaos harnesses drain this
// to zero before checking histories, so every fast-tier op has a settled
// outcome.
func (m *Machine) Unsettled() int { return int(m.unsettled.Load()) }

// OnStart implements node.Handler: clients connect with a small stagger to
// avoid a synchronized handshake burst.
func (m *Machine) OnStart(env node.Env) {
	for _, cs := range m.clients {
		env.SetTimer(time.Duration(cs.idx)*50*time.Microsecond,
			node.TimerKey{Kind: timerConnect, ID: uint64(cs.idx)})
	}
}

func (m *Machine) replica(cs *clientState) msg.NodeID {
	return m.cfg.Replicas[cs.replicaIdx%len(m.cfg.Replicas)]
}

// connect starts (or restarts) a client's secure channel.
func (m *Machine) connect(env node.Env, cs *clientState) {
	hs, hello, err := securechannel.NewClientHandshake(m.cfg.ServerPub, env.Rand())
	if err != nil {
		env.Logf("legacyclient %d: handshake: %v", cs.identity, err)
		return
	}
	cs.hs = hs
	cs.sess = nil
	cs.respBuf = nil
	m.sendFrame(env, cs, hello)
	env.SetTimer(m.cfg.Timeout, node.TimerKey{Kind: timerOp, ID: uint64(cs.idx)})
}

func (m *Machine) sendFrame(env node.Env, cs *clientState, frame []byte) {
	env.Send(msg.SealChannelData(m.cfg.Machine, m.replica(cs), cs.connID, frame))
}

// nextOp issues the next operation (or schedules it under pacing).
func (m *Machine) nextOp(env node.Env, cs *clientState) {
	if m.stopped.Load() || (m.cfg.MaxOps > 0 && cs.done >= m.cfg.MaxOps) {
		cs.inflight = false
		return
	}
	if m.cfg.Rate > 0 {
		interval := time.Duration(float64(time.Second) / m.cfg.Rate)
		// Jitter spreads the fixed-rate clients over the interval.
		jitter := time.Duration(env.Rand().Int63n(int64(interval)/4 + 1))
		cs.inflight = false
		env.SetTimer(interval-interval/8+jitter, node.TimerKey{Kind: timerPace, ID: uint64(cs.idx)})
		return
	}
	m.issue(env, cs)
}

// issue draws an operation and transmits it.
func (m *Machine) issue(env node.Env, cs *clientState) {
	cs.op = m.cfg.Gen.Next(env.Rand())
	cs.seq++
	cs.started = env.Now()
	cs.inflight = true
	m.transmit(env, cs)
	env.SetTimer(m.cfg.Timeout, node.TimerKey{Kind: timerOp, ID: uint64(cs.idx)})
}

// transmit (re)sends the current operation over the established channel.
func (m *Machine) transmit(env node.Env, cs *clientState) {
	if !cs.sess.Established() {
		return // will be retransmitted once the channel is up
	}
	plaintext := cs.op.Op
	if !m.cfg.HTTP {
		flags := uint8(0)
		if cs.op.Read {
			flags = msg.FlagReadOnly
		}
		if m.cfg.FastCommit {
			flags |= msg.FlagFastCommit
		}
		w := wire.GetWriter()
		defer wire.PutWriter(w) // sealing copies the plaintext into the record
		(&msg.ChannelRequest{Client: cs.identity, Seq: cs.seq, Flags: flags, Op: cs.op.Op}).MarshalWire(w)
		plaintext = w.Bytes()
	}
	if err := m.sendRecord(env, cs, plaintext); err != nil {
		env.Logf("legacyclient %d: seal: %v", cs.identity, err)
	}
}

// sendRecord seals plaintext straight into the body of the ChannelData
// envelope that carries the record: the body is the record's only buffer,
// and the envelope is the machine's.
func (m *Machine) sendRecord(env node.Env, cs *clientState, plaintext []byte) error {
	body, err := cs.sess.AppendSeal(msg.ChannelDataBody(cs.connID, securechannel.Overhead+len(plaintext)), plaintext)
	if err != nil {
		return err
	}
	env.Charge(node.ProfileJava, node.ChargeAEAD, len(plaintext))
	m.out = msg.Envelope{From: m.cfg.Machine, To: m.replica(cs), Kind: msg.KindChannelData, Body: body}
	env.Send(&m.out)
	return nil
}

// OnEnvelope implements node.Handler.
func (m *Machine) OnEnvelope(env node.Env, e *msg.Envelope) {
	cd, err := e.OpenChannelData()
	if err != nil {
		return
	}
	cs, ok := m.byConn[cd.ConnID]
	if !ok {
		return
	}
	if e.From != m.replica(cs) {
		// Bytes for this connection can only arrive over the transport to
		// the replica we are connected to; anything else is a bypass
		// attempt by a third party and is dropped on the floor.
		return
	}

	// Handshake completion.
	if cs.sess == nil {
		if cs.hs == nil {
			return
		}
		sess, err := cs.hs.Finish(cd.Payload)
		if err != nil {
			env.Logf("legacyclient %d: bad server hello: %v", cs.identity, err)
			return
		}
		cs.sess = sess
		cs.hs = nil
		if cs.inflight {
			// Failover: retransmit the pending operation on the new channel.
			m.transmit(env, cs)
			env.SetTimer(m.cfg.Timeout, node.TimerKey{Kind: timerOp, ID: uint64(cs.idx)})
		} else {
			m.nextOp(env, cs)
		}
		return
	}

	// Plain or coalesced record from the Troxy: every sub-frame verified
	// before any of them is interpreted.
	frames, err := cs.sess.OpenFrames(m.plain, cd.Payload)
	if err != nil {
		// Tampered or replayed data on the channel: reconnect (Section
		// III-D fault handling).
		env.Logf("legacyclient %d: corrupted channel: %v", cs.identity, err)
		m.failover(env, cs)
		return
	}
	m.plain = frames.Scratch()
	total := 0
	for f := range frames.All() {
		total += len(f)
	}
	env.Charge(node.ProfileJava, node.ChargeAEAD, total)

	if m.cfg.HTTP {
		for plaintext := range frames.All() {
			cs.respBuf = append(cs.respBuf, plaintext...)
		}
		resp, consumed, err := httpfront.ExtractResponse(cs.respBuf)
		if err != nil || resp == nil {
			return
		}
		cs.respBuf = cs.respBuf[consumed:]
		m.complete(env, cs, resp)
		return
	}

	for plaintext := range frames.All() {
		reply, err := msg.DecodeChannelReply(plaintext)
		if err != nil {
			continue
		}
		m.onReply(env, cs, reply)
	}
}

// onReply dispatches one decoded reply frame by status and sequence number.
func (m *Machine) onReply(env node.Env, cs *clientState, reply msg.ChannelReply) {
	// Retained speculations settle independently of the current in-flight
	// operation: the client has usually moved on by the time the durable
	// tier reports back.
	if rec, ok := cs.specs[reply.Seq]; ok {
		switch reply.Status {
		case msg.StatusRetracted:
			// The fast answer was withdrawn; the durable repair follows
			// (the confirm timer retransmits if it does not).
			if !rec.retracted {
				rec.retracted = true
				if m.cfg.ObserveTier != nil {
					m.cfg.ObserveTier("retract", cs.identity, reply.Seq, reply.Result, env.Now())
				}
			}
		case msg.StatusOK:
			// Durable settlement: confirmation when it matches the
			// speculative result, repair otherwise (including after a
			// retraction).
			delete(cs.specs, reply.Seq)
			m.unsettled.Add(-1)
			env.CancelTimer(node.TimerKey{Kind: timerConfirm, ID: confirmTimerID(cs.idx, reply.Seq)})
			if m.cfg.ObserveTier != nil {
				m.cfg.ObserveTier("confirm", cs.identity, reply.Seq, reply.Result, env.Now())
			}
		}
		return
	}

	if reply.Seq != cs.seq || !cs.inflight {
		return
	}
	switch reply.Status {
	case msg.StatusSpeculative:
		// Crash-commit answer: complete the operation now and retain it
		// until the durable tier settles it.
		rec := &specRetained{op: cs.op, result: append([]byte(nil), reply.Result...)}
		if cs.specs == nil {
			cs.specs = make(map[uint64]*specRetained)
		}
		cs.specs[cs.seq] = rec
		m.unsettled.Add(1)
		if m.cfg.ObserveTier != nil {
			m.cfg.ObserveTier("spec", cs.identity, cs.seq, reply.Result, env.Now())
		}
		env.SetTimer(m.confirmTimeout(), node.TimerKey{Kind: timerConfirm, ID: confirmTimerID(cs.idx, cs.seq)})
		m.complete(env, cs, reply.Result)
	case msg.StatusOK:
		m.complete(env, cs, reply.Result)
	}
}

// confirmTimerID packs (client index, sequence number) into one timer ID;
// sequence numbers stay far below 2^32 for any practical run length.
func confirmTimerID(idx int, seq uint64) uint64 {
	return uint64(idx)<<32 | (seq & 0xffffffff)
}

func (m *Machine) confirmTimeout() time.Duration {
	return 2 * m.cfg.Timeout
}

func (m *Machine) complete(env node.Env, cs *clientState, result []byte) {
	if !cs.inflight {
		return
	}
	cs.inflight = false
	cs.done++
	m.completed.Add(1)
	env.CancelTimer(node.TimerKey{Kind: timerOp, ID: uint64(cs.idx)})
	if m.cfg.Rec != nil {
		m.cfg.Rec.Record(env.Now(), env.Now()-cs.started, cs.op.Read)
	}
	if m.cfg.Observe != nil {
		// started is the first transmission of this op: failover retransmits
		// keep it, so the invocation window is conservative (never shrunk).
		m.cfg.Observe(cs.identity, cs.seq, cs.op.Op, cs.op.Read, cs.started, env.Now(), result)
	}
	m.nextOp(env, cs)
}

// retransmitRetained resends a retained operation under its original
// sequence number, without the fast-commit flag: the retry wants the durable
// answer. The Troxy re-registers the vote and the ordering layer either
// re-executes the request (the speculation was lost) or replays the cached
// reply (it had committed and the confirmation was lost) — exactly-once
// either way, by the client-table dedup rule.
func (m *Machine) retransmitRetained(env node.Env, cs *clientState, seq uint64, rec *specRetained) {
	if !cs.sess.Established() {
		return // the reconnect path retransmits once the channel is up
	}
	flags := uint8(0)
	if rec.op.Read {
		flags = msg.FlagReadOnly
	}
	plaintext := msg.EncodeChannelRequest(&msg.ChannelRequest{
		Client: cs.identity,
		Seq:    seq,
		Flags:  flags,
		Op:     rec.op.Op,
	})
	if err := m.sendRecord(env, cs, plaintext); err != nil {
		env.Logf("legacyclient %d: seal retained %d: %v", cs.identity, seq, err)
		return
	}
	if m.cfg.Rec != nil {
		m.cfg.Rec.RecordRetry()
	}
}

// failover reconnects to the next replica; the pending operation (if any)
// is retransmitted after the new handshake.
func (m *Machine) failover(env node.Env, cs *clientState) {
	cs.replicaIdx++
	if m.cfg.Rec != nil && cs.inflight {
		m.cfg.Rec.RecordRetry()
	}
	m.connect(env, cs)
}

// OnTimer implements node.Handler.
func (m *Machine) OnTimer(env node.Env, key node.TimerKey) {
	if key.Kind == timerConfirm {
		// The durable settlement for a retained speculation never arrived
		// (crash before commit, or a lost repair). Retransmit the old
		// operation under its original sequence number on the durable tier:
		// if it already committed, the reply-cache replay answers it; if the
		// speculation was lost, this is the retry that re-executes it.
		idx := int(key.ID >> 32)
		seq := key.ID & 0xffffffff
		if idx < 0 || idx >= len(m.clients) {
			return
		}
		cs := m.clients[idx]
		rec, ok := cs.specs[seq]
		if !ok {
			return
		}
		m.retransmitRetained(env, cs, seq, rec)
		env.SetTimer(m.confirmTimeout(), node.TimerKey{Kind: timerConfirm, ID: key.ID})
		return
	}
	idx := int(key.ID)
	if idx < 0 || idx >= len(m.clients) {
		return
	}
	cs := m.clients[idx]
	switch key.Kind {
	case timerConnect:
		m.connect(env, cs)
	case timerPace:
		if !cs.inflight {
			m.issue(env, cs)
		}
	case timerOp:
		if m.stopped.Load() {
			return
		}
		if cs.sess == nil || cs.inflight {
			// Handshake or request timed out: switch replicas.
			m.failover(env, cs)
		}
	}
}
