// Package bftclient implements the baseline (BL) client-side library of the
// evaluation: the traditional BFT client that Troxy makes unnecessary. A
// client machine hosts many logical clients; each one
//
//   - knows the identity and number of all replicas and shares MAC keys
//     with them (Section II-A),
//   - sends ordered requests to the current leader and votes over f+1
//     matching, authenticated replies, and
//   - optionally uses the PBFT-like read optimization: reads go to all
//     replicas for speculative execution and the result counts only if all
//     2f+1 replies match; a mismatch (write concurrency) forces a re-issue
//     as an ordered request (Section VI-C2/C3).
//
// The per-reply authentication and comparison work this library performs on
// the client machine is exactly the overhead Troxy relocates to the server
// side.
package bftclient

import (
	"bytes"
	"time"

	"github.com/troxy-bft/troxy/internal/authn"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/workload"
)

// Config parameterizes a baseline client machine.
type Config struct {
	// Machine is this node's ID.
	Machine msg.NodeID

	// Clients is the number of logical clients hosted.
	Clients int

	// FirstClientID is the first logical client identity.
	FirstClientID uint64

	// N and F are the replication parameters.
	N, F int

	// Directory provides the client↔replica MAC keys.
	Directory *authn.Directory

	// Gen produces operations; Rec receives measurements.
	Gen workload.Generator
	Rec *workload.Recorder

	// ReadOpt enables the speculative read optimization.
	ReadOpt bool

	// Broadcast sends ordered requests to every replica (the PBFT-style
	// client protocol of the original system) instead of only the leader.
	Broadcast bool

	// Rate, when positive, paces each logical client (open loop).
	Rate float64

	// Timeout is the per-request deadline before retransmission (zero: 2s).
	Timeout time.Duration

	// MaxOps stops each client after this many operations (zero: forever).
	MaxOps int
}

const (
	timerOp   = "bftclient/op"
	timerPace = "bftclient/pace"
	timerKick = "bftclient/kick"
)

type clientState struct {
	idx      int
	identity uint64

	seq      uint64
	op       workload.Op
	direct   bool // current attempt is a speculative read
	inflight bool
	started  time.Duration
	done     int

	replies map[msg.NodeID][]byte // executor -> result (verified)
	votes   map[msg.Digest]int    // result hash -> count
}

// Machine is the baseline client-machine handler.
type Machine struct {
	cfg     Config
	auth    *authn.Authenticator
	clients []*clientState
	byID    map[uint64]*clientState
	leader  msg.NodeID
	stopped bool

	stats Stats
}

// Stats counts client-side events.
type Stats struct {
	// Conflicts counts speculative reads that failed (mismatch or explicit
	// conflict) and were re-issued as ordered requests.
	Conflicts uint64
	// DirectOK counts speculative reads accepted with all replies matching.
	DirectOK uint64
	// BadReplies counts replies dropped by MAC verification.
	BadReplies uint64
}

var _ node.Handler = (*Machine)(nil)

// New creates a baseline client machine.
func New(cfg Config) *Machine {
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	m := &Machine{
		cfg:  cfg,
		auth: authn.NewAuthenticator(cfg.Machine, cfg.Directory),
		byID: make(map[uint64]*clientState),
	}
	for i := 0; i < cfg.Clients; i++ {
		cs := &clientState{idx: i, identity: cfg.FirstClientID + uint64(i)}
		m.clients = append(m.clients, cs)
		m.byID[cs.identity] = cs
	}
	return m
}

// Stop makes the machine cease issuing new operations.
func (m *Machine) Stop() { m.stopped = true }

// Stats returns client-side counters.
func (m *Machine) Stats() Stats { return m.stats }

// Done reports completed operations across all clients.
func (m *Machine) Done() int {
	total := 0
	for _, cs := range m.clients {
		total += cs.done
	}
	return total
}

// OnStart implements node.Handler.
func (m *Machine) OnStart(env node.Env) {
	for _, cs := range m.clients {
		env.SetTimer(time.Duration(cs.idx)*50*time.Microsecond,
			node.TimerKey{Kind: timerKick, ID: uint64(cs.idx)})
	}
}

func (m *Machine) nextOp(env node.Env, cs *clientState) {
	if m.stopped || (m.cfg.MaxOps > 0 && cs.done >= m.cfg.MaxOps) {
		cs.inflight = false
		return
	}
	if m.cfg.Rate > 0 {
		interval := time.Duration(float64(time.Second) / m.cfg.Rate)
		jitter := time.Duration(env.Rand().Int63n(int64(interval)/4 + 1))
		cs.inflight = false
		env.SetTimer(interval-interval/8+jitter, node.TimerKey{Kind: timerPace, ID: uint64(cs.idx)})
		return
	}
	m.issue(env, cs)
}

func (m *Machine) issue(env node.Env, cs *clientState) {
	cs.op = m.cfg.Gen.Next(env.Rand())
	cs.seq++
	cs.started = env.Now()
	cs.inflight = true
	cs.direct = m.cfg.ReadOpt && cs.op.Read
	m.transmit(env, cs)
}

// transmit sends the current attempt: ordered requests to the presumed
// leader, speculative reads to everyone.
func (m *Machine) transmit(env node.Env, cs *clientState) {
	cs.replies = make(map[msg.NodeID][]byte)
	cs.votes = make(map[msg.Digest]int)

	flags := uint8(0)
	if cs.op.Read {
		flags |= msg.FlagReadOnly
	}
	if cs.direct {
		flags |= msg.FlagDirect
	}
	req := &msg.BFTRequest{
		Client:    cs.identity,
		ClientSeq: cs.seq,
		Flags:     flags,
		Op:        cs.op.Op,
	}
	// The request authenticator contains one MAC per replica (PBFT-style):
	// the client pays N-1 additional MACs beyond the one charged per send.
	if !cs.direct && !m.cfg.Broadcast {
		for i := 0; i < m.cfg.N-1; i++ {
			env.Charge(node.ProfileJava, node.ChargeMAC, len(cs.op.Op))
		}
	}
	switch {
	case cs.direct:
		for i := 0; i < m.cfg.N; i++ {
			m.send(env, msg.NodeID(i), req)
		}
	case m.cfg.Broadcast:
		req.Flags |= msg.FlagBroadcast
		for i := 0; i < m.cfg.N; i++ {
			m.send(env, msg.NodeID(i), req)
		}
	default:
		m.send(env, m.leader, req)
	}
	env.SetTimer(m.cfg.Timeout, node.TimerKey{Kind: timerOp, ID: uint64(cs.idx)})
}

func (m *Machine) send(env node.Env, to msg.NodeID, req *msg.BFTRequest) {
	e := msg.Seal(m.cfg.Machine, to, req)
	env.Charge(node.ProfileJava, node.ChargeMAC, len(e.Body))
	m.auth.SealMAC(e)
	env.Send(e)
}

// OnEnvelope implements node.Handler.
func (m *Machine) OnEnvelope(env node.Env, e *msg.Envelope) {
	if e.Kind != msg.KindBFTReply {
		return
	}
	// The client authenticates every reply it receives — the per-reply cost
	// Troxy eliminates.
	env.Charge(node.ProfileJava, node.ChargeMAC, len(e.Body))
	if !m.auth.VerifyMAC(e) {
		m.stats.BadReplies++
		return
	}
	raw, err := e.Open()
	if err != nil {
		m.stats.BadReplies++
		return
	}
	rep, ok := raw.(*msg.BFTReply)
	if !ok {
		return
	}
	cs, ok := m.byID[rep.Client]
	if !ok || !cs.inflight || rep.ClientSeq != cs.seq {
		return
	}
	if rep.Executor != e.From {
		m.stats.BadReplies++
		return
	}
	if rep.Direct != cs.direct {
		return // stale reply from a previous attempt mode
	}

	if cs.direct {
		m.onDirectReply(env, cs, rep)
		return
	}

	// Ordered path: f+1 matching replies from distinct replicas.
	if _, dup := cs.replies[rep.Executor]; dup {
		return
	}
	cs.replies[rep.Executor] = bytes.Clone(rep.Result) // rep is a view of the envelope
	h := msg.DigestOf(rep.Result)
	env.Charge(node.ProfileJava, node.ChargeHash, len(rep.Result))
	cs.votes[h]++
	if cs.votes[h] >= m.cfg.F+1 {
		m.complete(env, cs)
	}
}

// onDirectReply handles the speculative read path: all N replies must match
// and none may report a conflict; otherwise the read is re-issued ordered.
func (m *Machine) onDirectReply(env node.Env, cs *clientState, rep *msg.BFTReply) {
	if rep.Conflict {
		m.conflict(env, cs)
		return
	}
	if prev, dup := cs.replies[rep.Executor]; dup {
		if !bytes.Equal(prev, rep.Result) {
			m.conflict(env, cs)
		}
		return
	}
	// Any disagreement among replicas aborts the optimization.
	for _, other := range cs.replies {
		if !bytes.Equal(other, rep.Result) {
			m.conflict(env, cs)
			return
		}
	}
	cs.replies[rep.Executor] = bytes.Clone(rep.Result) // rep is a view of the envelope
	env.Charge(node.ProfileJava, node.ChargeHash, len(rep.Result))
	if len(cs.replies) == m.cfg.N {
		m.stats.DirectOK++
		m.complete(env, cs)
	}
}

// conflict re-issues the current read as an ordered request.
func (m *Machine) conflict(env node.Env, cs *clientState) {
	m.stats.Conflicts++
	if m.cfg.Rec != nil {
		m.cfg.Rec.RecordRetry()
	}
	cs.direct = false
	m.transmit(env, cs)
}

func (m *Machine) complete(env node.Env, cs *clientState) {
	cs.inflight = false
	cs.done++
	env.CancelTimer(node.TimerKey{Kind: timerOp, ID: uint64(cs.idx)})
	if m.cfg.Rec != nil {
		m.cfg.Rec.Record(env.Now(), env.Now()-cs.started, cs.op.Read)
	}
	m.nextOp(env, cs)
}

// OnTimer implements node.Handler.
func (m *Machine) OnTimer(env node.Env, key node.TimerKey) {
	idx := int(key.ID)
	if idx < 0 || idx >= len(m.clients) {
		return
	}
	cs := m.clients[idx]
	switch key.Kind {
	case timerKick:
		m.issue(env, cs)
	case timerPace:
		if !cs.inflight {
			m.issue(env, cs)
		}
	case timerOp:
		if !cs.inflight || m.stopped {
			return
		}
		// Retransmission: the leader may have changed, so broadcast the
		// ordered request to all replicas (speculative attempts demote to
		// ordered).
		if m.cfg.Rec != nil {
			m.cfg.Rec.RecordRetry()
		}
		cs.direct = false
		cs.replies = make(map[msg.NodeID][]byte)
		cs.votes = make(map[msg.Digest]int)
		var flags uint8
		if cs.op.Read {
			flags = msg.FlagReadOnly
		}
		req := &msg.BFTRequest{
			Client:    cs.identity,
			ClientSeq: cs.seq,
			Flags:     flags,
			Op:        cs.op.Op,
		}
		for i := 0; i < m.cfg.N; i++ {
			m.send(env, msg.NodeID(i), req)
		}
		env.SetTimer(m.cfg.Timeout, node.TimerKey{Kind: timerOp, ID: uint64(cs.idx)})
	}
}
