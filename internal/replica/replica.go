// Package replica implements the untrusted part of a replica: connection
// handling, transport message authentication, and the composition of the
// Hybster protocol core with (optionally) a Troxy. It is the node.Handler
// that runs on each server, under both the real runtime and the simulator.
//
// Two frontends exist, matching the evaluation's systems:
//
//   - Troxy mode (Config.Proxy != nil): legacy clients connect over secure
//     channels; the Troxy terminates them, votes over replies, and serves
//     fast reads. Replies of executed requests travel replica→replica as
//     OrderedReplies authenticated by the executing replica's Troxy, batched
//     per origin: what one handler invocation produced for an origin leaves
//     as one ReplyBatch envelope. Like the fast-read cache exchange, a batch
//     carries no transport MAC: only Troxies check what Troxies tag
//     (msg.Kind's TroxyTagged).
//   - Baseline mode (Config.Proxy == nil): BFT clients (internal/bftclient)
//     talk the protocol themselves; replicas send them BFTReply messages and
//     answer speculative direct reads (the PBFT-like read optimization).
//
// In both modes a PREPARE and a COMMIT travel without a transport MAC too:
// the counter certificate each carries authenticates it (authn.HostMACed).
package replica

import (
	"time"

	"github.com/troxy-bft/troxy/internal/authn"
	"github.com/troxy-bft/troxy/internal/hybster"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/troxy"
	"github.com/troxy-bft/troxy/internal/wire"
)

// Config parameterizes a replica.
type Config struct {
	// Self is this replica's ID (0..N-1).
	Self msg.NodeID

	// N and F are the replication parameters.
	N, F int

	// Hybster configures the protocol core (including PipelineDepth, the
	// ordering pipeline's in-flight window). Self/N/F are overwritten from
	// this config.
	Hybster hybster.Config

	// Directory provides the transport authentication keys.
	Directory *authn.Directory

	// Proxy is the Troxy binding (nil = baseline mode).
	Proxy troxy.Proxy

	// TickInterval drives the Troxy's timeout processing (zero: 100ms).
	TickInterval time.Duration
}

const timerTick = "replica/tick"

// Replica is the untrusted replica part.
type Replica struct {
	cfg   Config
	auth  *authn.Authenticator
	core  *hybster.Core
	proxy troxy.Proxy

	// The reply path handles a reply as bytes in buffers the replica owns
	// until the voter keeps it: Committed fills reply (its key list encoded
	// into keys) and appends the authenticated encoding to the origin's
	// outbox entry; a received batch is opened into batch and walked through
	// inbound, and a received cache message is opened into query or answer.
	// No Proxy keeps a message it is handed, so all of them are reused.
	reply   msg.OrderedReply
	keys    msg.Keys
	inbound msg.OrderedReply
	batch   msg.ReplyBatch
	query   msg.CacheQuery
	answer  msg.CacheReply
	outbox  []replyQueue // indexed by origin replica

	// The ordering kinds are opened into these, one each, and handed to the
	// protocol core, which copies what it keeps of them (hybster.Core's
	// OnPrepare, OnCommit and OnForward). prep keeps its request slice from
	// one PREPARE to the next.
	prep msg.Prepare
	com  msg.Commit
	fwd  msg.Forward

	// out is the envelope every hot send fills and hands to env.Send, which
	// copies it, header and bytes: nothing between the fill and the Send can
	// send again.
	out msg.Envelope

	// staged and stagedOps hold the submits of an Actions that has more than
	// one, copied out of the proxy's lent memory before the first of them is
	// submitted (apply). An apply inside a Submit stages above the enclosing
	// one's, and each takes back only what it staged.
	staged    []msg.OrderRequest
	stagedOps []byte

	stats Stats
}

// replyQueue collects the encoded replies bound for one origin until the
// handler invocation that produced them ends, the batch is full, or the
// first of them has waited replyBatchWait. since is when that one joined.
type replyQueue struct {
	w     wire.Writer
	n     int
	since time.Duration
}

// replyBatchWait bounds what batching adds to a reply's latency at the
// sender: a queued reply waits no longer than this (plus the execution of
// the request in progress) for the invocation to end. A batch executes in
// well under it where a request costs a few microseconds, and then leaves
// whole; where a request costs tens (the simulator's SGX-priced ecalls, 64
// requests a batch) the replies leave a few at a time while the batch is
// still executing, as they did when each was its own envelope. DESIGN.md
// decision 13 has the sweep the value comes from.
const replyBatchWait = 150 * time.Microsecond

// Stats counts transport-level events.
type Stats struct {
	// BadMACs counts envelopes dropped by transport authentication ("if a
	// correct component receives a message it cannot verify, the component
	// discards the message", Section III-B): a transport MAC that does not
	// verify, or a body that does not decode — for a kind with no MAC (one a
	// Troxy tags, a PREPARE, a COMMIT) the one check its envelope meets before
	// the Troxy's tags or the core's certificate check.
	BadMACs uint64
	// DirectReads counts speculative read executions (baseline mode).
	DirectReads uint64
	// Unhandled counts authenticated messages of a kind the replica has no
	// handler for (client-side kinds like BFTReply, transport-level kinds
	// like Batch that never arrive as bare envelopes, and at a baseline
	// replica the kinds only a Troxy handles).
	Unhandled uint64
	// BadBatches counts reply batches cut short: a reply that did not
	// decode, or one more than msg.MaxBatchReplies. The replies in front of it
	// were handled; the rest of the envelope was dropped.
	BadBatches uint64
}

var _ node.Handler = (*Replica)(nil)
var _ hybster.Outbound = (*Replica)(nil)
var _ hybster.SpecOutbound = (*Replica)(nil)
var _ hybster.Broadcaster = (*Replica)(nil)

// New creates a replica.
func New(cfg Config) *Replica {
	r := &Replica{cfg: cfg, proxy: cfg.Proxy, outbox: make([]replyQueue, cfg.N)}
	r.auth = authn.NewAuthenticator(cfg.Self, cfg.Directory)
	hcfg := cfg.Hybster
	hcfg.Self = cfg.Self
	hcfg.N = cfg.N
	hcfg.F = cfg.F
	r.core = hybster.New(hcfg, r)
	return r
}

// Core exposes the protocol core (experiments read its metrics).
func (r *Replica) Core() *hybster.Core { return r.core }

// Stats returns transport counters.
func (r *Replica) Stats() Stats { return r.stats }

// OnStart implements node.Handler.
func (r *Replica) OnStart(env node.Env) {
	if r.proxy != nil {
		env.SetTimer(r.tickInterval(), node.TimerKey{Kind: timerTick})
	}
}

func (r *Replica) tickInterval() time.Duration {
	if r.cfg.TickInterval > 0 {
		return r.cfg.TickInterval
	}
	return 100 * time.Millisecond
}

// OnTimer implements node.Handler.
func (r *Replica) OnTimer(env node.Env, key node.TimerKey) {
	r.onTimer(env, key)
	r.flushReplies(env)
}

func (r *Replica) onTimer(env node.Env, key node.TimerKey) {
	switch {
	case hybster.OwnsTimer(key):
		r.core.OnTimer(env, key)
	case key.Kind == timerTick:
		if r.proxy != nil {
			if acts, err := r.proxy.Tick(env); err == nil {
				r.apply(env, acts)
			}
			env.SetTimer(r.tickInterval(), node.TimerKey{Kind: timerTick})
		}
	}
}

// OnEnvelope implements node.Handler.
func (r *Replica) OnEnvelope(env node.Env, e *msg.Envelope) {
	r.onEnvelope(env, e)
	r.flushReplies(env)
}

func (r *Replica) onEnvelope(env node.Env, e *msg.Envelope) {
	switch {
	case e.Kind == msg.KindChannelData:
		r.onChannelData(env, e)
		return
	case e.Kind.TroxyTagged():
		r.onTroxyTagged(env, e)
		return
	case !authn.HostMACed(e.Kind):
		r.onCertified(env, e)
		return
	}

	// Everything else travels with a transport MAC.
	m, ok := r.authenticate(env, e)
	if !ok {
		r.stats.BadMACs++
		return
	}
	env.Charge(node.ProfileJava, node.ChargeBase, 0)

	switch m := m.(type) {
	case *msg.BFTRequest:
		r.onBFTRequest(env, e.From, m)
	case *msg.SpecReply:
		// A peer's speculative reply for a request this replica originated.
		// The counter certificate is checked by the protocol core (it knows
		// the lane layout and leader schedule) before the Troxy tallies the
		// vote; a bad certificate is counted against the sender.
		if r.proxy == nil {
			r.stats.Unhandled++ // a baseline replica has no voter
		} else if r.core.VerifySpecReply(env, e.From, m) {
			if acts, err := r.proxy.HandleSpecReply(env, m); err == nil {
				r.apply(env, acts)
			}
		}
	default:
		// The protocol core owns the ordering kinds. ChannelData and the
		// Troxy-tagged kinds are intercepted above; BFTReply is client-bound,
		// Batch only travels inside PREPAREs and OrderedReply inside
		// ReplyBatches. Count anything else so a new message kind that is
		// wired here but not handled shows up.
		if !r.core.OnMessage(env, e.From, m) {
			r.stats.Unhandled++
		}
	}
}

// onTroxyTagged hands a message only Troxies check to this replica's Troxy,
// with no transport MAC to verify: the tags inside bind sender, kind and, for
// the cache exchange, destination, and the Troxy rejects what they do not
// cover (DESIGN.md decision 16). The sender is who the tags name — a cache
// message's From, each reply's Executor — never the envelope's From, which
// nothing here reads. The body is opened by value, into the replica's scratch
// for its kind, and its byte fields stay views of it.
func (r *Replica) onTroxyTagged(env node.Env, e *msg.Envelope) {
	env.Charge(node.ProfileJava, node.ChargeBase, 0)
	if r.proxy == nil {
		r.stats.Unhandled++ // a baseline replica has no Troxy
		return
	}
	rd := wire.NewReader(e.Body)
	var err error
	switch e.Kind {
	case msg.KindReplyBatch:
		err = r.batch.UnmarshalWire(rd)
	case msg.KindCacheQuery:
		err = r.query.UnmarshalWire(rd)
	default:
		err = r.answer.UnmarshalWire(rd)
	}
	if err == nil {
		err = rd.Finish()
	}
	if err != nil {
		r.stats.BadMACs++
		return
	}
	var acts troxy.Actions
	switch e.Kind {
	case msg.KindReplyBatch:
		r.onReplyBatch(env, &r.batch)
		return
	case msg.KindCacheQuery:
		acts, err = r.proxy.HandleCacheQuery(env, &r.query)
	default:
		acts, err = r.proxy.HandleCacheReply(env, &r.answer)
	}
	if err == nil {
		r.apply(env, acts)
	}
}

// onCertified hands a PREPARE or a COMMIT to the protocol core with no
// transport MAC to verify: the counter certificate each carries binds its
// sender's trusted subsystem to the view, the sequence number and the batch
// digest, and the core verifies it — against the envelope's From — before it
// keeps, parks or answers anything (DESIGN.md decision 17). The body is
// opened by view into the replica's prep or com, nothing is copied or kept,
// and the requests of a PREPARE that this replica submitted itself are matched
// against the ones it holds before the core hashes anything
// (hybster.Core.AdoptHeld). A body that does not decode is counted as a bad
// MAC, as for the kinds a Troxy tags.
func (r *Replica) onCertified(env node.Env, e *msg.Envelope) {
	rd := wire.NewReader(e.Body)
	var err error
	if e.Kind == msg.KindPrepare {
		err = r.prep.UnmarshalWire(rd)
	} else {
		err = r.com.UnmarshalWire(rd)
	}
	if err == nil {
		err = rd.Finish()
	}
	if err != nil {
		r.stats.BadMACs++
		return
	}
	env.Charge(node.ProfileJava, node.ChargeBase, 0)
	if e.Kind == msg.KindPrepare {
		r.core.AdoptHeld(&r.prep.Batch)
		r.core.OnPrepare(env, e.From, &r.prep)
	} else {
		r.core.OnCommit(env, e.From, &r.com)
	}
}

// authenticate checks e's transport MAC and decodes its body. A FORWARD's MAC
// covers the digest of the request it orders, not its bytes (authn.Covered),
// so a FORWARD is opened first — by view into the replica's fwd, nothing is
// copied or kept — and the digest computed for the check stays with the
// decoded request: the leader's batch digest and log admission reuse it. Every
// other kind is verified whole before it is decoded, and a recovery kind,
// which hybster.Open decodes from a clone of the body, is cloned only once its
// MAC has passed.
func (r *Replica) authenticate(env node.Env, e *msg.Envelope) (msg.Message, bool) {
	if authn.CoversDigests(e.Kind) {
		m, rd := &r.fwd, wire.NewReader(e.Body)
		err := m.UnmarshalWire(rd)
		if err == nil {
			err = rd.Finish()
		}
		if err != nil {
			return nil, false
		}
		ok, n := r.auth.VerifyMessage(e, m)
		env.Charge(node.ProfileJava, node.ChargeMAC, n)
		return m, ok
	}
	env.Charge(node.ProfileJava, node.ChargeMAC, len(e.Body))
	if !r.auth.VerifyMAC(e) {
		return nil, false
	}
	m, err := hybster.Open(e)
	return m, err == nil
}

// onReplyBatch feeds a peer's replies to the voter one by one, each decoded
// into the same OrderedReply: the Troxy copies what it keeps of a reply. Each
// reply is authenticated by its own tag check inside the Troxy.
func (r *Replica) onReplyBatch(env node.Env, b *msg.ReplyBatch) {
	for it := b.Iter(); ; {
		more, err := it.Next(&r.inbound)
		if err != nil {
			r.stats.BadBatches++
		}
		if !more {
			return
		}
		if acts, err := r.proxy.HandleReply(env, &r.inbound); err == nil {
			r.apply(env, acts)
		}
	}
}

// onChannelData feeds opaque client bytes into the Troxy.
func (r *Replica) onChannelData(env node.Env, e *msg.Envelope) {
	if r.proxy == nil {
		return // baseline replicas have no legacy-client frontend
	}
	cd, err := e.OpenChannelData()
	if err != nil {
		return
	}
	acts, err := r.proxy.HandleClientData(env, cd.ConnID, e.From, cd.Payload)
	if err != nil {
		env.Logf("troxy: client data from %d: %v", e.From, err)
		return
	}
	r.apply(env, acts)
}

// onBFTRequest serves baseline BFT clients.
func (r *Replica) onBFTRequest(env node.Env, from msg.NodeID, m *msg.BFTRequest) {
	if m.Flags&msg.FlagDirect != 0 {
		// Speculative read: execute without ordering and reply directly.
		result, ok := r.core.ExecuteReadOnly(env, m.Op)
		rep := &msg.BFTReply{
			Executor:  r.cfg.Self,
			Client:    m.Client,
			ClientSeq: m.ClientSeq,
			ReqDigest: msg.DigestOf(m.Op),
			Direct:    true,
			Conflict:  !ok,
			Result:    result,
		}
		r.stats.DirectReads++
		r.sendAuthed(env, from, rep)
		return
	}
	if m.Flags&msg.FlagBroadcast != 0 && !r.core.IsLeader() {
		// The client broadcast this request; the leader has its own copy
		// and followers must not amplify it into Forwards.
		return
	}
	// m is a view of the envelope: Submit copies what it keeps of it.
	r.core.Submit(env, &msg.OrderRequest{
		Origin:    from,
		Client:    m.Client,
		ClientSeq: m.ClientSeq,
		Flags:     m.Flags,
		Op:        m.Op,
	})
}

// apply executes the Troxy's requested actions. A client record and a cache
// message leave in the bodies the binding decoded them as, which Send copies,
// and a submit goes to ordering as it is: Submit copies what it keeps. All of
// an Actions is lent until the next proxy call (troxy.Proxy), and Submit is
// the one action that can make one (a retransmitted request that has executed
// has its reply replayed and voted here, a proposal is speculated on), so the
// submits go last, and when there are several they are first staged in memory
// of the replica's own: the first one's call would overwrite the others.
func (r *Replica) apply(env node.Env, acts troxy.Actions) {
	for _, cr := range acts.Client {
		r.out = msg.Envelope{From: r.cfg.Self, To: cr.Node, Kind: msg.KindChannelData, Body: cr.Body}
		env.Send(&r.out)
	}
	for _, pm := range acts.Queries {
		r.sendTagged(env, pm.To, pm.Kind, pm.Body)
	}
	subs := acts.Submits
	reqs, ops := len(r.staged), len(r.stagedOps)
	if len(subs) > 1 {
		subs = r.stage(subs)
	}
	for i := range subs {
		r.core.Submit(env, &subs[i])
	}
	r.staged, r.stagedOps = r.staged[:reqs], r.stagedOps[:ops]
}

// stage copies reqs above what is staged already and returns the copy. An
// apply nested inside one of its Submits stages above it in turn: where that
// append reallocates, the copy returned here keeps the old array.
func (r *Replica) stage(reqs []msg.OrderRequest) []msg.OrderRequest {
	from, at := len(r.stagedOps), len(r.staged)
	for i := range reqs {
		r.stagedOps = append(r.stagedOps, reqs[i].Op...)
	}
	r.staged = append(r.staged, reqs...)
	staged, ops := r.staged[at:len(r.staged):len(r.staged)], r.stagedOps[from:]
	for i := range staged {
		n := len(staged[i].Op)
		staged[i].Op, ops = ops[:n:n], ops[n:]
	}
	return staged
}

// sendAuthed seals, MACs and transmits a message to one peer: the body is
// encoded into a pooled writer, which goes back once Send has copied it.
func (r *Replica) sendAuthed(env node.Env, to msg.NodeID, m msg.Message) {
	w := wire.GetWriter()
	m.MarshalWire(w)
	r.sendEncoded(env, to, m, w.Bytes())
	wire.PutWriter(w)
}

// sendEncoded MACs and transmits m, whose encoding is body, under the MAC of
// its kind (authn.SealMessage) — or with no MAC, if its kind carries none
// (authn.HostMACed): a Troxy tagged it, or it is a PREPARE or a COMMIT, which
// its counter certificate authenticates.
func (r *Replica) sendEncoded(env node.Env, to msg.NodeID, m msg.Message, body []byte) {
	e := &r.out
	*e = msg.Envelope{From: r.cfg.Self, To: to, Kind: m.Kind(), Body: body}
	if authn.HostMACed(e.Kind) {
		env.Charge(node.ProfileJava, node.ChargeMAC, r.auth.SealMessage(e, m))
	}
	env.Send(e)
}

// sendTagged transmits body, the encoding of a message of a kind a Troxy tags
// (a reply batch the replica built, a cache message its Troxy encoded), as it
// is: the tags inside authenticate it, and it carries no MAC.
func (r *Replica) sendTagged(env node.Env, to msg.NodeID, kind msg.Kind, body []byte) {
	r.out = msg.Envelope{From: r.cfg.Self, To: to, Kind: kind, Body: body}
	env.Send(&r.out)
}

// Send implements hybster.Outbound.
func (r *Replica) Send(env node.Env, to msg.NodeID, m msg.Message) {
	r.sendAuthed(env, to, m)
}

// Broadcast implements hybster.Broadcaster: the message is marshalled once,
// into a pooled writer, and that one body is sent to — and, if its kind
// carries a MAC, MACed for — every recipient.
func (r *Replica) Broadcast(env node.Env, m msg.Message) {
	w := wire.GetWriter()
	m.MarshalWire(w)
	for i := 0; i < r.cfg.N; i++ {
		if to := msg.NodeID(i); to != r.cfg.Self {
			r.sendEncoded(env, to, m, w.Bytes())
		}
	}
	wire.PutWriter(w)
}

// Committed implements hybster.Outbound: every executed request produces a
// reply toward its origin. In Troxy mode the reply is authenticated by this
// replica's Troxy — which also invalidates outdated cache entries before the
// reply can count anywhere (Section IV-A).
//
// The core invokes Committed strictly in *applied* sequence order, even when
// the ordering pipeline certifies and disseminates batches out of order
// (PipelineDepth > 1). The Troxy's fast-read freshness tracking
// (lastWriteSeq) depends on this: it must observe writes in the order they
// took effect, not the order their PREPAREs happened to certify.
func (r *Replica) Committed(env node.Env, seq uint64, req *msg.OrderRequest, result []byte, keys []string, read, fresh bool) {
	if req.Origin == msg.NoNode {
		return
	}
	if r.proxy == nil {
		// Baseline: reply straight to the BFT client.
		r.sendAuthed(env, req.Origin, &msg.BFTReply{
			Executor:  r.cfg.Self,
			Client:    req.Client,
			ClientSeq: req.ClientSeq,
			ReqDigest: req.Digest(),
			Result:    result,
		})
		return
	}

	// Whatever this invocation queued long enough ago leaves before more work
	// is done, whichever origin this request has.
	now := env.Now()
	for to := range r.outbox {
		if q := &r.outbox[to]; q.n > 0 && now-q.since >= replyBatchWait {
			r.flushTo(env, msg.NodeID(to))
		}
	}

	rep := &r.reply
	rep.Executor, rep.Seq = r.cfg.Self, seq
	rep.Client, rep.ClientSeq = req.Client, req.ClientSeq
	rep.ReqDigest, rep.Result = req.Digest(), result
	r.keys = msg.AppendKeys(r.keys, keys)
	rep.InvalidKeys = r.keys
	rep.TroxyTag = rep.TroxyTag[:0] // untagged; the last tag's storage takes the next
	// The operation digest keys the fast-read cache entry a read's reply
	// installs; a write's reply has no use for it.
	var opHash msg.Digest
	if read {
		opHash = msg.DigestOf(req.Op)
	}
	env.Charge(node.ProfileJava, node.ChargeHash, len(req.Op))
	if err := r.proxy.AuthenticateReply(env, rep, read, fresh, opHash); err != nil {
		env.Logf("troxy: authenticate reply: %v", err)
		return
	}
	if req.Origin == r.cfg.Self {
		// The voter lives in this replica's own Troxy.
		if acts, err := r.proxy.HandleReply(env, rep); err == nil {
			r.apply(env, acts)
		}
		return
	}
	r.queueReply(env, req.Origin, rep)
}

// queueReply appends an authenticated reply to its origin's batch, which
// leaves when the invocation ends (flushReplies), when its oldest reply has
// waited replyBatchWait (Committed), or here, when it is full. A reply that
// would take the batch past BatchFlushBytes goes into the next one, so only a
// reply that is larger by itself makes a larger envelope — the one it made
// when replies travelled alone.
func (r *Replica) queueReply(env node.Env, to msg.NodeID, rep *msg.OrderedReply) {
	if to < 0 || int(to) >= len(r.outbox) {
		// Not a replica, so no batch to join: a batch of one is the reply.
		w := wire.GetWriter()
		rep.MarshalWire(w)
		r.sendTagged(env, to, msg.KindReplyBatch, w.Bytes())
		wire.PutWriter(w)
		return
	}
	q := &r.outbox[to]
	if q.n > 0 && q.w.Len()+rep.WireSize() > msg.BatchFlushBytes {
		r.flushTo(env, to)
	}
	if q.n == 0 {
		q.since = env.Now()
	}
	rep.MarshalWire(&q.w)
	q.n++
	if q.n >= msg.MaxBatchReplies || q.w.Len() >= msg.BatchFlushBytes {
		r.flushTo(env, to)
	}
}

// flushReplies sends every pending reply batch. It is the epilogue of each
// handler invocation and uses that invocation's env.
func (r *Replica) flushReplies(env node.Env) {
	for to := range r.outbox {
		r.flushTo(env, msg.NodeID(to))
	}
}

// flushTo sends the batch pending for one origin, if any, as one envelope
// whose body is the queue's buffer, which Send copies; the buffer is kept for
// the next batch unless a giant reply grew it.
func (r *Replica) flushTo(env node.Env, to msg.NodeID) {
	q := &r.outbox[to]
	if q.n == 0 {
		return
	}
	r.sendTagged(env, to, msg.KindReplyBatch, q.w.Bytes())
	if q.w.Len() > 2*msg.BatchFlushBytes {
		q.w = wire.Writer{}
	}
	q.w.Reset()
	q.n = 0
}

// Speculated implements hybster.SpecOutbound: a prepared-but-uncommitted
// fast-flagged request was executed against the shadow. The speculative
// reply mirrors Committed's routing — authenticated by this replica's Troxy,
// then delivered to the origin's voter (in-process when the origin is this
// replica). Baseline mode has no speculative tier: BFT clients vote over
// durable replies only.
func (r *Replica) Speculated(env node.Env, view, seq uint64, batchDigest msg.Digest, req *msg.OrderRequest, result []byte, cert msg.CounterCert) {
	if r.proxy == nil || req.Origin == msg.NoNode {
		return
	}
	sr := &msg.SpecReply{
		Executor:    r.cfg.Self,
		View:        view,
		Seq:         seq,
		BatchDigest: batchDigest,
		Client:      req.Client,
		ClientSeq:   req.ClientSeq,
		ReqDigest:   req.Digest(),
		Result:      result,
		Cert:        cert,
	}
	env.Charge(node.ProfileJava, node.ChargeHash, len(req.Op))
	if err := r.proxy.AuthenticateSpecReply(env, sr); err != nil {
		env.Logf("troxy: authenticate spec reply: %v", err)
		return
	}
	if req.Origin == r.cfg.Self {
		if acts, err := r.proxy.HandleSpecReply(env, sr); err == nil {
			r.apply(env, acts)
		}
		return
	}
	r.sendAuthed(env, req.Origin, sr)
}

// Retracted implements hybster.SpecOutbound: a speculation this replica
// originated was rolled back before the durable tier settled it. The local
// Troxy withdraws the fast answer from its client; the durable re-execution
// (or reply-cache replay) that follows repairs it.
func (r *Replica) Retracted(env node.Env, seq uint64, req *msg.OrderRequest, view uint64) {
	if r.proxy == nil {
		return
	}
	if acts, err := r.proxy.HandleRetract(env, req.Client, req.ClientSeq, seq, view); err == nil {
		r.apply(env, acts)
	}
}
