package faultplane

import (
	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/authn"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
)

// Behavior selects Byzantine misbehaviors for a wrapped replica host.
// Behaviors model what the paper's threat model grants the adversary on a
// compromised replica: full control of the untrusted part — including the
// replica's own transport MAC keys, which it may use to re-seal mutated
// envelopes — but no access to the trusted subsystems, so Troxy group tags
// and counter certificates cannot be forged, only misused, misdirected or
// withheld.
type Behavior uint8

const (
	// CorruptReplies tampers with the Result of every outgoing ordered reply
	// — inside the reply batches they travel in — after the trusted part
	// tagged them. The tag no longer matches, so the voting Troxy discards
	// the reply (Stats.BadReplies) and completes the vote from the remaining
	// correct executors.
	CorruptReplies Behavior = 1 << iota

	// ReplayStaleReplies re-sends each client's previous ordered reply ahead
	// of the current one, in a batch of their own in front of the honest
	// batch. The stale reply carries a valid tag for old content, so it
	// passes tag verification and must be rejected by the voter's
	// request-digest binding.
	ReplayStaleReplies

	// EquivocatePrepares sends semantically mutated PREPARE messages (a
	// tampered batch payload, re-MACed the way a replica MACs a PREPARE so
	// transport accepts it) to peers with higher IDs while staying honest
	// toward the rest — the classic split the trusted counters exist to
	// prevent. Correct receivers reject the stale-certified mutation
	// (RejectedCertsFrom attributes it to this replica) and make progress on
	// honest traffic.
	EquivocatePrepares

	// EquivocateCommits does the same to COMMIT messages (a tampered batch
	// digest).
	EquivocateCommits

	// CorruptStateChunks flips a byte in every outgoing state-transfer
	// chunk. The chunk no longer hashes to the manifest's per-chunk digest,
	// so a fetching replica must reject it (attributed via
	// RejectedCertsFrom) and complete the transfer from another digest
	// voter via its retry/rotation timer.
	CorruptStateChunks

	// EquivocateSpecReplies mutates the Result of outgoing speculative
	// replies toward peers with higher IDs while staying honest toward the
	// rest: the compromised host tells two Troxys two different fast
	// answers for the same counter-certified slot. The counter certificate
	// still binds the slot (the host cannot mint a second one), but the
	// Troxy group tag covers the result, so the mutated copy fails tag
	// verification (Stats.BadReplies) and the speculative quorum can only
	// form on the honest answer.
	EquivocateSpecReplies

	// MisdirectCacheMessages sends a copy of every outgoing cache query and
	// cache reply to each replica it is not addressed to as well. The copies
	// carry valid tags — the host needs none of its own, the cache exchange
	// has no transport MAC — but the tags name the addressee, so every other
	// Troxy must reject them (Stats.BadQueries) instead of answering a query
	// it was not asked or counting a reply toward a pending fast read of its
	// own that happens to have the same query ID.
	MisdirectCacheMessages

	// EquivocateCerts equivocates on both certified ordering messages.
	EquivocateCerts = EquivocatePrepares | EquivocateCommits
)

// Byzantine wraps a replica's handler, impersonating the compromised
// untrusted host: messages the correct core sends are intercepted and
// tampered with according to the selected behaviors.
type Byzantine struct {
	inner node.Handler
	self  msg.NodeID
	auth  *authn.Authenticator
	mode  Behavior

	// lastReply remembers, per client, the previous outgoing ordered reply
	// for ReplayStaleReplies.
	lastReply map[uint64]*msg.OrderedReply

	// n is the group size: MisdirectCacheMessages copies to replicas 0..n-1.
	n int
}

var _ node.Handler = (*Byzantine)(nil)

// NewByzantine wraps inner (the replica with node ID self of a group of n)
// with the given behaviors. dir provides the deployment's key material; the
// wrapper derives the replica's own transport authenticator from it, exactly
// what a compromised host legitimately possesses.
func NewByzantine(inner node.Handler, self msg.NodeID, n int, dir *authn.Directory, mode Behavior) *Byzantine {
	return &Byzantine{
		inner:     inner,
		self:      self,
		auth:      authn.NewAuthenticator(self, dir),
		mode:      mode,
		lastReply: make(map[uint64]*msg.OrderedReply),
		n:         n,
	}
}

// OnStart implements node.Handler.
func (b *Byzantine) OnStart(env node.Env) { b.inner.OnStart(byzEnv{env, b}) }

// OnEnvelope implements node.Handler.
func (b *Byzantine) OnEnvelope(env node.Env, e *msg.Envelope) {
	b.inner.OnEnvelope(byzEnv{env, b}, e)
}

// OnTimer implements node.Handler.
func (b *Byzantine) OnTimer(env node.Env, key node.TimerKey) {
	b.inner.OnTimer(byzEnv{env, b}, key)
}

// byzEnv intercepts the wrapped replica's sends.
type byzEnv struct {
	node.Env
	b *Byzantine
}

func (e byzEnv) Send(env *msg.Envelope) { e.b.send(e.Env, env) }

// sealSend re-encodes and re-MACs a (possibly mutated) message with the
// host's own transport keys — the way a replica does (authn.SealMessage), or
// the mutation would die as a bad transport MAC and never reach the check it
// is there to exercise — then transmits it. A kind a Troxy tags goes without
// a MAC, as a replica sends it.
func (b *Byzantine) sealSend(raw node.Env, to msg.NodeID, m msg.Message) {
	e := msg.Seal(b.self, to, m)
	if !e.Kind.TroxyTagged() {
		b.auth.SealMessage(e, m)
	}
	raw.Send(e)
}

// openCopy decodes e from a private copy of its body. Decoded messages are
// views of the bytes they were decoded from, and e.Body is shared with the
// honest envelope's other holders (every recipient of a broadcast and, under
// the in-process router, the receiver itself): tampering with a view of it
// would rewrite what the correct replica sent.
func openCopy(e *msg.Envelope) (msg.Message, error) {
	return CloneEnvelope(e).Open()
}

// tamperReplies applies the reply behaviors to an outgoing reply batch and
// reports whether it sent a replacement for it.
func (b *Byzantine) tamperReplies(raw node.Env, e *msg.Envelope) bool {
	m, err := openCopy(e)
	if err != nil {
		return false
	}
	batch, ok := m.(*msg.ReplyBatch)
	if !ok {
		return false
	}
	// The replies are views of the private copy openCopy made, which nothing
	// else refers to: they can be kept and mutated.
	var current, stale []*msg.OrderedReply
	for it := batch.Iter(); ; {
		rep := new(msg.OrderedReply)
		if more, _ := it.Next(rep); !more {
			break
		}
		if b.mode&ReplayStaleReplies != 0 {
			if old, ok := b.lastReply[rep.Client]; ok && old.ClientSeq < rep.ClientSeq {
				stale = append(stale, old)
			}
			kept := *rep // the honest reply: rep may be corrupted below
			b.lastReply[rep.Client] = &kept
		}
		if b.mode&CorruptReplies != 0 {
			// Mutate the result but keep the tag: the host cannot re-tag
			// (the group secret lives inside the Troxy), so this is the
			// strongest reply corruption available to it.
			rep.Result = append(append([]byte(nil), rep.Result...), "#byz"...)
		}
		current = append(current, rep)
	}
	if len(stale) > 0 {
		b.sealSend(raw, e.To, msg.NewReplyBatch(stale...))
	}
	if b.mode&CorruptReplies == 0 {
		return false // the honest batch follows its stale shadow
	}
	b.sealSend(raw, e.To, msg.NewReplyBatch(current...))
	return true
}

func (b *Byzantine) send(raw node.Env, e *msg.Envelope) {
	switch e.Kind {
	case msg.KindReplyBatch:
		if b.mode&(CorruptReplies|ReplayStaleReplies) != 0 && b.tamperReplies(raw, e) {
			return
		}
	case msg.KindPrepare:
		if b.mode&EquivocatePrepares == 0 || e.To <= b.self {
			break
		}
		m, err := openCopy(e)
		if err != nil {
			break
		}
		prep, ok := m.(*msg.Prepare)
		if !ok {
			break
		}
		if len(prep.Batch.Reqs) > 0 && len(prep.Batch.Reqs[0].Op) > 0 {
			prep.Batch.Reqs[0].Op[0] ^= 0x01
			b.sealSend(raw, e.To, prep)
			return
		}
	case msg.KindCommit:
		if b.mode&EquivocateCommits == 0 || e.To <= b.self {
			break
		}
		m, err := openCopy(e)
		if err != nil {
			break
		}
		com, ok := m.(*msg.Commit)
		if !ok {
			break
		}
		com.BatchDigest[0] ^= 0x01
		b.sealSend(raw, e.To, com)
		return
	case msg.KindSpecReply:
		if b.mode&EquivocateSpecReplies == 0 || e.To <= b.self {
			break
		}
		m, err := openCopy(e)
		if err != nil {
			break
		}
		sr, ok := m.(*msg.SpecReply)
		if !ok || len(sr.Result) == 0 {
			break
		}
		sr.Result[0] ^= 0x01
		b.sealSend(raw, e.To, sr)
		return
	case msg.KindCacheQuery, msg.KindCacheReply:
		if b.mode&MisdirectCacheMessages == 0 {
			break
		}
		for to := msg.NodeID(0); int(to) < b.n; to++ {
			if to != e.To && to != b.self {
				raw.Send(&msg.Envelope{From: e.From, To: to, Kind: e.Kind, Body: e.Body})
			}
		}
	case msg.KindStateChunk:
		if b.mode&CorruptStateChunks == 0 {
			break
		}
		m, err := openCopy(e)
		if err != nil {
			break
		}
		ch, ok := m.(*msg.StateChunk)
		if !ok || len(ch.Data) == 0 {
			break
		}
		ch.Data[0] ^= 0x01
		b.sealSend(raw, e.To, ch)
		return
	default:
		// The harness only tampers with replies, cache messages and ordering
		// certificates; every other kind passes through untouched below.
	}
	raw.Send(e)
}

// WrongExec wraps an application to model a Byzantine replica whose
// untrusted host executes requests incorrectly: every result is tampered
// with before it reaches the replica's own (correct) Troxy, which therefore
// tags a wrong-but-authentic reply and poisons its own fast-read cache. The
// voting Troxy must mask it by the f+1 matching-reply rule; a poisoned cache
// confirmation must trip the fast-read mismatch fallback. Snapshot, Restore
// and Keys delegate unchanged, so checkpoints and state convergence among
// correct replicas are unaffected.
type WrongExec struct {
	Inner app.Application
	// Marker is appended to every result. Give f+1 replicas the same marker
	// to model collusion that defeats voting (the negative test).
	Marker string
}

var _ app.Application = (*WrongExec)(nil)
var _ app.Forker = (*WrongExec)(nil)

// Execute implements app.Application, corrupting the result.
func (w *WrongExec) Execute(op []byte) []byte {
	return append(append([]byte(nil), w.Inner.Execute(op)...), w.Marker...)
}

// IsRead implements app.Application.
func (w *WrongExec) IsRead(op []byte) bool { return w.Inner.IsRead(op) }

// Keys implements app.Application.
func (w *WrongExec) Keys(op []byte) []string { return w.Inner.Keys(op) }

// Snapshot implements app.Application.
func (w *WrongExec) Snapshot() []byte { return w.Inner.Snapshot() }

// Restore implements app.Application.
func (w *WrongExec) Restore(snap []byte) error { return w.Inner.Restore(snap) }

// Fork implements app.Forker (Inner must too): the fork executes as wrongly.
func (w *WrongExec) Fork() app.Application {
	return &WrongExec{Inner: w.Inner.(app.Forker).Fork(), Marker: w.Marker}
}
