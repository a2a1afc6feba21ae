// Package hybster implements a Hybster-style hybrid Byzantine fault-tolerant
// state-machine replication protocol: a leader-based ordering protocol that
// tolerates f Byzantine faults with only 2f+1 replicas by certifying every
// ordering statement with a trusted monotonic counter (internal/tcounter).
//
// Protocol outline (following Hybster/MinBFT):
//
//   - The leader of view v assigns sequence numbers by certifying
//     (v, seq, request digest) with its ordering counter and broadcasting a
//     PREPARE. Counter monotonicity plus the followers' continuity check
//     (values must be consecutive) make equivocation and sequence-number
//     holes impossible.
//   - Followers acknowledge with COMMITs certified by their own counters.
//     A request is committed once f+1 distinct replicas have certified it
//     (the PREPARE counts as the leader's COMMIT); committed requests are
//     executed in sequence order.
//   - Every checkpoint-interval requests, replicas exchange CHECKPOINTs;
//     f+1 matching digests make a checkpoint stable and allow log
//     truncation. Replicas that fell behind fetch the stable snapshot from
//     a peer and verify it against the agreed digest.
//   - If a replica suspects the leader (a locally submitted request misses
//     its deadline), it certifies and broadcasts a VIEW-CHANGE carrying its
//     prepared-but-unstable entries; the new leader installs the view with
//     a NEW-VIEW justified by f+1 VIEW-CHANGEs and re-proposes the union of
//     their prepared entries (filling gaps with no-ops).
//
// The package contains only the protocol state machine; replica composition
// (message authentication, the Troxy, connection handling) lives in
// internal/replica.
package hybster

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"iter"
	"math/bits"
	"slices"
	"time"

	"github.com/troxy-bft/troxy/internal/app"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/node"
	"github.com/troxy-bft/troxy/internal/tcounter"
	"github.com/troxy-bft/troxy/internal/wire"
)

// Config parameterizes a replica's protocol core.
type Config struct {
	// Self is this replica's ID; replicas are numbered 0..N-1.
	Self msg.NodeID

	// N is the number of replicas (N = 2F+1).
	N int

	// F is the number of tolerated faults.
	F int

	// CheckpointInterval is the number of sequence numbers between
	// checkpoints. Zero means 128.
	CheckpointInterval uint64

	// ViewChangeTimeout is how long a locally submitted request may stay
	// unexecuted before the replica suspects the leader. Zero means 2s.
	ViewChangeTimeout time.Duration

	// BatchSize is the maximum number of requests ordered per
	// PREPARE/COMMIT round. The leader cuts a batch as soon as it holds
	// BatchSize requests. Zero or one disables batching (each request is
	// proposed individually, the seed behavior).
	BatchSize int

	// BatchDelay bounds how long the leader may hold an underfull batch
	// before cutting it anyway. Zero means an underfull batch is cut
	// immediately, so batches larger than one form only when several
	// requests arrive within one handler invocation.
	BatchDelay time.Duration

	// PipelineDepth bounds how many batches the leader keeps in flight
	// (certified and broadcast but not yet executed) and sets the number of
	// certification lanes, which let followers certify COMMITs for
	// in-window sequence numbers out of order (tcounter.OrderLaneCounter).
	// The window acts as PBFT-style low/high water marks: the low mark is
	// the last executed sequence number, the high mark trails it by
	// PipelineDepth, and the window slides as commit application advances.
	// Zero (the default) keeps the unpipelined behavior: a single ordering
	// counter per view, strictly in-order dissemination, and no in-flight
	// limit. Like N and F, all replicas must be configured with the same
	// value — it determines the counter IDs on the wire.
	PipelineDepth int

	// Profile attributes the protocol host's CPU costs (Java for the
	// original Hybster implementation).
	Profile node.Profile

	// Authority is the trusted-counter subsystem.
	Authority tcounter.Authority

	// App is the replicated application.
	App app.Application

	// Speculate enables the speculative crash-commit fast path (spec.go):
	// the contiguous prepared-but-uncommitted log prefix is executed ahead of
	// durable commitment on a fork of App (which must be an app.Forker), and
	// requests flagged msg.FlagFastCommit are answered from it with this
	// replica's PREPARE-round counter certificate attached.
	Speculate bool

	// SnapshotChunkSize bounds a chunk of a checkpoint snapshot and of
	// state transfer, in bytes: a chunk is a run of whole records and only
	// a single larger record exceeds it. Zero means 64 KiB. Like N and F it
	// must be identical on all replicas: it shapes the chunk manifest whose
	// digest CHECKPOINT votes agree on.
	SnapshotChunkSize int

	// StateChunkWindow bounds how many chunks a state-transferring replica
	// requests (and buffers out of order) at a time; peak extra fetch
	// memory is StateChunkWindow × SnapshotChunkSize regardless of total
	// state size. Zero means 16.
	StateChunkWindow int

	// StateFetchTimeout is the base re-request timeout for an unanswered
	// state-transfer round; retries back off exponentially with jitter and
	// rotate across the peers that voted the stable digest. Zero means
	// 400ms.
	StateFetchTimeout time.Duration
}

// Quorum is the certificate size: f+1 distinct replicas suffice because
// trusted counters remove equivocation (Section II — hybrid fault model
// quorums, not PBFT's 2f+1). Every vote-count comparison goes through this
// helper.
func (c Config) Quorum() int { return c.F + 1 }

// Outbound receives the core's outputs. Implementations route messages
// through the replica's authenticated transport and deliver execution
// results to the reply path (Troxy voter or BFT client).
type Outbound interface {
	// Send transmits a protocol message to a peer replica. m is valid for the
	// call only where it is a FORWARD: the core sends every FORWARD from one
	// value it owns, so an implementation that keeps what it is sent beyond
	// the call keeps a copy of a FORWARD.
	Send(env node.Env, to msg.NodeID, m msg.Message)

	// Committed reports the execution of a request. keys lists the state
	// parts the operation touched: for writes the Troxy invalidates cache
	// entries under them, for reads the voting Troxy indexes the cache
	// entry it installs. fresh distinguishes a first execution from a
	// reply-cache replay answering a client retransmission: a replayed read
	// result may predate later writes and must not repopulate any cache.
	Committed(env node.Env, seq uint64, req *msg.OrderRequest, result []byte, keys []string, read, fresh bool)
}

// Broadcaster is an optional extension of Outbound. An Outbound that also
// implements it receives a message meant for every peer once, and can encode
// it once and authenticate it per recipient; one that does not gets a Send
// per peer.
type Broadcaster interface {
	// Broadcast transmits m to every replica but this one, in ID order.
	Broadcast(env node.Env, m msg.Message)
}

// broadcast sends m to every other replica.
func (c *Core) broadcast(env node.Env, m msg.Message) {
	if b, ok := c.out.(Broadcaster); ok {
		b.Broadcast(env, m)
		return
	}
	for i := 0; i < c.cfg.N; i++ {
		if to := msg.NodeID(i); to != c.cfg.Self {
			c.out.Send(env, to, m)
		}
	}
}

// Metrics counts protocol events for tests and experiments. Proposed and
// Executed count individual requests; Batches counts PREPARE/COMMIT rounds,
// so Proposed/Batches is the achieved amortization factor.
type Metrics struct {
	Proposed       uint64
	Batches        uint64
	Committed      uint64
	Executed       uint64
	ViewChanges    uint64
	StableSeq      uint64
	StateTransfers uint64
	RejectedCerts  uint64

	// UnverifiedCerts counts PREPAREs and COMMITs dropped because their
	// certificate proves nothing about who sent them: it does not verify over
	// the message's own view, sequence number and batch digest, or it names
	// another replica than the envelope's sender. These kinds carry no host
	// MAC (DESIGN.md decision 17), so such a message blames nobody — a frame
	// corrupted on the wire looks the same as a forgery — and RejectedCerts
	// does not count it.
	UnverifiedCerts uint64

	// WindowStalls counts the times the leader had a due batch but the
	// in-flight window was full; OutOfOrderPrepares counts PREPAREs a
	// follower accepted below the highest sequence number it had already
	// accepted in the view. Both stay zero with PipelineDepth == 0.
	WindowStalls       uint64
	OutOfOrderPrepares uint64

	// Chunked state transfer (statesync.go). StateChunksServed counts
	// chunks sent to fetching peers; StateChunksReceived counts chunks a
	// fetch accepted; StateChunkRejects counts chunks refused (wrong
	// digest, wrong length, out of window). StateFetchRetries counts fetch
	// timer firings that re-requested, StateFetchRotations the peer
	// switches among the digest voters. MaxFetchBufferBytes is the peak
	// bytes held in the out-of-order chunk window — the soak asserts it
	// stays bounded by StateChunkWindow × SnapshotChunkSize, not state
	// size. PrefixEntriesInstalled counts certified-prefix entries
	// re-admitted after an install; PrefixResumes counts installs that
	// admitted at least one. CommitResyncs counts commit-continuity jumps
	// for peers whose counter stream we lost across their state transfer.
	StateChunksServed      uint64
	StateChunksReceived    uint64
	StateChunkRejects      uint64
	StateFetchRetries      uint64
	StateFetchRotations    uint64
	MaxFetchBufferBytes    uint64
	PrefixEntriesInstalled uint64
	PrefixResumes          uint64
	CommitResyncs          uint64

	// View synchronization for replicas that slept through a view change (a
	// NEW-VIEW is broadcast once; a replica crashed or partitioned at that
	// moment never sees it and nothing retransmits it). ViewSolicits counts
	// NEW-VIEW solicitations sent after deferring a certified message from a
	// future view; NewViewRelays counts solicitations this replica answered
	// with its stored NEW-VIEW; ViewAdoptions counts views this replica
	// installed without having voted a VIEW-CHANGE for them — i.e. views
	// learned from relayed or state-transfer evidence rather than joined
	// live.
	ViewSolicits  uint64
	NewViewRelays uint64
	ViewAdoptions uint64

	// Speculative fast path (spec.go). Speculated counts fast-flagged
	// requests answered from the shadow; SpecConfirmed counts those later
	// settled by durable execution; SpecRetractions counts speculations
	// withdrawn by a rollback before settling. SpecRollbacks counts shadow
	// re-anchors (view installs, state-transfer installs, divergences);
	// SpecDivergences counts the subset where durable execution found a
	// different batch at a speculated slot — the speculation actually *lost*,
	// rather than being conservatively re-anchored.
	Speculated      uint64
	SpecConfirmed   uint64
	SpecRetractions uint64
	SpecRollbacks   uint64
	SpecDivergences uint64
}

type entry struct {
	view     uint64
	seq      uint64
	batch    msg.Batch  // owned by the log; its requests carry their digests
	digest   msg.Digest // combined batch digest
	hasPrep  bool
	prepCert msg.CounterCert
	// prepMAC is where prepCert's MAC lies when the certificate came in a
	// PREPARE, whose bytes are the transport's: the entry owns the copy.
	prepMAC  [sha256.Size]byte
	vouchers uint64 // bit i: replica i certified the batch at this slot
	executed bool

	// specCert is the certificate a SpecReply for this batch carries: the
	// prepare cert when this replica leads the entry's view, this replica's
	// own commit cert otherwise. Both bind (view, seq, batchDigest) through
	// the trusted counter.
	specCert    msg.CounterCert
	hasSpecCert bool
}

type clientRecord struct {
	lastSeq   uint64
	result    []byte
	keys      []string
	read      bool
	reqDigest msg.Digest
	seq       uint64
}

// requestID is how a client names a request; the progress watch and the
// outstanding speculations are kept by it.
type requestID struct{ client, clientSeq uint64 }

func idOf(req *msg.OrderRequest) requestID { return requestID{req.Client, req.ClientSeq} }

// watched is the progress watch's entry for one requestID: the request
// submitted under it, which the core owns. A client that reuses a sequence
// number for a different operation has two requests pending under one ID, and
// each is ordered, skipped or executed, and cleared for itself: more holds the
// others.
type watched struct {
	req  *msg.OrderRequest
	more []*msg.OrderRequest
}

// all yields every request watched under the ID.
func (w watched) all() iter.Seq[*msg.OrderRequest] {
	return func(yield func(*msg.OrderRequest) bool) {
		if w.req == nil || !yield(w.req) {
			return
		}
		for _, held := range w.more {
			if !yield(held) {
				return
			}
		}
	}
}

// without returns w less the request with the given digest, and whether it
// had one.
func (w watched) without(digest msg.Digest) (watched, bool) {
	if w.req != nil && w.req.Digest() == digest {
		if len(w.more) == 0 {
			return watched{}, true
		}
		return watched{req: w.more[0], more: w.more[1:]}, true
	}
	for i, held := range w.more {
		if held.Digest() == digest {
			return watched{req: w.req, more: slices.Delete(w.more, i, i+1)}, true
		}
	}
	return w, false
}

type deferredMsg struct {
	from msg.NodeID
	view uint64
	m    msg.Message
}

// maxDeferred bounds the future-view holdback buffer.
const maxDeferred = 4096

// maxReplicas bounds N: an entry keeps the replicas that vouched for it as one
// bit each (entry.vouchers). troxy.MaxReplicas is the same bound, for the
// same reason, on the reply voter's side.
const maxReplicas = 64

// vouch records that replica id certified the entry's batch. An id that is
// no replica of the group sets no bit.
func (e *entry) vouch(id msg.NodeID, n int) {
	if id >= 0 && int(id) < n {
		e.vouchers |= 1 << uint(id)
	}
}

// vouched is the number of replicas that certified the entry's batch.
func (e *entry) vouched() int { return bits.OnesCount64(e.vouchers) }

// keepPrepCert makes cert the entry's prepare certificate, its MAC copied into
// prepMAC: cert is a view of the PREPARE that brought it. A certificate that
// verified has a MAC of exactly that size (tcounter.Subsystem.Verify). The
// array is overwritten when the slot is prepared again in a later view, so
// whoever hands prepCert out of the entry clones it (preparedAbove).
func (e *entry) keepPrepCert(cert msg.CounterCert) {
	e.prepCert = cert
	e.prepCert.MAC = e.prepMAC[:copy(e.prepMAC[:], cert.MAC)]
}

// Core is the protocol state machine of one replica. It is not safe for
// concurrent use; the hosting node.Handler serializes access.
type Core struct {
	cfg Config
	out Outbound

	view    uint64
	inVC    bool
	seqNext uint64 // next sequence number to propose (leader only)

	lastExec  uint64
	stableSeq uint64
	// stableDigest/stableChunks describe the last stable checkpoint.
	// stableChunks is nil when this replica cannot serve it (it installed
	// the checkpoint via state transfer without retaining the composite, or
	// its own state diverged from the agreed digest).
	stableDigest msg.Digest
	stableChunks *chunkedSnapshot

	log map[uint64]*entry

	// Continuity tracking for the current view, one slot per certification
	// lane (a single slot when PipelineDepth == 0): the next counter value
	// expected on each lane. Within a lane consecutive certificates step by
	// exactly the lane count, so hole-freedom holds lane by lane.
	nextPrepareValue []uint64
	pendingPrepares  map[uint64]*msg.Prepare
	nextCommitValue  map[msg.NodeID][]uint64
	pendingCommits   map[msg.NodeID]map[uint64]*msg.Commit

	// maxAcceptedPrep is the highest sequence number accepted via PREPARE
	// in the current view; accepting below it means the pipeline delivered
	// out of order (metrics.OutOfOrderPrepares).
	maxAcceptedPrep uint64

	// Checkpoint votes: seq -> replica -> digest.
	checkpoints map[uint64]map[msg.NodeID]msg.Digest
	// ownCheckpoints retains this replica's chunked snapshots per unstable
	// checkpoint seq so a stable one can be served to lagging peers.
	ownCheckpoints map[uint64]*chunkedSnapshot

	// Client dedup and reply retransmission.
	clients map[uint64]*clientRecord

	// Requests queued while a view change is in progress.
	queued []*msg.OrderRequest

	// fwd is the FORWARD every Submit sends: Outbound.Send is done with it
	// when it returns.
	fwd msg.Forward

	// batchBuf accumulates requests on the leader until the batch is cut
	// (full, or the BatchDelay timer fires); each batch cut from it keeps its
	// part of the array as the log entry's request slice, so the accumulator
	// is allocated a batch's worth at a time. The hosting node.Handler
	// serializes access, so no locking is needed. batchDue marks the
	// accumulator as ready to propose: the pump drains it in batch-size
	// chunks as the in-flight window frees up. pumping breaks the
	// pump -> propose -> commit -> execute -> pump recursion.
	batchBuf []msg.OrderRequest
	batchDue bool
	pumping  bool

	// Locally submitted requests not yet executed (leader-progress watch,
	// and re-submission after a view change), by the name a client gives
	// them: that is how a follower finds its own request in the leader's
	// PREPARE without hashing it first (AdoptHeld).
	pendingLocal map[requestID]watched

	// In-flight proposals by request digest (leader-side retransmission
	// dedup); cleared on execution and view change.
	proposed map[msg.Digest]struct{}

	// View change state. vcVoted is the highest view this replica has
	// certified a VIEW-CHANGE for.
	vcs     map[uint64]map[msg.NodeID]*ViewChange
	vcVoted uint64

	// curNewView retains the NEW-VIEW that installed the current view (nil
	// in the initial view), for two consumers: state-transfer prefixes carry
	// it so a joiner adopts the view with the snapshot, and NewViewRequest
	// solicitations from stale replicas are answered with it. vcSolicited is
	// the highest view this replica has solicited evidence for;
	// deferSinceSolicit counts deferrals since, so a lost solicitation is
	// eventually retried while higher-view traffic keeps arriving.
	curNewView        *NewView
	vcSolicited       uint64
	deferSinceSolicit int

	// deferred holds messages for future views until the view is installed
	// (the network may reorder a NEW-VIEW behind the new leader's first
	// PREPAREs).
	deferred []deferredMsg

	// State transfer (statesync.go): the in-progress chunked fetch, nil
	// when idle.
	fetch *stateFetch

	// Speculative fast path (spec.go). shadow is the fork of cfg.App that
	// speculation executes on (nil: fast path off) and specExec its
	// execution frontier (always >= lastExec); specLog maps each speculated
	// slot to the batch digest the shadow ran there, checked against the
	// durable batch at execution time; specClients is the shadow's dedup
	// table; specOut tracks fast-answered requests not yet durably settled,
	// so a rollback knows what to retract. specStale marks a detected
	// divergence for rollback once the current execution run completes.
	shadow      app.Application
	specExec    uint64
	specLog     map[uint64]msg.Digest
	specClients map[uint64]uint64
	specOut     map[requestID]*specRecord
	specStale   bool

	metrics Metrics

	// rejectedBy attributes certificate rejections to the claimed message
	// source, so fault-injection suites can separate expected rejections (a
	// Byzantine peer's tampered messages) from protocol bugs (a correct
	// peer's certificate refused).
	rejectedBy map[msg.NodeID]uint64
}

const (
	defaultCheckpointInterval = 128
	defaultViewChangeTimeout  = 2 * time.Second
	defaultSnapshotChunkSize  = 64 << 10
	defaultStateChunkWindow   = 16
	defaultStateFetchTimeout  = 400 * time.Millisecond
)

// timer kinds
const (
	timerProgress = "hybster/progress"
	timerBatch    = "hybster/batch"
	timerFetch    = "hybster/fetch"
)

// New creates a protocol core.
func New(cfg Config, out Outbound) *Core {
	if cfg.N != 2*cfg.F+1 {
		panic(fmt.Sprintf("hybster: N=%d must equal 2F+1 (F=%d)", cfg.N, cfg.F))
	}
	if cfg.N > maxReplicas {
		panic(fmt.Sprintf("hybster: N=%d exceeds %d replicas", cfg.N, maxReplicas))
	}
	if cfg.CheckpointInterval == 0 {
		cfg.CheckpointInterval = defaultCheckpointInterval
	}
	if cfg.ViewChangeTimeout == 0 {
		cfg.ViewChangeTimeout = defaultViewChangeTimeout
	}
	if cfg.SnapshotChunkSize <= 0 {
		cfg.SnapshotChunkSize = defaultSnapshotChunkSize
	}
	if cfg.StateChunkWindow <= 0 {
		cfg.StateChunkWindow = defaultStateChunkWindow
	}
	if cfg.StateFetchTimeout <= 0 {
		cfg.StateFetchTimeout = defaultStateFetchTimeout
	}
	c := &Core{
		cfg:             cfg,
		out:             out,
		seqNext:         1,
		log:             make(map[uint64]*entry),
		pendingPrepares: make(map[uint64]*msg.Prepare),
		nextCommitValue: make(map[msg.NodeID][]uint64),
		pendingCommits:  make(map[msg.NodeID]map[uint64]*msg.Commit),
		checkpoints:     make(map[uint64]map[msg.NodeID]msg.Digest),
		ownCheckpoints:  make(map[uint64]*chunkedSnapshot),
		clients:         make(map[uint64]*clientRecord),
		pendingLocal:    make(map[requestID]watched),
		vcs:             make(map[uint64]map[msg.NodeID]*ViewChange),
		proposed:        make(map[msg.Digest]struct{}),
		specLog:         make(map[uint64]msg.Digest),
		specClients:     make(map[uint64]uint64),
		specOut:         make(map[requestID]*specRecord),
	}
	if cfg.Speculate {
		c.shadow = cfg.App.(app.Forker).Fork()
	}
	c.resetContinuity(1)
	return c
}

// View returns the current view number.
func (c *Core) View() uint64 { return c.view }

// Leader returns the leader of the given view.
func (c *Core) Leader(view uint64) msg.NodeID { return msg.NodeID(view % uint64(c.cfg.N)) }

// IsLeader reports whether this replica leads the current view.
func (c *Core) IsLeader() bool { return c.Leader(c.view) == c.cfg.Self }

// LastExecuted returns the highest executed sequence number.
func (c *Core) LastExecuted() uint64 { return c.lastExec }

// Metrics returns a copy of the protocol counters.
func (c *Core) Metrics() Metrics { return c.metrics }

// rejectCert counts a rejected certificate and attributes it to the source of
// the carrying message: the sender a host MAC authenticated, or for a PREPARE
// or COMMIT the replica its verified certificate names, which it misused.
func (c *Core) rejectCert(from msg.NodeID) {
	c.metrics.RejectedCerts++
	if c.rejectedBy == nil {
		c.rejectedBy = make(map[msg.NodeID]uint64)
	}
	c.rejectedBy[from]++
}

// RejectedCertsFrom returns how many certificates carried by messages from
// source were rejected (see rejectCert).
func (c *Core) RejectedCertsFrom(source msg.NodeID) uint64 { return c.rejectedBy[source] }

// quorum is the certificate size, delegated to the canonical Config helper.
func (c *Core) quorum() int { return c.cfg.Quorum() }

// orderDigest is the statement a PREPARE or COMMIT certificate binds: a
// domain label, the slot and the batch digest, built on the stack.
func orderDigest(label string, view, seq uint64, batchDigest msg.Digest) msg.Digest {
	var buf [4 + len("hybster-prepare") + 8 + 8 + len(batchDigest)]byte
	b := wire.AppendString(buf[:0], label)
	b = binary.LittleEndian.AppendUint64(b, view)
	b = binary.LittleEndian.AppendUint64(b, seq)
	return sha256.Sum256(append(b, batchDigest[:]...))
}

func prepareDigest(view, seq uint64, batchDigest msg.Digest) msg.Digest {
	return orderDigest("hybster-prepare", view, seq, batchDigest)
}

func commitDigest(view, seq uint64, batchDigest msg.Digest) msg.Digest {
	return orderDigest("hybster-commit", view, seq, batchDigest)
}

// chargeCounterOp accounts the cost of one trusted-counter operation: a JNI
// crossing from the Java host, an enclave transition, and a short HMAC.
func (c *Core) chargeCounterOp(env node.Env) {
	env.Charge(c.cfg.Profile, node.ChargeJNI, 48)
	env.Charge(c.cfg.Profile, node.ChargeTransition, 48)
	env.Charge(c.cfg.Profile, node.ChargeMAC, 48)
}

// Submit hands a client request to the ordering protocol. Origin must be set
// to the node that votes over the replies. Duplicate requests (same client,
// same or older sequence number) are answered from the reply cache. The core
// keeps req — the progress watch, the batch accumulator and the log entry it
// is ordered in share its operation bytes — so the caller gives it up: it owns
// req's bytes when it calls (a copy-out of the ecall boundary does; an
// operation decoded by view is copied by whoever submits it) and neither reads
// nor writes req afterwards.
func (c *Core) Submit(env node.Env, req *msg.OrderRequest) {
	if rec, ok := c.clients[req.Client]; ok && req.ClientSeq <= rec.lastSeq {
		if req.ClientSeq == rec.lastSeq {
			// Retransmission: replay the cached reply locally, and let the
			// peers replay theirs too — the origin's voter needs f+1 fresh
			// replies, not just ours.
			c.out.Committed(env, rec.seq, req, rec.result, rec.keys, rec.read, false)
			c.fwd.Req = *req
			c.broadcast(env, &c.fwd)
		}
		return
	}
	if c.inVC {
		c.queued = append(c.queued, req)
		return
	}
	digest := req.Digest()
	env.Charge(c.cfg.Profile, node.ChargeHash, len(req.Op))
	// The progress watch holds the request; on the leader the batch
	// accumulator shares it. A retransmission finds it already there, and
	// must not reset the suspicion deadline either — a dead leader would
	// never be suspected while the client keeps retrying.
	var held *msg.OrderRequest
	for h := range c.pendingLocal[idOf(req)].all() {
		if h.Digest() == digest {
			held = h
			break
		}
	}
	if held == nil {
		held = req
		c.watchProgress(env, held)
	}
	if c.IsLeader() {
		c.enqueue(env, held, digest)
		return
	}
	c.fwd.Req = *held
	c.out.Send(env, c.Leader(c.view), &c.fwd)
}

// watchProgress arms the leader-suspicion timer for a locally submitted
// request, which it keeps (re-submission after a view change).
func (c *Core) watchProgress(env node.Env, req *msg.OrderRequest) {
	if len(c.pendingLocal) == 0 {
		env.SetTimer(c.cfg.ViewChangeTimeout, node.TimerKey{Kind: timerProgress})
	}
	w := c.pendingLocal[idOf(req)]
	if w.req == nil {
		w.req = req
	} else {
		w.more = append(w.more, req)
	}
	c.pendingLocal[idOf(req)] = w
}

// clearProgress takes an executed (or skipped) request off the progress watch,
// if this replica submitted it.
func (c *Core) clearProgress(env node.Env, req *msg.OrderRequest, digest msg.Digest) {
	id := idOf(req)
	w, found := c.pendingLocal[id].without(digest)
	if !found {
		return
	}
	if w.req == nil {
		delete(c.pendingLocal, id)
	} else {
		c.pendingLocal[id] = w
	}
	if len(c.pendingLocal) == 0 {
		env.CancelTimer(node.TimerKey{Kind: timerProgress})
	} else {
		env.SetTimer(c.cfg.ViewChangeTimeout, node.TimerKey{Kind: timerProgress})
	}
}

// AdoptHeld lets a follower recognise its own requests in a PREPARE it has
// decoded and not yet authenticated: a request of b that equals, field by
// field and byte by byte, one this replica submitted and still watches becomes
// that request — its digest, which the transport MAC, the batch digest and the
// certificate check then run on without the operation being hashed again, and
// its bytes, which the replica owns already and log admission therefore does
// not copy. The digest is a function of exactly the fields compared, so every
// check sees the value hashing would have produced; a request that differs in
// one byte is a different request, hashed and admitted like a stranger's.
func (c *Core) AdoptHeld(b *msg.Batch) {
	if len(c.pendingLocal) == 0 {
		return
	}
	for i := range b.Reqs {
		req := &b.Reqs[i]
		for held := range c.pendingLocal[idOf(req)].all() {
			if held.Origin == req.Origin && held.Flags == req.Flags && bytes.Equal(held.Op, req.Op) {
				*req = *held
				break
			}
		}
	}
}

// holds reports whether req's operation is, byte for byte in memory, that of a
// request on the progress watch: AdoptHeld put it there.
func (c *Core) holds(req *msg.OrderRequest) bool {
	for held := range c.pendingLocal[idOf(req)].all() {
		if n := len(req.Op); n > 0 && n == len(held.Op) && &held.Op[0] == &req.Op[0] {
			return true
		}
	}
	return false
}

// OnTimer must be called by the host for timers with the "hybster/" prefix.
func (c *Core) OnTimer(env node.Env, key node.TimerKey) {
	switch key.Kind {
	case timerProgress:
		if len(c.pendingLocal) > 0 && !c.inVC {
			env.Logf("hybster: leader %d suspected, moving to view %d", c.Leader(c.view), c.view+1)
			c.startViewChange(env, c.view+1)
		}
	case timerBatch:
		c.cutBatch(env)
	case timerFetch:
		c.onFetchTimer(env)
	case timerViewChange:
		c.onViewChangeTimer(env, key.ID)
	}
}

// OwnsTimer reports whether a timer key belongs to the protocol core.
func OwnsTimer(key node.TimerKey) bool {
	return len(key.Kind) >= 8 && key.Kind[:8] == "hybster/"
}

// OnMessage must be called by the host for every authenticated peer message it
// does not handle itself. It reports whether m is of a kind the core handles
// (ordering, checkpoints, state transfer, view change); any other changes nothing.
func (c *Core) OnMessage(env node.Env, from msg.NodeID, m msg.Message) bool {
	switch m := m.(type) {
	case *msg.Forward:
		c.OnForward(env, from, m)
	case *msg.Prepare:
		c.OnPrepare(env, from, m)
	case *msg.Commit:
		c.OnCommit(env, from, m)
	case *msg.Checkpoint:
		c.OnCheckpoint(env, from, m)
	case *ViewChange:
		c.OnViewChange(env, from, m)
	case *NewView:
		c.OnNewView(env, from, m)
	case *StateRequest:
		c.OnStateRequest(env, from, m)
	case *StateReply:
		c.OnStateReply(env, from, m)
	case *StateChunk:
		c.OnStateChunk(env, from, m)
	case *StatePrefix:
		c.OnStatePrefix(env, from, m)
	case *NewViewRequest:
		c.OnNewViewRequest(env, from, m)
	default:
		return false
	}
	return true
}

// batchSize returns the effective batch-size limit (at least one).
func (c *Core) batchSize() int {
	if c.cfg.BatchSize < 1 {
		return 1
	}
	return c.cfg.BatchSize
}

// lanes returns the number of certification lanes (one when unpipelined).
func (c *Core) lanes() int {
	if c.cfg.PipelineDepth < 1 {
		return 1
	}
	return c.cfg.PipelineDepth
}

// laneCounter returns the ordering-counter ID that must certify seq in view.
func (c *Core) laneCounter(view, seq uint64) uint32 {
	return tcounter.OrderLaneCounter(view,
		tcounter.LaneOf(seq, c.cfg.PipelineDepth), c.cfg.PipelineDepth)
}

// inFlight is the number of sequence numbers this leader has proposed but
// not yet executed: the distance between the window's high and low marks.
func (c *Core) inFlight() uint64 {
	if c.seqNext <= c.lastExec+1 {
		return 0 // state transfer can move lastExec past our proposals
	}
	return c.seqNext - 1 - c.lastExec
}

// windowFree reports whether the leader may propose another batch.
func (c *Core) windowFree() bool {
	if c.cfg.PipelineDepth < 1 {
		return true // unpipelined: no in-flight limit
	}
	return c.inFlight() < uint64(c.cfg.PipelineDepth)
}

// laneCeil returns the smallest sequence number >= start that belongs to
// lane l. start must be positive.
func laneCeil(start uint64, l, lanes int) uint64 {
	return start + uint64((l+lanes-int((start-1)%uint64(lanes)))%lanes)
}

// resetContinuity restarts the per-lane continuity expectations so that the
// next acceptable value on every lane is the smallest lane member >= startSeq
// (view installation, and initial state with startSeq 1).
func (c *Core) resetContinuity(startSeq uint64) {
	lanes := c.lanes()
	c.nextPrepareValue = make([]uint64, lanes)
	for l := 0; l < lanes; l++ {
		c.nextPrepareValue[l] = laneCeil(startSeq, l, lanes)
	}
	for i := 0; i < c.cfg.N; i++ {
		vals := make([]uint64, lanes)
		for l := 0; l < lanes; l++ {
			vals[l] = laneCeil(startSeq, l, lanes)
		}
		c.nextCommitValue[msg.NodeID(i)] = vals
	}
}

// advanceContinuity raises lagging lane expectations past seq without
// lowering any lane that already progressed further (state transfer: ordered
// messages at or below the snapshot point are obsolete, later ones are not).
func (c *Core) advanceContinuity(seq uint64) {
	lanes := c.lanes()
	for l := 0; l < lanes; l++ {
		if v := laneCeil(seq+1, l, lanes); c.nextPrepareValue[l] < v {
			c.nextPrepareValue[l] = v
		}
	}
	for _, vals := range c.nextCommitValue {
		for l := 0; l < lanes; l++ {
			if v := laneCeil(seq+1, l, lanes); vals[l] < v {
				vals[l] = v
			}
		}
	}
}

// enqueue adds a request to the leader's batch accumulator and cuts the
// batch per the cut policy (full, or delay expired). Re-submissions of an
// in-flight digest are suppressed (retransmissions may reach the leader
// through several forwarders). The accumulator — and the log entry the
// request is proposed in — keeps req's operation bytes, so the caller passes
// a request that owns them.
func (c *Core) enqueue(env node.Env, req *msg.OrderRequest, digest msg.Digest) {
	if req.Origin != msg.NoNode {
		if _, inFlight := c.proposed[digest]; inFlight {
			return
		}
		c.proposed[digest] = struct{}{}
	}
	if len(c.batchBuf) == cap(c.batchBuf) {
		c.batchBuf = slices.Grow(c.batchBuf, c.batchSize())
	}
	c.batchBuf = append(c.batchBuf, *req)
	if len(c.batchBuf) >= c.batchSize() || c.cfg.BatchDelay <= 0 {
		c.cutBatch(env)
		return
	}
	if len(c.batchBuf) == 1 {
		env.SetTimer(c.cfg.BatchDelay, node.TimerKey{Kind: timerBatch})
	}
}

// cutBatch marks the accumulator due and pumps as much of it as the
// in-flight window allows; the remainder is proposed when executing batches
// release window slots.
func (c *Core) cutBatch(env node.Env) {
	if len(c.batchBuf) == 0 {
		return
	}
	c.batchDue = true
	c.pump(env)
}

// pump proposes due requests in batch-size chunks while the in-flight window
// has room. It is the single choke point between the batch accumulator and
// proposeBatch, called both when a batch is cut and when execution advances
// the window's low mark. The pumping flag breaks the recursion through
// proposeBatch -> tryCommit -> executeReady -> pump (a proposal can commit
// immediately when N == 1 quorums or buffered votes are already present).
func (c *Core) pump(env node.Env) {
	if c.pumping {
		return
	}
	c.pumping = true
	defer func() { c.pumping = false }()
	for c.batchDue && len(c.batchBuf) > 0 {
		if !c.windowFree() {
			c.metrics.WindowStalls++
			return // executeReady re-pumps when the low mark advances
		}
		n := c.batchSize()
		if n > len(c.batchBuf) {
			n = len(c.batchBuf)
		}
		chunk := c.batchBuf[:n:n]
		c.batchBuf = c.batchBuf[n:]
		c.proposeBatch(env, msg.Batch{Reqs: chunk})
	}
	if len(c.batchBuf) == 0 {
		c.batchBuf = nil
		c.batchDue = false
		env.CancelTimer(node.TimerKey{Kind: timerBatch})
	}
}

// flushBatchBuf moves accumulated-but-unproposed requests back to the
// queue (view change: the new view's leader must drive them).
func (c *Core) flushBatchBuf(env node.Env) {
	if len(c.batchBuf) == 0 {
		return
	}
	env.CancelTimer(node.TimerKey{Kind: timerBatch})
	for i := range c.batchBuf {
		req := c.batchBuf[i]
		c.queued = append(c.queued, &req)
	}
	c.batchBuf = nil
	c.batchDue = false
}

// proposeBatch assigns the next sequence number to a batch (leader only):
// one trusted-counter certification and one PREPARE covers every request in
// it. An empty batch is a view-change gap filler. The log entry keeps batch,
// which therefore owns its request slice and operation bytes.
func (c *Core) proposeBatch(env node.Env, batch msg.Batch) {
	seq := c.seqNext
	c.seqNext++
	digest := batch.Digest() // the requests carry theirs from Submit/OnForward
	cert, err := c.cfg.Authority.Certify(c.laneCounter(c.view, seq), seq, prepareDigest(c.view, seq, digest))
	c.chargeCounterOp(env)
	if err != nil {
		env.Logf("hybster: certify prepare seq %d: %v", seq, err)
		return
	}
	for i := range batch.Reqs {
		if batch.Reqs[i].Origin != msg.NoNode {
			c.proposed[batch.Reqs[i].Digest()] = struct{}{}
		}
	}
	prep := &msg.Prepare{View: c.view, Seq: seq, Batch: batch, Cert: cert}
	e := c.getEntry(seq)
	e.view = c.view
	e.batch = batch
	e.digest = digest
	e.hasPrep = true
	e.prepCert = cert
	// The leader's spec replies ride on its prepare certificate.
	e.specCert = cert
	e.hasSpecCert = true
	e.vouch(c.cfg.Self, c.cfg.N)
	c.metrics.Proposed += uint64(batch.Len())
	c.metrics.Batches++
	c.broadcast(env, prep)
	// Speculate before attempting the durable commit, so the fast answer for
	// this batch is emitted no later than its durable one.
	c.advanceSpec(env)
	c.tryCommit(env, e)
}

func (c *Core) getEntry(seq uint64) *entry {
	e, ok := c.log[seq]
	if !ok {
		e = &entry{seq: seq}
		c.log[seq] = e
	}
	return e
}

// OnForward handles a request forwarded by a follower. fwd is a view of the
// delivered envelope, valid for the call: the request is copied where it is
// kept.
func (c *Core) OnForward(env node.Env, from msg.NodeID, fwd *msg.Forward) {
	req := &fwd.Req
	if rec, ok := c.clients[req.Client]; ok && req.ClientSeq <= rec.lastSeq {
		if req.ClientSeq == rec.lastSeq {
			c.out.Committed(env, rec.seq, req, rec.result, rec.keys, rec.read, false)
		}
		return
	}
	if c.inVC {
		c.queued = append(c.queued, req.Clone())
		return
	}
	if !c.IsLeader() {
		// Misrouted (e.g. the sender has a stale view): pass it on.
		c.out.Send(env, c.Leader(c.view), fwd)
		return
	}
	env.Charge(c.cfg.Profile, node.ChargeHash, len(req.Op))
	c.enqueue(env, req.Clone(), req.Digest())
}

// deferToView parks a message for a view that has not been installed yet —
// and solicits the missing NEW-VIEW. A certified message from a future view,
// its certificate verified and naming from, is proof its sender installed a
// view this replica never saw; the NEW-VIEW broadcast is not retransmitted,
// so a replica that was crashed or cut off at that moment would otherwise
// defer the cluster's live traffic forever and silently stop contributing to
// quorums. One solicitation per view suffices in the common case; while
// deferral persists it is refreshed periodically in case the request or its
// answer was itself lost. The parked message outlives the call, so m owns its
// bytes (the callers pass a Clone).
func (c *Core) deferToView(env node.Env, from msg.NodeID, view uint64, m msg.Message) {
	if len(c.deferred) < maxDeferred {
		c.deferred = append(c.deferred, deferredMsg{from: from, view: view, m: m})
	}
	c.deferSinceSolicit++
	if view > c.vcSolicited || c.deferSinceSolicit >= 64 {
		c.vcSolicited = view
		c.deferSinceSolicit = 0
		c.metrics.ViewSolicits++
		c.out.Send(env, from, &NewViewRequest{View: view})
	}
}

// OnNewViewRequest answers a stale replica's solicitation with the NEW-VIEW
// that installed our current view. Anything at or above the requested view
// un-wedges the requester (it verifies and adopts whatever it receives), so
// the comparison is against what we hold, not equality.
func (c *Core) OnNewViewRequest(env node.Env, from msg.NodeID, req *NewViewRequest) {
	if c.curNewView == nil || c.curNewView.View < req.View {
		return
	}
	c.metrics.NewViewRelays++
	c.out.Send(env, from, c.curNewView)
}

// replayDeferred re-dispatches messages parked for the now-current view: the
// PREPAREs and COMMITs deferToView's two callers parked.
func (c *Core) replayDeferred(env node.Env) {
	pending := c.deferred
	c.deferred = nil
	for _, d := range pending {
		if d.view > c.view {
			c.deferred = append(c.deferred, d)
			continue
		}
		if d.view < c.view {
			continue
		}
		c.OnMessage(env, d.from, d.m)
	}
}

// OnPrepare handles the leader's ordering proposal. A PREPARE carries no host
// MAC: its certificate is what says who sent it, so before anything of it is
// kept, parked or answered, the certificate must name the envelope's sender
// and verify over the message's own view, sequence number and batch — and
// one that does not blames nobody (UnverifiedCerts). A replica sends itself
// no PREPARE: one that claims to is a replay of its own.
func (c *Core) OnPrepare(env node.Env, from msg.NodeID, prep *msg.Prepare) {
	if prep.View < c.view || prep.View == c.view && c.inVC {
		return
	}
	if prep.Cert.Replica != from || from == c.cfg.Self {
		c.metrics.UnverifiedCerts++
		return
	}
	batchDigest := prep.Batch.Digest()
	for i := range prep.Batch.Reqs {
		opLen := len(prep.Batch.Reqs[i].Op)
		env.Charge(c.cfg.Profile, node.ChargeHash, opLen)
		// Verify the client's authenticator share over the request payload.
		env.Charge(c.cfg.Profile, node.ChargeMAC, opLen)
	}
	if !c.cfg.Authority.Verify(prep.Cert, prepareDigest(prep.View, prep.Seq, batchDigest)) {
		c.metrics.UnverifiedCerts++
		return
	}
	c.chargeCounterOp(env)
	if prep.View > c.view {
		c.deferToView(env, from, prep.View, prep.Clone())
		return
	}
	// The certificate is from's: a PREPARE it had no business certifying is
	// its fault.
	if from != c.Leader(c.view) || prep.Cert.Counter != c.laneCounter(c.view, prep.Seq) || prep.Cert.Value != prep.Seq {
		c.rejectCert(from)
		return
	}
	c.admitPrepare(env, prep, batchDigest)
}

// admitPrepare takes a PREPARE of the current view whose certificate passed
// every check into the log in per-lane counter order, so the leader cannot
// leave holes. Prepares ahead of their lane wait; sequence numbers on
// *different* lanes are accepted in any arrival order, which is what lets
// votes for the whole in-flight window proceed while an earlier batch is
// still in transit.
func (c *Core) admitPrepare(env node.Env, prep *msg.Prepare, batchDigest msg.Digest) {
	lane := tcounter.LaneOf(prep.Seq, c.cfg.PipelineDepth)
	if prep.Cert.Value > c.nextPrepareValue[lane] {
		c.pendingPrepares[prep.Cert.Value] = prep.Clone() // held past this call
		return
	}
	if prep.Cert.Value < c.nextPrepareValue[lane] {
		return // stale duplicate
	}
	c.acceptPrepare(env, prep, batchDigest)
	c.drainPrepares(env)
}

// drainPrepares accepts buffered prepares that have become next-in-order on
// their lane. Lanes are scanned in ascending index order to a fixpoint, so
// the acceptance order is deterministic regardless of arrival order.
func (c *Core) drainPrepares(env node.Env) {
	for progressed := true; progressed; {
		progressed = false
		for l := 0; l < c.lanes(); l++ {
			next, ok := c.pendingPrepares[c.nextPrepareValue[l]]
			if !ok {
				continue
			}
			delete(c.pendingPrepares, c.nextPrepareValue[l])
			c.acceptPrepare(env, next, next.Batch.Digest())
			progressed = true
		}
	}
}

// acceptPrepare admits a verified, in-lane-order PREPARE to the log. prep is
// a view of the delivered envelope, valid for the call; the entry gets its own
// copy of the certificate and of the batch (with the request digests OnPrepare
// just computed), less the operations this replica submitted itself and holds.
func (c *Core) acceptPrepare(env node.Env, prep *msg.Prepare, batchDigest msg.Digest) {
	lane := tcounter.LaneOf(prep.Seq, c.cfg.PipelineDepth)
	c.nextPrepareValue[lane] = prep.Cert.Value + uint64(c.lanes())
	if prep.Seq < c.maxAcceptedPrep {
		c.metrics.OutOfOrderPrepares++
	} else {
		c.maxAcceptedPrep = prep.Seq
	}

	e := c.getEntry(prep.Seq)
	e.view = prep.View
	e.batch = prep.Batch.CloneExcept(c.holds)
	e.digest = batchDigest
	e.hasPrep = true
	e.keepPrepCert(prep.Cert)
	e.vouch(prep.Cert.Replica, c.cfg.N)

	// Certify and broadcast our commit: one certification acknowledges the
	// whole batch.
	cert, err := c.cfg.Authority.Certify(c.laneCounter(c.view, prep.Seq), prep.Seq,
		commitDigest(prep.View, prep.Seq, batchDigest))
	c.chargeCounterOp(env)
	if err != nil {
		env.Logf("hybster: certify commit seq %d: %v", prep.Seq, err)
		return
	}
	com := &msg.Commit{View: prep.View, Seq: prep.Seq, BatchDigest: batchDigest, Cert: cert}
	// A follower's spec replies ride on the commit certificate it just
	// minted for the batch.
	e.specCert = cert
	e.hasSpecCert = true
	c.broadcast(env, com)
	e.vouch(c.cfg.Self, c.cfg.N)
	// Speculate before attempting the durable commit, so the fast answer for
	// this batch is emitted no later than its durable one.
	c.advanceSpec(env)
	c.tryCommit(env, e)
}

// OnCommit handles a commit acknowledgment. Like a PREPARE, a COMMIT carries
// no host MAC, and nothing of it is kept, parked or answered before its
// certificate names the envelope's sender — a replica of the group — and
// verifies over the message's own view, sequence number and batch digest.
func (c *Core) OnCommit(env node.Env, from msg.NodeID, com *msg.Commit) {
	if com.View < c.view || com.View == c.view && c.inVC {
		return
	}
	if com.Cert.Replica != from || from == c.cfg.Self || from < 0 || int(from) >= c.cfg.N {
		c.metrics.UnverifiedCerts++
		return
	}
	if !c.cfg.Authority.Verify(com.Cert, commitDigest(com.View, com.Seq, com.BatchDigest)) {
		c.metrics.UnverifiedCerts++
		return
	}
	c.chargeCounterOp(env)
	if com.View > c.view {
		c.deferToView(env, from, com.View, com.Clone())
		return
	}
	if com.Cert.Counter != c.laneCounter(c.view, com.Seq) || com.Cert.Value != com.Seq {
		c.rejectCert(from)
		return
	}
	lane := tcounter.LaneOf(com.Seq, c.cfg.PipelineDepth)
	next := c.nextCommitValue[from][lane]
	if com.Cert.Value > next {
		byVal, ok := c.pendingCommits[from]
		if !ok {
			byVal = make(map[uint64]*msg.Commit)
			c.pendingCommits[from] = byVal
		}
		byVal[com.Cert.Value] = com.Clone() // held past this call
		// A peer that installed a checkpoint via state transfer advanced its
		// own counters past the gap it jumped, so the values we still expect
		// from it will never arrive and its commits would buffer here
		// forever — a slow leak and a lost voucher stream. Once the buffer
		// clearly exceeds anything in-flight ordering can explain, jump our
		// expectations forward to what the peer actually sends.
		if len(byVal) > c.lanes()*8 {
			c.resyncCommits(env, from)
		}
		return
	}
	if com.Cert.Value < next {
		return
	}
	c.acceptCommit(env, from, com)
	c.drainCommits(env, from)
}

// drainCommits accepts buffered commits from one replica that have become
// next-in-order on their lane, scanning lanes in ascending index order to a
// fixpoint for a deterministic acceptance order.
func (c *Core) drainCommits(env node.Env, from msg.NodeID) {
	for progressed := true; progressed; {
		progressed = false
		for l := 0; l < c.lanes(); l++ {
			byVal := c.pendingCommits[from]
			nextCom, ok := byVal[c.nextCommitValue[from][l]]
			if !ok {
				continue
			}
			delete(byVal, c.nextCommitValue[from][l])
			c.acceptCommit(env, from, nextCom)
			progressed = true
		}
	}
}

func (c *Core) acceptCommit(env node.Env, from msg.NodeID, com *msg.Commit) {
	lane := tcounter.LaneOf(com.Seq, c.cfg.PipelineDepth)
	c.nextCommitValue[from][lane] = com.Cert.Value + uint64(c.lanes())
	e := c.getEntry(com.Seq)
	if e.hasPrep && e.digest != com.BatchDigest {
		// A conflicting commit for a certified prepare can only come from a
		// faulty replica; the certificate pins it to its counter, so just
		// ignore it.
		c.rejectCert(from)
		return
	}
	e.vouch(from, c.cfg.N)
	c.tryCommit(env, e)
}

// tryCommit executes the log prefix that has become committed.
func (c *Core) tryCommit(env node.Env, e *entry) {
	if !e.hasPrep || e.vouched() < c.quorum() {
		return
	}
	c.metrics.Committed++
	c.executeReady(env)
}

// executeReady applies the committed log prefix strictly in sequence order
// (the commit queue's low mark), then re-pumps the leader's batch
// accumulator: each executed batch releases one in-flight window slot.
func (c *Core) executeReady(env node.Env) {
	executed := false
	for {
		e, ok := c.log[c.lastExec+1]
		if !ok || !e.hasPrep || e.executed || e.vouched() < c.quorum() {
			break
		}
		c.execute(env, e)
		executed = true
	}
	if c.specStale {
		// Durable execution found a batch the shadow speculated differently;
		// rewind the shadow onto the durable prefix just extended.
		c.specStale = false
		c.rollbackSpec(env)
	}
	if executed && !c.inVC && c.IsLeader() {
		c.pump(env)
	}
}

func (c *Core) execute(env node.Env, e *entry) {
	e.executed = true
	c.lastExec = e.seq

	// Speculation bookkeeping: if the shadow ran a *different* batch at this
	// slot, the speculated history diverged from the durable one and must be
	// rolled back once this execution run completes (executeReady). If the
	// durable path overtook the shadow (a batch can commit in the same
	// handler invocation that accepted it), the executed requests below are
	// replayed into the shadow so it stays a superset of the durable prefix.
	specCatchup := c.shadow != nil && e.seq > c.specExec
	if d, ok := c.specLog[e.seq]; ok {
		delete(c.specLog, e.seq)
		if d != e.digest {
			c.specStale = true
			c.metrics.SpecDivergences++
		}
	}

	// Per-request fan-out: each request in the batch is executed, recorded
	// in the client table, and reported individually, so the Troxy voter
	// and fast-read cache invalidation see the same replies as before.
	for i := range e.batch.Reqs {
		req := &e.batch.Reqs[i]
		reqDigest := req.Digest() // carried since the batch was proposed or accepted
		c.clearProgress(env, req, reqDigest)
		delete(c.proposed, reqDigest)

		if req.Origin == msg.NoNode && len(req.Op) == 0 {
			// Gap-filling no-op from a view change.
			continue
		}
		// Durable settlement (fresh execution or duplicate skip) closes the
		// outstanding speculation for this request, if any: the durable
		// reply flowing from here is what confirms or repairs the client.
		c.settleSpec(req)
		if rec, ok := c.clients[req.Client]; ok && req.ClientSeq <= rec.lastSeq {
			// The request was already executed at an earlier sequence
			// number (it can be proposed twice across a view change).
			// Skipping is deterministic: every replica's client table is
			// identical at this point in the log.
			continue
		}

		result := c.cfg.App.Execute(req.Op)
		env.Charge(c.cfg.Profile, node.ChargeExec, len(req.Op)+len(result))
		keys := c.cfg.App.Keys(req.Op)
		read := c.cfg.App.IsRead(req.Op)
		if specCatchup {
			// Mirror into the shadow: at this point specExec == lastExec-1,
			// so the shadow state and dedup table are identical to the
			// durable ones and the same skip decisions were made above.
			c.shadow.Execute(req.Op)
			c.specClients[req.Client] = req.ClientSeq
		}

		rec, ok := c.clients[req.Client]
		if !ok {
			rec = &clientRecord{}
			c.clients[req.Client] = rec
		}
		rec.lastSeq = req.ClientSeq
		rec.result = result
		rec.keys = keys
		rec.read = read
		rec.reqDigest = reqDigest
		rec.seq = e.seq

		c.metrics.Executed++
		c.out.Committed(env, e.seq, req, result, keys, read, true)
	}
	if specCatchup {
		c.specExec = e.seq
	}
	c.maybeCheckpoint(env)
}

// ExecuteReadOnly speculatively executes a read without ordering (the
// PBFT-like read optimization of the baseline and Prophecy; Section VI-C2).
// The caller is responsible for the client-side matching rule.
func (c *Core) ExecuteReadOnly(env node.Env, op []byte) ([]byte, bool) {
	if !c.cfg.App.IsRead(op) {
		return nil, false
	}
	result := c.cfg.App.Execute(op)
	env.Charge(c.cfg.Profile, node.ChargeExec, len(op)+len(result))
	return result, true
}

// maybeCheckpoint emits a checkpoint when the interval boundary is crossed.
func (c *Core) maybeCheckpoint(env node.Env) {
	if c.lastExec == 0 || c.lastExec%c.cfg.CheckpointInterval != 0 {
		return
	}
	seq := c.lastExec
	if _, done := c.ownCheckpoints[seq]; done {
		return
	}
	// The snapshot is a composite of the client table and the application
	// state (see snapshot.go): both are replicated state, and a state
	// transfer that carried only the application half would let a
	// view-change re-proposal replay a gap-covered request on the
	// transferred replica alone. What peers vote on is the digest of the
	// chunk manifest derived from both, so a lagging replica can later
	// verify individual chunks against it. The charge is for the bytes the
	// cut actually hashed, which is what was written since the last one
	// where the application keeps record digests.
	cs := c.buildChunkedSnapshot()
	env.Charge(c.cfg.Profile, node.ChargeHash, cs.hashed)
	c.ownCheckpoints[seq] = cs
	c.broadcast(env, &msg.Checkpoint{Seq: seq, StateDigest: cs.digest})
	c.recordCheckpoint(env, c.cfg.Self, seq, cs.digest)
}

// OnCheckpoint handles a peer's checkpoint announcement.
func (c *Core) OnCheckpoint(env node.Env, from msg.NodeID, cp *msg.Checkpoint) {
	if cp.Seq <= c.stableSeq {
		return
	}
	c.recordCheckpoint(env, from, cp.Seq, cp.StateDigest)
}

func (c *Core) recordCheckpoint(env node.Env, from msg.NodeID, seq uint64, digest msg.Digest) {
	votes, ok := c.checkpoints[seq]
	if !ok {
		votes = make(map[msg.NodeID]msg.Digest)
		c.checkpoints[seq] = votes
	}
	votes[from] = digest
	matching := 0
	for _, d := range votes {
		if d == digest {
			matching++
		}
	}
	if matching < c.quorum() {
		return
	}
	// Checkpoint seq is stable at this digest.
	if seq <= c.stableSeq {
		return
	}
	c.stableSeq = seq
	c.stableDigest = digest
	c.metrics.StableSeq = seq
	if cs, ok := c.ownCheckpoints[seq]; ok {
		if cs.digest == digest {
			c.stableChunks = cs
		} else {
			// We executed through seq but our state does not match the
			// quorum-agreed digest: this replica has silently diverged
			// (e.g. it state-transferred before this snapshot format
			// carried the client table). Never serve the wrong bytes, and
			// rewind onto the agreed state via a state transfer that is
			// allowed to move lastExec backwards.
			c.stableChunks = nil
			env.Logf("hybster: replica %d diverged at checkpoint %d (own digest != agreed); rewinding via state transfer", c.cfg.Self, seq)
			c.requestState(env, seq, digest, true, votes)
		}
	} else if c.lastExec < seq {
		// We agreed on a checkpoint we cannot reach by execution: fetch the
		// snapshot from the peers that voted it (state transfer).
		c.stableChunks = nil
		c.requestState(env, seq, digest, false, votes)
	} else {
		// Reachable by our own execution but we never snapshotted it (e.g.
		// we installed this very checkpoint via state transfer, which does
		// not retain the serving composite). We cannot serve it.
		c.stableChunks = nil
	}
	c.gc(seq)
}

func (c *Core) gc(stable uint64) {
	for seq := range c.log {
		if seq <= stable {
			delete(c.log, seq)
		}
	}
	for seq := range c.checkpoints {
		if seq < stable {
			delete(c.checkpoints, seq)
		}
	}
	for seq := range c.ownCheckpoints {
		if seq < stable {
			delete(c.ownCheckpoints, seq)
		}
	}
	// Buffered commits at or below the stable point can never drain (their
	// entries are gone); counter values equal sequence numbers, so drop by
	// value. The continuity jump past them happens via advanceContinuity or
	// resyncCommits.
	for _, byVal := range c.pendingCommits {
		for val := range byVal {
			if val <= stable {
				delete(byVal, val)
			}
		}
	}
}
