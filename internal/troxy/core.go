// Package troxy implements the paper's core contribution: the trusted proxy
// that relocates client-side BFT functionality (secure-channel termination,
// request translation, reply voting) to the server side, plus the managed
// fast-read cache of Section IV.
//
// The package is split along the paper's trust boundary:
//
//   - Core (this file) is the trusted logic. It holds everything the
//     untrusted replica part must never see: secure-channel session keys,
//     the Troxy group secret, the voter state and the fast-read cache. Its
//     methods are pure state-machine transitions returning Actions — the
//     messages the *untrusted* part must transmit (the Troxy performs no
//     network I/O itself; the paper's design has no ocalls).
//   - trusted.go wraps Core behind the fixed 14-entry ecall interface of an
//     enclave (internal/enclave), serializing arguments across the boundary.
//   - proxy.go provides the one host-side binding for both configurations
//     the evaluation compares: ctroxy calls the same handlers in process,
//     outside SGX; etroxy crosses the enclave boundary on every call.
package troxy

import (
	"bytes"
	"crypto/ed25519"
	cryptorand "crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"sort"
	"time"

	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/securechannel"
	"github.com/troxy-bft/troxy/internal/wire"
)

// Secret names delivered during post-attestation provisioning.
const (
	// SecretIdentity is the Ed25519 private key (seed) the Troxy uses as
	// the service's TLS identity.
	SecretIdentity = "troxy-identity"

	// SecretGroup is the HMAC key shared among all Troxy instances.
	SecretGroup = "troxy-group"
)

// Errors.
var (
	// ErrNotProvisioned reports use before secrets arrived.
	ErrNotProvisioned = errors.New("troxy: not provisioned")

	// ErrBadChannel reports undecryptable or malformed client data.
	ErrBadChannel = errors.New("troxy: bad channel data")
)

// Config parameterizes one Troxy instance.
type Config struct {
	// Self is the hosting replica's ID.
	Self msg.NodeID

	// N and F are the replication parameters (N = 2F+1).
	N, F int

	// Seed feeds the Troxy's internal randomness (remote-cache replica
	// selection). Enclaves draw from RDRAND; the simulation passes a
	// deterministic seed.
	Seed int64

	// Classify reports whether an operation is read-only. It is the
	// service-specific knowledge of Section III-E; the Troxy must not trust
	// client-provided flags, or a malicious client could poison the shared
	// cache by mislabeling writes. Nil disables the fast path.
	Classify func(op []byte) bool

	// FastReads enables the managed fast-read cache.
	FastReads bool

	// CacheCapacity is the cache budget in bytes (≤0: 64 MiB).
	CacheCapacity int64

	// MonitorWindow, MonitorThreshold and ProbeInterval parameterize the
	// conflict monitor (zero values: 256 attempts, 0.5, 1s).
	MonitorWindow    int
	MonitorThreshold float64
	ProbeInterval    time.Duration

	// QueryTimeout bounds how long a fast read waits for remote cache
	// replies before falling back to ordering (zero: 500ms).
	QueryTimeout time.Duration

	// FullCacheReplies transfers complete cache entries between Troxies
	// instead of reply digests (the paper's base variant; hash-only is the
	// optimization it recommends). Exposed for the ablation experiment.
	FullCacheReplies bool

	// HTTP switches the client protocol from the generic request/reply
	// framing to an HTTP/1.1 byte stream.
	HTTP bool
}

// Quorum is the reply-vote threshold: f+1 matching replies guarantee at
// least one comes from a correct replica (Section III-C). Every vote-count
// comparison goes through this helper.
func (c Config) Quorum() int { return c.F + 1 }

// Actions is what the untrusted replica part must do after an ecall: send
// encrypted records to clients, hand requests to the ordering protocol, and
// transmit cache messages to peer replicas. The Troxy itself never touches
// the network.
type Actions struct {
	Client  []ClientRecord
	Submits []msg.OrderRequest
	Queries []PeerCacheMsg
}

// ClientRecord is one opaque frame for a client connection (a handshake
// frame or an encrypted record). Node is the network destination hosting the
// connection (a client machine may multiplex many logical clients).
//
// Body is the record's ChannelData encoding — ConnID, then Frame with its
// length prefix — which Frame is a view of: the envelope body that carries the
// record, built by the binding that hands the record to the host (the Core
// leaves it nil).
type ClientRecord struct {
	ConnID uint64
	Node   msg.NodeID
	Frame  []byte
	Body   []byte
}

// PeerCacheMsg is a fast-read protocol message for a peer replica's Troxy: a
// CacheQuery or a CacheReply (Kind), encoded and tagged (Body), which like a
// ClientRecord's Body is the envelope body that carries it.
type PeerCacheMsg struct {
	To   msg.NodeID
	Kind msg.Kind
	Body []byte
}

// Stats counts Troxy events.
type Stats struct {
	Handshakes     uint64
	Requests       uint64
	Reads          uint64
	Writes         uint64
	FastReadOK     uint64 // reads answered from f+1 matching caches
	FastReadFell   uint64 // fast-read attempts that fell back to ordering
	CacheMisses    uint64 // fast-path attempts without a local entry
	VotesCompleted uint64
	BadReplies     uint64 // replies dropped by tag verification
	BadQueries     uint64 // cache messages dropped by tag verification
	ModeSwitches   uint64 // monitor switches into total-order mode
	StaleFreshRead uint64 // fresh read results refused by the applied-order pin
	SpecAnswered   uint64 // requests answered speculatively (f+1 spec votes)
	SpecConfirmed  uint64 // speculative answers later confirmed by the durable quorum
	SpecRetracted  uint64 // speculative answers explicitly retracted
	SpecMismatches uint64 // durable results that disagreed with the speculative answer
	Cache          CacheStats
}

type voteKey struct {
	client    uint64
	clientSeq uint64
}

// MaxReplicas bounds N: a tally keeps who stands behind a result as one bit
// per replica. NewCluster refuses a larger group.
const MaxReplicas = 64

// ballot is one distinct result of a vote and the replicas behind it. The
// first reply that carried the result is what the vote keeps of it — result
// and keys in the vote's own storage (the reply itself is a view of the
// caller's buffer), without the tag: verified once, never needed again.
type ballot struct {
	hash   msg.Digest
	voters uint64 // bit i: replica i's vote stands behind this result
	seq    uint64
	result []byte
	keys   msg.Keys
}

// tally counts a vote's ballots. Each replica has one vote; voting again
// moves it.
type tally struct {
	ballots []ballot
}

// cast records executor's vote for the result hashing to h. It returns the
// result's ballot, whether this vote opened it (the caller then keeps the
// result in it), and how many replicas now stand behind it.
func (t *tally) cast(executor msg.NodeID, h msg.Digest) (b *ballot, opened bool, matching int) {
	bit := uint64(1) << uint(executor)
	for i := range t.ballots {
		if t.ballots[i].hash == h {
			b = &t.ballots[i]
		} else {
			t.ballots[i].voters &^= bit
		}
	}
	if b == nil {
		t.ballots = append(t.ballots, ballot{hash: h})
		b, opened = &t.ballots[len(t.ballots)-1], true
	}
	b.voters |= bit
	return b, opened, bits.OnesCount64(b.voters)
}

// find returns the ballot of the result hashing to h, or nil.
func (t *tally) find(h msg.Digest) *ballot {
	for i := range t.ballots {
		if t.ballots[i].hash == h {
			return &t.ballots[i]
		}
	}
	return nil
}

// voteState is one pending vote, a single allocation: the durable tally
// starts out in durableBuf, which holds the two results a vote sees at most
// unless more than one replica lies, and slab holds what the ballots keep of
// their replies. A completed vote goes to the Core's free list with both
// (recycleVote).
type voteState struct {
	connID     uint64
	reqDigest  msg.Digest
	opHash     msg.Digest
	read       bool
	durable    tally
	durableBuf [2]ballot
	slab       []byte

	// Speculative (crash-commit) tier. fast marks a request whose client
	// opted into answers backed by f+1 PREPARE-round certificates. The vote
	// state survives a speculative answer: the durable quorum must still
	// arrive to confirm (StatusOK) or repair it, so the spec tally lives
	// beside — never instead of — the durable one.
	fast         bool
	spec         tally
	specAnswered bool
	specResult   msg.Digest // winning spec vote hash, valid when specAnswered
	retracted    bool       // a retraction frame was already sent for this answer
}

// keep copies a reply's result and key list — views of a buffer that does not
// outlive the call — into the vote's slab, for a ballot. A slab that has to
// grow leaves what earlier ballots kept where it was.
func (vs *voteState) keep(result []byte, keys msg.Keys) ([]byte, msg.Keys) {
	start := len(vs.slab)
	vs.slab = append(vs.slab, result...)
	mid := len(vs.slab)
	vs.slab = append(vs.slab, keys...)
	end := len(vs.slab)
	return vs.slab[start:mid:mid], msg.Keys(vs.slab[mid:end:end])
}

// queryState is one fast read in flight. fallback.Op is storage of the
// query's own, which it keeps on the Core's free list (endQuery).
type queryState struct {
	started   time.Duration
	connID    uint64
	key       voteKey
	opHash    msg.Digest
	reply     []byte
	replyHash msg.Digest
	waiting   uint64 // bit i: replica i's answer is still outstanding
	fallback  msg.OrderRequest
}

// Core is the trusted Troxy logic. It is not safe for concurrent use; the
// enclave's single-threaded ecall discipline (or the host state machine)
// serializes access.
type Core struct {
	cfg Config
	// rng drives replica selection; handshakeRand supplies key material.
	// With Seed == 0 (production) handshakes draw from crypto/rand; a
	// nonzero seed makes the whole instance deterministic for simulation.
	rng           *rand.Rand
	handshakeRand io.Reader

	channels *Channels
	tagger   *GroupTagger

	votes map[voteKey]*voteState
	// queries and queryOf index the fast reads in flight, by QueryID and by
	// request, in step with each other. Their bound: one entry each per fast
	// read in flight — a request has at most one (handleOperation) — and
	// every fast read ends by f matching remote answers, by a fallback to
	// ordering on the first that does not match, or, failing both, by the
	// fallback of the first Tick at least QueryTimeout after it started.
	// QueryIDs (queryCtr) are never reused while the Core lives, so an answer
	// that arrives after its fast read ended finds nothing.
	queries  map[uint64]*queryState
	queryOf  map[voteKey]uint64
	queryCtr uint64

	// others is chooseReplicas' shuffle space.
	others []msg.NodeID

	// out is what the call in progress returns, and sealed (client records)
	// and peer (cache messages, tagged in tagBuf) the memory it points into.
	// Like the record plaintext they are reused: what a call returns is valid
	// until the Core's next call, and the binding makes the copy the host
	// keeps (the boundary's copy-out, or in process append).
	out    Actions
	sealed []byte
	peer   wire.Writer
	tagBuf [tagSize]byte

	// freeVotes and freeQueries hold ended votes and fast reads, with their
	// storage, for the next request: at most maxFree each.
	freeVotes   []*voteState
	freeQueries []*queryState

	cache   *Cache
	monitor *Monitor

	// lastWriteSeq is the highest sequence number of a write this replica
	// has executed (observed through AuthenticateReply). Read results from
	// older sequence numbers — cached-reply replays answering client
	// retransmissions — may predate those writes and must never (re)enter
	// the fast-read cache.
	lastWriteSeq uint64

	stats Stats
}

// NewCore creates an unprovisioned Troxy core.
func NewCore(cfg Config) *Core {
	c := &Core{cfg: cfg}
	c.Reset()
	return c
}

// Reset wipes all volatile state, modelling an enclave (re)start. Session
// keys, the voter state and the entire fast-read cache are lost; secrets
// must be provisioned again. A rollback attack therefore only yields an
// empty cache and unanswered queries (Section IV-B).
func (c *Core) Reset() {
	c.rng = rand.New(rand.NewSource(c.cfg.Seed))
	if c.cfg.Seed == 0 {
		c.handshakeRand = cryptorand.Reader
	} else {
		c.handshakeRand = rand.New(rand.NewSource(c.cfg.Seed ^ 0x7477726f7879)) // "troxy"
	}
	c.channels = NewChannels(nil, c.cfg.HTTP)
	c.tagger = nil
	c.votes = make(map[voteKey]*voteState)
	c.queries = make(map[uint64]*queryState)
	c.queryOf = make(map[voteKey]uint64)
	c.out, c.sealed, c.peer = Actions{}, nil, wire.Writer{}
	c.freeVotes, c.freeQueries = nil, nil
	c.cache = NewCache(c.cfg.CacheCapacity)
	c.monitor = NewMonitor(c.cfg.MonitorWindow, c.cfg.MonitorThreshold, c.cfg.ProbeInterval)
	c.stats = Stats{}
}

// ProvisionSecrets installs the identity key and group secret.
func (c *Core) ProvisionSecrets(secrets map[string][]byte) error {
	seed, ok := secrets[SecretIdentity]
	if !ok || len(seed) != ed25519.SeedSize {
		return fmt.Errorf("%w: missing or malformed %s", ErrNotProvisioned, SecretIdentity)
	}
	group, ok := secrets[SecretGroup]
	if !ok || len(group) == 0 {
		return fmt.Errorf("%w: missing %s", ErrNotProvisioned, SecretGroup)
	}
	c.channels.identity = ed25519.NewKeyFromSeed(seed)
	c.tagger = NewGroupTagger(group)
	return nil
}

// Provisioned reports whether secrets are installed.
func (c *Core) Provisioned() bool { return c.channels.identity != nil && c.tagger != nil }

// Stats returns a snapshot of the counters.
func (c *Core) Stats() Stats {
	s := c.stats
	s.Cache = c.cache.Stats()
	s.ModeSwitches = c.monitor.Switches()
	return s
}

// AcceptConn registers a client connection handled by this replica.
func (c *Core) AcceptConn(connID uint64, node msg.NodeID) {
	c.channels.sessions[connID] = &session{node: node}
}

// CloseConn drops a client connection's session state.
func (c *Core) CloseConn(connID uint64) {
	delete(c.channels.sessions, connID)
}

const (
	// maxFree bounds each free list: more than the requests one replica's
	// clients have in flight at once, and no more than that pinned after a
	// burst.
	maxFree = 64
	// maxKeptStorage bounds what a vote or fast read takes onto its free
	// list: a giant result or operation is not worth pinning.
	maxKeptStorage = 16 << 10
	// maxKeptSealed bounds the call scratch kept for the next call, like
	// securechannel.Frames.Scratch does the plaintext buffer.
	maxKeptSealed = 2 * securechannel.MaxCoalescedPlaintext
)

// begin starts a call that returns Actions: from here on, what the previous
// call returned is overwritten.
func (c *Core) begin() {
	c.out = Actions{Client: c.out.Client[:0], Submits: c.out.Submits[:0], Queries: c.out.Queries[:0]}
	if cap(c.sealed) > maxKeptSealed || cap(c.peer.Bytes()) > maxKeptSealed {
		c.sealed, c.peer = nil, wire.Writer{}
	}
	c.sealed = c.sealed[:0]
	c.peer.Reset()
}

// toPeer completes the cache message whose tag input c.peer holds from start
// on (a CacheQuery or CacheReply encodes as its tag input, then its tag) and
// adds it to the call's actions, bound for replica to.
func (c *Core) toPeer(to msg.NodeID, kind msg.Kind, start int) {
	c.peer.Bytes32(c.tagger.Tag(c.tagBuf[:0], kind, c.cfg.Self, c.peer.Bytes()[start:]))
	body := c.peer.Bytes()[start:]
	c.out.Queries = append(c.out.Queries, PeerCacheMsg{To: to, Kind: kind, Body: body[:len(body):len(body)]})
}

// take returns an element of a free list, or a new one.
func take[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return new(T)
	}
	x := (*free)[n-1]
	(*free)[n-1], *free = nil, (*free)[:n-1]
	return x
}

// give puts a cleared element on a free list that has room for it.
func give[T any](free *[]*T, x *T) {
	if len(*free) < maxFree {
		*free = append(*free, x)
	}
}

// recycleVote clears a completed vote and puts it on the free list, its slab
// and spec ballots kept. Nothing of the vote may be read after this: the
// client's answer is sealed first.
func (c *Core) recycleVote(vs *voteState) {
	slab, spec := vs.slab[:0], vs.spec.ballots[:0]
	if cap(slab) > maxKeptStorage {
		slab = nil
	}
	*vs = voteState{slab: slab, spec: tally{ballots: spec}}
	give(&c.freeVotes, vs)
}

// endQuery ends a fast read, however it went: it leaves the indexes and goes
// on the free list, cleared, with its fallback's operation storage. Nothing of
// it may be read after this but what the call already returns (a fallback's
// operation, valid until the next call like all scratch).
func (c *Core) endQuery(id uint64, qs *queryState) {
	delete(c.queries, id)
	delete(c.queryOf, qs.key)
	op := qs.fallback.Op[:0]
	if cap(op) > maxKeptStorage {
		op = nil
	}
	*qs = queryState{fallback: msg.OrderRequest{Op: op}}
	give(&c.freeQueries, qs)
}

// HandleClientData processes bytes received on a client connection
// (Channels.Receive): each operation of a record hits the fast-read path or is
// submitted for ordering. The operations of the returned Submits are views of
// the channels' plaintext: like all a Core call returns, valid until its next.
func (c *Core) HandleClientData(now time.Duration, connID uint64, from msg.NodeID, payload []byte) (Actions, error) {
	c.begin()
	if !c.Provisioned() {
		return c.out, ErrNotProvisioned
	}
	hello, _, err := c.channels.Receive(connID, from, payload, c.handshakeRand, func(client, seq uint64, op []byte, fast bool) {
		c.handleOperation(now, connID, client, seq, op, fast)
	})
	if hello != nil {
		c.stats.Handshakes++
		c.out.Client = append(c.out.Client, ClientRecord{ConnID: connID, Node: from, Frame: hello})
	}
	return c.out, err
}

// handleOperation routes one client operation, adding what it takes to the
// call's actions. fast marks a request whose client opted into the
// crash-tolerant commit tier; the flag only shapes how the *ordered* path
// answers (a speculative reply ahead of the durable quorum) — the fast-read
// cache path is untouched, since its answers are already backed by durable
// execution.
func (c *Core) handleOperation(now time.Duration, connID, client, clientSeq uint64, op []byte, fast bool) {
	c.stats.Requests++

	read := c.cfg.Classify != nil && c.cfg.Classify(op)
	if read {
		c.stats.Reads++
	} else {
		c.stats.Writes++
	}

	key := voteKey{client: client, clientSeq: clientSeq}
	// The operation digest keys the fast-read cache, which only reads enter.
	var opHash msg.Digest
	if read {
		opHash = msg.DigestOf(op)
	}

	// Fast path for reads (Figure 4): check the local cache, then confirm
	// with f randomly chosen remote Troxies.
	if read && c.cfg.FastReads && c.monitor.Allow(now) {
		// A fast read already in flight for this request makes this a client
		// retransmission: it goes to ordering, and the round goes on.
		if _, pending := c.queryOf[key]; !pending {
			if reply, replyHash := c.cache.GetDigest(opHash); reply != nil {
				c.startFastRead(now, connID, key, opHash, op, reply, replyHash)
				return
			}
			c.stats.CacheMisses++
			c.monitor.Record(now, true)
		}
	}

	c.out.Submits = append(c.out.Submits, c.registerVote(connID, key, opHash, op, read, fast))
}

// registerVote creates the voter state for an ordered request — a vote from
// the free list when there is one — and returns the BFT request to submit.
// Re-registration (client retransmission) keeps the already-collected votes.
// The returned request's Op is op itself — a view of the record's plaintext
// or of a fast read's storage, valid for this call: it leaves through
// Actions, which the binding copies on the way out.
func (c *Core) registerVote(connID uint64, key voteKey, opHash msg.Digest, op []byte, read, fast bool) msg.OrderRequest {
	flags := uint8(0)
	if read {
		flags = msg.FlagReadOnly
	}
	if fast {
		flags |= msg.FlagFastCommit
	}
	req := msg.OrderRequest{
		Origin:    c.cfg.Self,
		Client:    key.client,
		ClientSeq: key.clientSeq,
		Flags:     flags,
		Op:        op,
	}
	if vs, ok := c.votes[key]; ok {
		vs.connID = connID // reconnects move the reply route
		return req
	}
	vs := take(&c.freeVotes)
	vs.connID = connID
	vs.reqDigest = req.Digest()
	vs.opHash = opHash
	vs.read = read
	vs.fast = fast
	vs.durable.ballots = vs.durableBuf[:0]
	c.votes[key] = vs
	return req
}

// startFastRead begins the remote-confirmation round for a locally cached
// read (check_cache in Figure 4): a fast read from the free list when there is
// one, and its cache queries in the call's scratch.
func (c *Core) startFastRead(now time.Duration, connID uint64, key voteKey, opHash msg.Digest, op []byte, reply []byte, replyHash msg.Digest) {
	c.queryCtr++
	id := c.queryCtr
	qs := take(&c.freeQueries)
	// The literal is built before it is assigned: it reads the fallback
	// storage it then replaces.
	*qs = queryState{
		started:   now,
		connID:    connID,
		key:       key,
		opHash:    opHash,
		reply:     reply,
		replyHash: replyHash,
		// The fallback outlives this call (it is submitted when a remote
		// cache disagrees or times out), so it owns its operation bytes: in
		// storage the fast read keeps on the free list from round to round.
		fallback: msg.OrderRequest{
			Origin:    c.cfg.Self,
			Client:    key.client,
			ClientSeq: key.clientSeq,
			Flags:     msg.FlagReadOnly,
			Op:        append(qs.fallback.Op[:0], op...),
		},
	}
	for _, r := range c.chooseReplicas(c.cfg.F) {
		qs.waiting |= 1 << uint(r)
		q := msg.CacheQuery{From: c.cfg.Self, To: r, QueryID: id, ReqDigest: opHash}
		start := c.peer.Len()
		q.TagInput(&c.peer)
		c.toPeer(r, q.Kind(), start)
	}
	c.queries[id] = qs
	c.queryOf[key] = id
}

// chooseReplicas picks k distinct replicas other than self, uniformly at
// random (Section IV-B: random selection blunts performance attacks by a
// faulty replica that always reports mismatches). The result is valid until
// the next call.
func (c *Core) chooseReplicas(k int) []msg.NodeID {
	others := c.others[:0]
	for i := 0; i < c.cfg.N; i++ {
		if id := msg.NodeID(i); id != c.cfg.Self {
			others = append(others, id)
		}
	}
	c.others = others
	c.rng.Shuffle(len(others), func(i, j int) { others[i], others[j] = others[j], others[i] })
	if k > len(others) {
		k = len(others)
	}
	return others[:k]
}

// AuthenticateReply is invoked by the local replica for every reply it is
// about to emit: the Troxy authenticates it with the group secret bound to
// this instance, and — crucially for consistency — invalidates the cache
// entries a write outdates *before* the authenticated reply exists. Without
// the tag the reply cannot count toward any voter's quorum, so every
// completed write implies f+1 invalidated caches (Section IV-A).
//
// Fresh read replies populate this Troxy's cache with the *local* execution
// result, keyed by the operation digest. This only risks this replica's own
// entry: a fast read counts an entry only when it matches the voting
// Troxy's voted-correct local copy, so a faulty replica poisoning its own
// cache can cause fallbacks (a performance attack the random selection and
// the monitor blunt) but never wrong results.
//
// Replayed replies (fresh == false, answering a client retransmission) are
// tagged but never cached: their result is current as of the original
// execution, and re-inserting it would resurrect entries that writes
// executed since have invalidated — turning a harmless retransmission into
// a stale fast read.
//
// The tag is written into tag's storage (tag[:0] onward; nil allocates), and
// rep.TroxyTag is that storage afterwards.
func (c *Core) AuthenticateReply(rep *msg.OrderedReply, read, fresh bool, opHash msg.Digest, tag []byte) error {
	if !c.Provisioned() {
		return ErrNotProvisioned
	}
	if read {
		// Applied-order pin: a fresh read may populate the cache only if it
		// executed at or after the last write this replica applied. With the
		// ordering pipeline, batches *certify* out of order but always
		// *apply* in sequence order, so under a correct core this guard is
		// never hit (rep.Seq of consecutive Committed calls is
		// non-decreasing); it pins the invariant so that a future reordering
		// of the execution fan-out cannot silently resurrect the stale
		// fast-read bug. Equal sequence numbers are fine: reads batched with
		// a write reach us in in-batch order, after the write raised
		// lastWriteSeq, and their results already reflect it.
		if c.cfg.FastReads && fresh {
			if rep.Seq >= c.lastWriteSeq {
				c.cache.PutKeys(opHash, rep.Result, rep.InvalidKeys)
			} else {
				c.stats.StaleFreshRead++
			}
		}
	} else {
		c.cache.InvalidateKeys(rep.InvalidKeys)
		if rep.Seq > c.lastWriteSeq {
			c.lastWriteSeq = rep.Seq
		}
	}
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	rep.TagInput(w)
	rep.TroxyTag = c.tagger.Tag(tag[:0], rep.Kind(), c.cfg.Self, w.Bytes())
	return nil
}

// voteHash folds the reply's result and key set into the value replicas must
// agree on. Including the keys prevents a faulty replica from matching the
// result while lying about which cache entries to touch.
func voteHash(rep *msg.OrderedReply) msg.Digest {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	w.Bytes32(rep.Result)
	w.Raw(rep.InvalidKeys)
	return msg.DigestOf(w.Bytes())
}

// HandleReply feeds one replica's reply into the voter (steps 4-5 of
// Figure 3). When f+1 distinct replicas delivered Troxy-authenticated,
// matching replies, the result is encrypted for the client.
func (c *Core) HandleReply(now time.Duration, rep *msg.OrderedReply) (Actions, error) {
	c.begin()
	if !c.Provisioned() {
		return c.out, ErrNotProvisioned
	}
	if rep.Executor < 0 || int(rep.Executor) >= c.cfg.N {
		c.stats.BadReplies++
		return c.out, nil
	}
	// Only replies authenticated by the executor's Troxy count: this is the
	// voter modification that forces faulty replicas through their trusted
	// subsystem (Section IV-A, change 1).
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	rep.TagInput(w)
	if !c.tagger.Verify(rep.Kind(), rep.Executor, w.Bytes(), rep.TroxyTag) {
		c.stats.BadReplies++
		return c.out, nil
	}

	// A reply for no pending vote ends here and touches no cache. The voter
	// is not what invalidates f+1 caches when a write completes: every
	// executor's AuthenticateReply invalidates before the reply's tag exists,
	// so each of the f+1 matching replies a vote needs comes from a Troxy that
	// already has.
	key := voteKey{client: rep.Client, clientSeq: rep.ClientSeq}
	vs, ok := c.votes[key]
	if !ok {
		return c.out, nil
	}
	if rep.ReqDigest != vs.reqDigest {
		c.stats.BadReplies++
		return c.out, nil
	}

	winner, opened, matching := vs.durable.cast(rep.Executor, voteHash(rep))
	if opened {
		// The vote outlives this call and rep is a view of the caller's
		// buffer: keep one owned copy per distinct result.
		winner.seq = rep.Seq
		winner.result, winner.keys = vs.keep(rep.Result, rep.InvalidKeys)
	}
	if matching < c.cfg.Quorum() {
		return c.out, nil
	}

	// Quorum reached: the result is correct.
	c.stats.VotesCompleted++
	delete(c.votes, key)

	// Settle a speculative answer against the durable result. A match
	// confirms it; a mismatch means the fast tier answered from a batch the
	// durable history dropped or reordered, so the client must see an
	// explicit retraction before the authoritative result.
	if vs.specAnswered {
		if spec := vs.spec.find(vs.specResult); spec != nil && !bytes.Equal(spec.result, winner.result) {
			c.stats.SpecMismatches++
			if !vs.retracted {
				vs.retracted = true
				c.stats.SpecRetracted++
				if !c.cfg.HTTP {
					attr := fmt.Sprintf("speculative result superseded by durable quorum at seq %d", winner.seq)
					c.sealToClient(vs.connID, key.clientSeq, msg.StatusRetracted, []byte(attr))
				}
			}
		} else if !vs.retracted {
			c.stats.SpecConfirmed++
		}
	}

	if vs.read {
		// A vote can complete on replayed replies (client retransmission of
		// an already-executed read): the result is authentic for that
		// request but current only as of its original sequence number. Cache
		// it only when it is at least as new as every write this replica has
		// executed, or a retransmission would resurrect an invalidated
		// entry and later fast reads would serve stale data.
		if c.cfg.FastReads && winner.seq > c.lastWriteSeq {
			c.cache.PutKeys(vs.opHash, winner.result, winner.keys)
		}
	} else {
		c.cache.InvalidateKeys(winner.keys)
	}

	// HTTP streams carry exactly one response per request: a speculative
	// answer already consumed it, so the durable confirmation is suppressed
	// (which is why the HTTP fast tier is documented as crash-tolerance
	// only — a lost speculation cannot be repaired in-band).
	if !vs.specAnswered || !c.cfg.HTTP {
		c.sealToClient(vs.connID, key.clientSeq, msg.StatusOK, winner.result)
	}
	// The answer is sealed, so what the vote kept is needed no more.
	c.recycleVote(vs)
	return c.out, nil
}

// specVoteHash folds a speculative reply's binding and result into the value
// replicas must agree on: the slot (view, seq, batch digest) *and* the
// result. Including the slot means f+1 matching spec votes prove f+1 replicas
// hold counter certificates for the same batch at the same position — the
// crash-commit guarantee — not merely that they computed the same bytes.
func specVoteHash(sr *msg.SpecReply) msg.Digest {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	w.U64(sr.View)
	w.U64(sr.Seq)
	w.Raw(sr.BatchDigest[:])
	w.Raw(sr.Result)
	return msg.DigestOf(w.Bytes())
}

// AuthenticateSpecReply tags an outgoing speculative reply with the group
// secret, the speculative analogue of AuthenticateReply. Unlike its durable
// counterpart it never touches the fast-read cache or the applied-order pin:
// a speculative result is not backed by durable execution and must not become
// servable as one.
func (c *Core) AuthenticateSpecReply(sr *msg.SpecReply) error {
	if !c.Provisioned() {
		return ErrNotProvisioned
	}
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	sr.TagInput(w)
	sr.TroxyTag = c.tagger.Tag(nil, sr.Kind(), c.cfg.Self, w.Bytes())
	return nil
}

// HandleSpecReply feeds one replica's speculative reply into the fast-tier
// voter. When f+1 distinct replicas delivered Troxy-authenticated replies
// agreeing on (view, seq, batch digest, result), the client is answered with
// StatusSpeculative — and the vote state is kept open: the durable quorum
// must still confirm (StatusOK) or repair the answer.
func (c *Core) HandleSpecReply(now time.Duration, sr *msg.SpecReply) (Actions, error) {
	c.begin()
	if !c.Provisioned() {
		return c.out, ErrNotProvisioned
	}
	if sr.Executor < 0 || int(sr.Executor) >= c.cfg.N {
		c.stats.BadReplies++
		return c.out, nil
	}
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	sr.TagInput(w)
	if !c.tagger.Verify(sr.Kind(), sr.Executor, w.Bytes(), sr.TroxyTag) {
		c.stats.BadReplies++
		return c.out, nil
	}
	key := voteKey{client: sr.Client, clientSeq: sr.ClientSeq}
	vs, ok := c.votes[key]
	if !ok || !vs.fast || vs.specAnswered {
		// No pending vote, a client that did not opt in, or an already
		// delivered speculation: nothing to do. Dropping late votes here is
		// safe — only the first f+1 quorum answers.
		return c.out, nil
	}
	if sr.ReqDigest != vs.reqDigest {
		c.stats.BadReplies++
		return c.out, nil
	}

	b, opened, matching := vs.spec.cast(sr.Executor, specVoteHash(sr))
	if opened {
		b.result, _ = vs.keep(sr.Result, nil) // kept past this call
	}
	if matching < c.cfg.Quorum() {
		return c.out, nil
	}

	vs.specAnswered = true
	vs.specResult = b.hash
	c.stats.SpecAnswered++
	c.sealToClient(vs.connID, key.clientSeq, msg.StatusSpeculative, sr.Result)
	return c.out, nil
}

// HandleRetract withdraws a speculative answer: the hosting replica's core
// rolled its shadow back past the speculated slot (view change, state
// transfer, or divergence), so the fast answer no longer rests on a surviving
// prefix. The client is told explicitly, with an attribution, and the vote
// stays open — the durable tier's eventual reply repairs the client (the
// reply-cache replay path covers requests that already executed durably).
// HTTP sessions cannot carry a retraction frame; for them the withdrawal is
// silent, which is the documented weaker guarantee of the HTTP fast tier.
func (c *Core) HandleRetract(client, clientSeq, slotSeq, view uint64) (Actions, error) {
	c.begin()
	if !c.Provisioned() {
		return c.out, ErrNotProvisioned
	}
	key := voteKey{client: client, clientSeq: clientSeq}
	vs, ok := c.votes[key]
	if !ok || !vs.specAnswered || vs.retracted {
		return c.out, nil
	}
	vs.retracted = true
	c.stats.SpecRetracted++
	if c.cfg.HTTP {
		return c.out, nil
	}
	attr := fmt.Sprintf("speculation for slot %d lost in view change to view %d", slotSeq, view)
	c.sealToClient(vs.connID, clientSeq, msg.StatusRetracted, []byte(attr))
	return c.out, nil
}

// sealToClient seals a reply into the call's scratch and adds the record to
// the call's actions (Channels.Seal; HTTP callers suppress redundant frames).
func (c *Core) sealToClient(connID, clientSeq uint64, status uint8, result []byte) {
	start := len(c.sealed)
	sealed, node, ok := c.channels.Seal(c.sealed, connID, clientSeq, status, result)
	if !ok {
		return
	}
	c.sealed = sealed
	c.out.Client = append(c.out.Client, ClientRecord{ConnID: connID, Node: node, Frame: sealed[start:len(sealed):len(sealed)]})
}

// HandleCacheQuery answers a remote Troxy's fast-read confirmation request
// (get_remote_cache_entry in Figure 4). Only the digest of the cached reply
// travels back (the paper's hash optimization), addressed, under the reply's
// tag, to the querier the query's tag names.
//
// A cache message reaches the Troxy with no host MAC checked (msg.Kind's
// TroxyTagged), so this and HandleCacheReply are where one is authenticated:
// its tag, from the Troxy it names, for this kind of message, addressed here.
func (c *Core) HandleCacheQuery(q *msg.CacheQuery) (Actions, error) {
	c.begin()
	if !c.Provisioned() {
		return c.out, ErrNotProvisioned
	}
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	q.TagInput(w)
	if q.From < 0 || int(q.From) >= c.cfg.N || q.To != c.cfg.Self || !c.tagger.Verify(q.Kind(), q.From, w.Bytes(), q.Tag) {
		c.stats.BadQueries++
		return c.out, nil
	}
	rep := msg.CacheReply{From: c.cfg.Self, To: q.From, QueryID: q.QueryID, ReqDigest: q.ReqDigest}
	if cached, digest := c.cache.GetDigest(q.ReqDigest); cached != nil {
		rep.Found = true
		rep.ReplyDigest = digest
		if c.cfg.FullCacheReplies {
			rep.ReplyData = cached
		}
	}
	start := c.peer.Len()
	rep.TagInput(&c.peer)
	c.toPeer(q.From, rep.Kind(), start)
	return c.out, nil
}

// HandleCacheReply feeds a remote cache answer into a pending fast read. All
// f remote entries must match the local one; any mismatch (concurrent
// writes, stale replays by malicious replicas) falls back to ordering. A reply
// addressed to another Troxy is rejected whatever it says: QueryIDs are unique
// per Troxy only, so another Troxy's answer could otherwise land in a pending
// query of this one that has the same ID and operation, and confirm an entry
// that a write this Troxy has not yet executed outdates.
func (c *Core) HandleCacheReply(now time.Duration, r *msg.CacheReply) (Actions, error) {
	c.begin()
	if !c.Provisioned() {
		return c.out, ErrNotProvisioned
	}
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	r.TagInput(w)
	if r.From < 0 || int(r.From) >= c.cfg.N || r.To != c.cfg.Self || !c.tagger.Verify(r.Kind(), r.From, w.Bytes(), r.Tag) {
		c.stats.BadQueries++
		return c.out, nil
	}
	qs, ok := c.queries[r.QueryID]
	if !ok {
		return c.out, nil
	}
	from := uint64(1) << uint(r.From)
	if qs.waiting&from == 0 {
		return c.out, nil
	}

	match := r.Found && r.ReqDigest == qs.opHash && r.ReplyDigest == qs.replyHash
	if match && c.cfg.FullCacheReplies {
		// Base variant: the full entry travelled; require byte equality,
		// not just the digest (and reject a digest/data mismatch outright).
		match = bytes.Equal(r.ReplyData, qs.reply)
	}
	if !match {
		c.fallbackQuery(now, r.QueryID, qs)
		return c.out, nil
	}
	qs.waiting &^= from
	if qs.waiting != 0 {
		return c.out, nil
	}

	// Fast read succeeded: local entry + f matching remote entries = f+1
	// Troxies agree, and the write-invalidation quorum intersects this set.
	c.stats.FastReadOK++
	c.monitor.Record(now, false)
	c.sealToClient(qs.connID, qs.key.clientSeq, msg.StatusOK, qs.reply)
	c.endQuery(r.QueryID, qs)
	return c.out, nil
}

// fallbackQuery abandons a fast read and orders the request instead.
func (c *Core) fallbackQuery(now time.Duration, id uint64, qs *queryState) {
	c.stats.FastReadFell++
	c.monitor.Record(now, true)
	// Fallbacks stay on the durable tier: the fast-read attempt already cost
	// one round trip, and a read served from the cache machinery must never
	// weaken into a speculative answer.
	c.out.Submits = append(c.out.Submits, c.registerVote(qs.connID, qs.key, qs.opHash, qs.fallback.Op, true, false))
	c.endQuery(id, qs)
}

// Tick expires fast reads whose remote replicas stopped answering
// ("timeouts might be used to detect unresponsive replicas", Section IV-A).
func (c *Core) Tick(now time.Duration) Actions {
	c.begin()
	timeout := c.cfg.QueryTimeout
	if timeout <= 0 {
		timeout = 500 * time.Millisecond
	}
	var expired []uint64
	for id, qs := range c.queries {
		if now-qs.started >= timeout {
			expired = append(expired, id)
		}
	}
	// Deterministic expiry order keeps simulations reproducible.
	sort.Slice(expired, func(i, j int) bool { return expired[i] < expired[j] })
	for _, id := range expired {
		c.fallbackQuery(now, id, c.queries[id])
	}
	return c.out
}
