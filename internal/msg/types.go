package msg

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"sync"

	"github.com/troxy-bft/troxy/internal/wire"
)

// Request flags.
const (
	// FlagReadOnly marks a request that does not modify service state. The
	// paper assumes read and write requests can be distinguished before
	// execution (Section IV-A).
	FlagReadOnly uint8 = 1 << iota

	// FlagDirect marks a read that should be executed speculatively without
	// ordering (the PBFT-like read optimization used by the baseline and by
	// Prophecy fast reads).
	FlagDirect

	// FlagBroadcast marks a request the client already sent to every
	// replica (the PBFT-style client protocol the baseline library uses);
	// followers verify it but do not forward it to the leader.
	FlagBroadcast

	// FlagFastCommit marks a request whose client accepts the crash-tolerant
	// commit level: replicas answer it speculatively at PREPARE time with a
	// SpecReply while the durable Byzantine commit completes in the
	// background. The flag is part of the request's canonical encoding, so
	// the commit level is bound into the digest replicas vote on.
	FlagFastCommit
)

// ChannelData carries opaque secure-channel bytes (handshake frames or
// encrypted records) between a legacy client and a replica. ConnID
// distinguishes connections multiplexed over the same node pair.
type ChannelData struct {
	ConnID  uint64
	Payload []byte
}

// Kind implements Message.
func (*ChannelData) Kind() Kind { return KindChannelData }

// MarshalWire implements Message.
//
//troxy:hotpath
func (m *ChannelData) MarshalWire(w *wire.Writer) {
	w.U64(m.ConnID)
	w.Bytes32(m.Payload)
}

// UnmarshalWire implements Message.
func (m *ChannelData) UnmarshalWire(r *wire.Reader) error {
	m.ConnID = r.U64()
	m.Payload = r.Bytes32()
	return r.Err()
}

// BFTRequest is issued by a baseline BFT client (which talks the BFT
// protocol itself) or by the Prophecy middlebox. Troxy-backed deployments
// never expose this message to clients.
type BFTRequest struct {
	Client    uint64
	ClientSeq uint64
	Flags     uint8
	Op        []byte
}

// Kind implements Message.
func (*BFTRequest) Kind() Kind { return KindBFTRequest }

// MarshalWire implements Message.
func (m *BFTRequest) MarshalWire(w *wire.Writer) {
	w.U64(m.Client)
	w.U64(m.ClientSeq)
	w.U8(m.Flags)
	w.Bytes32(m.Op)
}

// UnmarshalWire implements Message.
func (m *BFTRequest) UnmarshalWire(r *wire.Reader) error {
	m.Client = r.U64()
	m.ClientSeq = r.U64()
	m.Flags = r.U8()
	m.Op = r.Bytes32()
	return r.Err()
}

// BFTReply answers a BFTRequest. The baseline client library votes over
// f+1 (ordered) or all 2f+1 (direct-read) matching replies.
type BFTReply struct {
	Executor  NodeID
	Client    uint64
	ClientSeq uint64
	ReqDigest Digest
	Direct    bool // reply to a speculative (non-ordered) read
	Conflict  bool // direct read rejected, client must re-issue ordered
	Result    []byte
}

// Kind implements Message.
func (*BFTReply) Kind() Kind { return KindBFTReply }

// MarshalWire implements Message.
func (m *BFTReply) MarshalWire(w *wire.Writer) {
	w.U32(uint32(m.Executor))
	w.U64(m.Client)
	w.U64(m.ClientSeq)
	writeDigest(w, m.ReqDigest)
	w.Bool(m.Direct)
	w.Bool(m.Conflict)
	w.Bytes32(m.Result)
}

// UnmarshalWire implements Message.
func (m *BFTReply) UnmarshalWire(r *wire.Reader) error {
	m.Executor = NodeID(int32(r.U32()))
	m.Client = r.U64()
	m.ClientSeq = r.U64()
	readDigest(r, &m.ReqDigest)
	m.Direct = r.Bool()
	m.Conflict = r.Bool()
	m.Result = r.Bytes32()
	return r.Err()
}

// OrderRequest is the unit submitted to the agreement protocol: a client
// operation plus the identity of the node that votes over its replies
// (a replica's Troxy, a BFT client, or the Prophecy middlebox).
type OrderRequest struct {
	// Origin is the node to which all replicas send their OrderedReply (for
	// Troxy: the replica holding the client connection; for the baseline:
	// the client itself).
	Origin    NodeID
	Client    uint64
	ClientSeq uint64
	Flags     uint8
	Op        []byte

	// digest carries the request's digest once Digest has computed it, so a
	// replica hashes a request it holds once, not at every stage that needs
	// the digest (submission, proposal, execution, reply). It is never
	// encoded and is copied along with the struct.
	digest   Digest
	digested bool
}

// MarshalWire encodes the request canonically.
//
//troxy:hotpath
func (m *OrderRequest) MarshalWire(w *wire.Writer) {
	w.U32(uint32(m.Origin))
	w.U64(m.Client)
	w.U64(m.ClientSeq)
	w.U8(m.Flags)
	w.Bytes32(m.Op)
}

// UnmarshalWire decodes the request.
func (m *OrderRequest) UnmarshalWire(r *wire.Reader) error {
	m.digested = false
	m.Origin = NodeID(int32(r.U32()))
	m.Client = r.U64()
	m.ClientSeq = r.U64()
	m.Flags = r.U8()
	m.Op = r.Bytes32()
	return r.Err()
}

// FastCommit reports whether the request accepts the crash-tolerant commit
// level (speculative PREPARE-time replies).
func (m *OrderRequest) FastCommit() bool { return m.Flags&FlagFastCommit != 0 }

// Digest returns the SHA-256 digest of the canonical encoding. Replicas vote
// and invalidate caches by this digest. The first call computes it and the
// request carries it from then on (copies of the struct included), so the
// encoded fields must not change once the digest has been taken.
func (m *OrderRequest) Digest() Digest {
	if !m.digested {
		h := requestHashers.Get().(*requestHasher)
		m.digest, m.digested = h.sum(m), true
		requestHashers.Put(h)
	}
	return m.digest
}

// requestHasher hashes a request where it lies: the fixed-size head of the
// canonical encoding is laid out in hdr, the operation goes into the hash from
// wherever it is. (Marshalling the request to hash the encoding would move the
// operation once more, per digest.) hdr and out live here because what is
// handed to a hash.Hash escapes.
type requestHasher struct {
	h   hash.Hash
	hdr [orderRequestHeaderLen]byte
	out Digest
}

// orderRequestHeaderLen is what MarshalWire writes in front of the operation's
// bytes: origin, client, client sequence number, flags, operation length.
const orderRequestHeaderLen = 4 + 8 + 8 + 1 + 4

var requestHashers = sync.Pool{New: func() any { return &requestHasher{h: sha256.New()} }}

func (h *requestHasher) sum(m *OrderRequest) Digest {
	b := binary.LittleEndian.AppendUint32(h.hdr[:0], uint32(m.Origin))
	b = binary.LittleEndian.AppendUint64(b, m.Client)
	b = binary.LittleEndian.AppendUint64(b, m.ClientSeq)
	b = append(b, m.Flags)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Op)))
	h.h.Reset()
	h.h.Write(b)
	h.h.Write(m.Op)
	h.h.Sum(h.out[:0])
	return h.out
}

// SetDigest installs d as the request's digest, for the one decoder whose
// input is not a peer's: the host reading a submit out of its own trusted
// subsystem, which hashed the request when it registered the vote. No decoder
// of wire input may call it — a replica that took a peer's word for a digest
// would verify certificates against nothing.
func (m *OrderRequest) SetDigest(d Digest) { m.digest, m.digested = d, true }

// Clone returns a copy of the request that owns its operation bytes, for a
// holder that outlives the buffer the request was decoded from.
func (m *OrderRequest) Clone() *OrderRequest {
	c := *m
	c.Op = bytes.Clone(m.Op)
	return &c
}

// String implements fmt.Stringer for log lines.
func (m *OrderRequest) String() string {
	return fmt.Sprintf("req{c=%d s=%d origin=%d flags=%#x op=%dB}",
		m.Client, m.ClientSeq, m.Origin, m.Flags, len(m.Op))
}

// Batch groups client requests that are ordered as a single unit: one
// trusted-counter certification and one PREPARE/COMMIT round covers the whole
// batch, amortizing the protocol's fixed per-slot cost over Len() requests.
// An empty batch is a valid no-op proposal; the new leader uses it to fill
// sequence gaps during a view change.
type Batch struct {
	Reqs []OrderRequest
}

// Kind implements Message.
func (*Batch) Kind() Kind { return KindBatch }

// MarshalWire implements Message.
//
//troxy:hotpath
func (m *Batch) MarshalWire(w *wire.Writer) {
	w.U32(uint32(len(m.Reqs)))
	for i := range m.Reqs {
		m.Reqs[i].MarshalWire(w)
	}
}

// UnmarshalWire implements Message. It reuses the request slice's capacity.
func (m *Batch) UnmarshalWire(r *wire.Reader) error {
	n := r.SliceLen()
	if r.Err() != nil {
		return r.Err()
	}
	m.Reqs = m.Reqs[:0]
	if n > cap(m.Reqs) {
		m.Reqs = make([]OrderRequest, 0, min(n, 64))
	}
	for i := 0; i < n; i++ {
		m.Reqs = append(m.Reqs, OrderRequest{})
		if err := m.Reqs[i].UnmarshalWire(r); err != nil {
			return err
		}
	}
	return r.Err()
}

// Len returns the number of requests in the batch.
func (m *Batch) Len() int { return len(m.Reqs) }

// CloneExcept returns a copy of the batch that owns its operation bytes, for a
// holder that outlives the buffer the batch was decoded from and already owns
// some of the operations — the one copy a replica makes when it admits a
// decoded batch to its log. owned reports those requests (nil: none); the
// copy shares their bytes. The
// operations it copies share a single allocation, each cap-limited to its own
// bytes, and that allocation is written once: bytes.Join does not clear what
// it is about to fill, make would.
func (m *Batch) CloneExcept(owned func(*OrderRequest) bool) Batch {
	c := Batch{Reqs: make([]OrderRequest, len(m.Reqs))}
	copy(c.Reqs, m.Reqs)
	var room [32][]byte // a batch of the usual size keeps the list on the stack
	ops := room[:0]     // per request: the operation to copy, nil for one to share
	for i := range c.Reqs {
		var op []byte
		if owned == nil || !owned(&c.Reqs[i]) {
			op = c.Reqs[i].Op
		}
		ops = append(ops, op)
	}
	slab := bytes.Join(ops, nil)
	for i, op := range ops {
		if n := len(op); n > 0 {
			c.Reqs[i].Op, slab = slab[:n:n], slab[n:]
		}
	}
	return c
}

// Digest returns the digest that the batch's PREPARE/COMMIT certificates
// bind: the per-request digests (which the requests carry from then on, see
// OrderRequest.Digest) behind a "troxy-batch" marker and the request count,
// which domain-separate it from single-request digests and from concatenation
// ambiguities between adjacent batches.
func (m *Batch) Digest() Digest {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	w.String("troxy-batch")
	w.U32(uint32(len(m.Reqs)))
	for i := range m.Reqs {
		writeDigest(w, m.Reqs[i].Digest())
	}
	return DigestOf(w.Bytes())
}

// String implements fmt.Stringer for log lines.
func (m *Batch) String() string { return fmt.Sprintf("batch{%d reqs}", len(m.Reqs)) }

// CounterCert is a trusted-counter certificate binding a message digest to
// the (ID, Value) pair of a trusted monotonic counter. Produced and verified
// only inside the trusted subsystem; the untrusted replica part treats it as
// opaque. See internal/tcounter.
type CounterCert struct {
	Replica NodeID // owner of the counter
	Counter uint32 // counter index within the owner's subsystem
	Value   uint64 // certified counter value
	MAC     []byte // HMAC over (Replica, Counter, Value, digest)
}

// MarshalWire encodes the certificate.
//
//troxy:hotpath
func (c *CounterCert) MarshalWire(w *wire.Writer) {
	w.U32(uint32(c.Replica))
	w.U32(c.Counter)
	w.U64(c.Value)
	w.Bytes32(c.MAC)
}

// Clone returns a copy of the certificate that owns its MAC.
func (c CounterCert) Clone() CounterCert {
	c.MAC = bytes.Clone(c.MAC)
	return c
}

// UnmarshalWire decodes the certificate.
func (c *CounterCert) UnmarshalWire(r *wire.Reader) error {
	c.Replica = NodeID(int32(r.U32()))
	c.Counter = r.U32()
	c.Value = r.U64()
	c.MAC = r.Bytes32()
	return r.Err()
}

// Forward carries a client request from a follower replica to the leader,
// which alone may initiate agreement (Hybster is leader-based).
type Forward struct {
	Req OrderRequest
}

// Kind implements Message.
func (*Forward) Kind() Kind { return KindForward }

// MarshalWire implements Message.
//
//troxy:hotpath
func (m *Forward) MarshalWire(w *wire.Writer) { m.Req.MarshalWire(w) }

// UnmarshalWire implements Message.
func (m *Forward) UnmarshalWire(r *wire.Reader) error { return m.Req.UnmarshalWire(r) }

// Prepare is the leader's ordering proposal for sequence number Seq in View.
// The certificate binds (View, Seq, batch digest) to the leader's ordering
// counter, which makes equivocation impossible: the counter can certify each
// value exactly once, and followers require consecutive values.
type Prepare struct {
	View  uint64
	Seq   uint64
	Batch Batch
	Cert  CounterCert
}

// Kind implements Message.
func (*Prepare) Kind() Kind { return KindPrepare }

// MarshalWire implements Message.
//
//troxy:hotpath
func (m *Prepare) MarshalWire(w *wire.Writer) {
	w.U64(m.View)
	w.U64(m.Seq)
	m.Batch.MarshalWire(w)
	m.Cert.MarshalWire(w)
}

// UnmarshalWire implements Message.
func (m *Prepare) UnmarshalWire(r *wire.Reader) error {
	m.View = r.U64()
	m.Seq = r.U64()
	if err := m.Batch.UnmarshalWire(r); err != nil {
		return err
	}
	return m.Cert.UnmarshalWire(r)
}

// Clone returns a copy of the proposal that owns every byte it points to,
// for a replica that has to hold a decoded PREPARE back (out of lane order,
// or for a view it has not installed yet).
func (m *Prepare) Clone() *Prepare {
	return &Prepare{View: m.View, Seq: m.Seq, Batch: m.Batch.CloneExcept(nil), Cert: m.Cert.Clone()}
}

// Commit acknowledges a Prepare. It is certified by the sender's trusted
// counter so a Byzantine replica cannot send conflicting commits.
type Commit struct {
	View        uint64
	Seq         uint64
	BatchDigest Digest
	Cert        CounterCert
}

// Kind implements Message.
func (*Commit) Kind() Kind { return KindCommit }

// MarshalWire implements Message.
//
//troxy:hotpath
func (m *Commit) MarshalWire(w *wire.Writer) {
	w.U64(m.View)
	w.U64(m.Seq)
	writeDigest(w, m.BatchDigest)
	m.Cert.MarshalWire(w)
}

// UnmarshalWire implements Message.
func (m *Commit) UnmarshalWire(r *wire.Reader) error {
	m.View = r.U64()
	m.Seq = r.U64()
	readDigest(r, &m.BatchDigest)
	return m.Cert.UnmarshalWire(r)
}

// Clone returns a copy of the commit that owns its certificate, for a replica
// that has to hold a decoded COMMIT back.
func (m *Commit) Clone() *Commit {
	c := *m
	c.Cert = m.Cert.Clone()
	return &c
}

// OrderedReply carries the result of an executed request from the executing
// replica to the request's Origin, whose Troxy (or client library) votes.
//
// As required by the fast-read cache protocol (Section IV-A), the reply
// (1) is authenticated by the *executing replica's Troxy* (TroxyTag), which
// forces every counted reply through that Troxy and thereby guarantees cache
// invalidation before a write completes; and (2) carries the digest of the
// original request so the voting Troxy can identify the cache entry.
type OrderedReply struct {
	Executor  NodeID
	Seq       uint64 // agreement sequence number that executed the request
	Client    uint64
	ClientSeq uint64
	ReqDigest Digest
	Result    []byte
	// InvalidKeys lists the state parts the request touched, so the voting
	// Troxy can invalidate cache entries for reads of those parts (and index
	// a read's entry by them). It stays in wire form: see Keys.
	InvalidKeys Keys
	// TroxyTag is the HMAC computed inside the executor's trusted subsystem
	// over the reply's canonical content with the Troxy group secret and the
	// executor's instance ID.
	TroxyTag []byte
}

// Kind implements Message.
func (*OrderedReply) Kind() Kind { return KindOrderedReply }

// MarshalWire implements Message.
//
//troxy:hotpath
func (m *OrderedReply) MarshalWire(w *wire.Writer) {
	m.marshalCore(w)
	w.Bytes32(m.TroxyTag)
}

func (m *OrderedReply) marshalCore(w *wire.Writer) {
	w.U32(uint32(m.Executor))
	w.U64(m.Seq)
	w.U64(m.Client)
	w.U64(m.ClientSeq)
	writeDigest(w, m.ReqDigest)
	w.Bytes32(m.Result)
	m.InvalidKeys.marshal(w)
}

// WireSize returns the length of the reply's encoding, so a sender can tell
// whether the reply still fits a batch before appending it.
func (m *OrderedReply) WireSize() int {
	keys := len(m.InvalidKeys)
	if keys == 0 {
		keys = 4 // the empty list is its count
	}
	return 4 + 3*8 + len(m.ReqDigest) + 4 + len(m.Result) + keys + 4 + len(m.TroxyTag)
}

// TagInput appends the canonical bytes the TroxyTag authenticates.
//
//troxy:hotpath
func (m *OrderedReply) TagInput(w *wire.Writer) { m.marshalCore(w) }

// UnmarshalWire implements Message. Every field is overwritten, so one
// OrderedReply can be decoded into again and again.
func (m *OrderedReply) UnmarshalWire(r *wire.Reader) error {
	m.Executor = NodeID(int32(r.U32()))
	m.Seq = r.U64()
	m.Client = r.U64()
	m.ClientSeq = r.U64()
	readDigest(r, &m.ReqDigest)
	m.Result = r.Bytes32()
	m.InvalidKeys = readKeys(r)
	m.TroxyTag = r.Bytes32()
	return r.Err()
}

// Reply-batch limits.
const (
	// MaxBatchReplies bounds the replies one ReplyBatch envelope carries. A
	// sender closes a batch that reaches it; a receiver takes no more than
	// this many replies from one envelope.
	MaxBatchReplies = 16

	// BatchFlushBytes is the encoded size at which a sender closes a batch
	// whatever its count. A batch of several replies stays within it; a
	// single reply may be larger.
	BatchFlushBytes = 64 << 10
)

// ErrBatchTooLong reports a ReplyBatch with more than MaxBatchReplies
// replies.
var ErrBatchTooLong = errors.New("msg: reply batch exceeds MaxBatchReplies")

// ReplyBatch carries the OrderedReplies one replica produced for one origin
// while it handled one event — typically the replies of one executed batch —
// in one envelope. Replies holds their encodings back to back with no count
// in front, so a batch of one is exactly as long as the reply. Each reply
// carries its own Troxy tag and is voted on by itself; the batch only
// amortizes the envelope, which has no host MAC (Kind.TroxyTagged). A reply
// needs no destination in its tag: it binds its request's digest, and that
// binds the request's origin.
//
// The replies are not decoded with the batch: the receiver walks them with
// Iter into one OrderedReply it reuses, and a malformed reply costs the
// sender the rest of that envelope, not the replies in front of it.
type ReplyBatch struct {
	Replies []byte
}

// NewReplyBatch returns the batch of the given replies. A replica builds its
// batches in place (it appends each reply to its origin's queue); this is for
// fault harnesses and tests.
func NewReplyBatch(replies ...*OrderedReply) *ReplyBatch {
	w := wire.NewWriter(0)
	for _, rep := range replies {
		rep.MarshalWire(w)
	}
	return &ReplyBatch{Replies: w.Bytes()}
}

// Kind implements Message.
func (*ReplyBatch) Kind() Kind { return KindReplyBatch }

// MarshalWire implements Message.
//
//troxy:hotpath
func (m *ReplyBatch) MarshalWire(w *wire.Writer) { w.Raw(m.Replies) }

// UnmarshalWire implements Message: the batch is the rest of the input.
func (m *ReplyBatch) UnmarshalWire(r *wire.Reader) error {
	m.Replies = r.FixedBytes(r.Remaining())
	return r.Err()
}

// ReplyIter walks the replies of a ReplyBatch.
type ReplyIter struct {
	r wire.Reader
	n int
}

// Iter returns an iterator over the batch's replies.
func (m *ReplyBatch) Iter() ReplyIter { return ReplyIter{r: *wire.NewReader(m.Replies)} }

// Next decodes the next reply into rep, whose byte fields become views of the
// batch. It returns false at the end of the batch, and an error — which also
// ends the walk — for a reply that does not decode or that is one more than
// MaxBatchReplies.
func (it *ReplyIter) Next(rep *OrderedReply) (bool, error) {
	if it.r.Err() != nil || it.r.Remaining() == 0 {
		return false, it.r.Err()
	}
	if it.n == MaxBatchReplies {
		return false, ErrBatchTooLong
	}
	it.n++
	if err := rep.UnmarshalWire(&it.r); err != nil {
		return false, fmt.Errorf("reply %d of batch: %w", it.n, err)
	}
	return true, nil
}

// SpecReply carries the speculative (crash-tolerant tier) result of a
// fast-commit request from a replica that accepted the batch's PREPARE to
// the request's Origin. The voting Troxy answers the client after f+1
// matching SpecReplies and keeps the vote open for the durable tier.
//
// Cert is the sender's trusted-counter certificate for the PREPARE round
// that justifies the speculation: the leader's prepare certificate when
// Executor led View, the follower's commit certificate otherwise. It binds
// (View, Seq, BatchDigest), so a speculative result cannot be fabricated
// without the trusted counter having committed to that exact proposal —
// this is the anchor that makes rollback attributable when the batch loses
// a view change. TroxyTag authenticates the reply content exactly like
// OrderedReply's tag.
type SpecReply struct {
	Executor    NodeID
	View        uint64
	Seq         uint64 // agreement sequence number of the speculated batch
	BatchDigest Digest
	Client      uint64
	ClientSeq   uint64
	ReqDigest   Digest
	Result      []byte
	Cert        CounterCert
	// TroxyTag is the HMAC computed inside the executor's trusted subsystem
	// over the reply's canonical content (everything above, certificate
	// included) with the Troxy group secret and the executor's instance ID.
	TroxyTag []byte
}

// Kind implements Message.
func (*SpecReply) Kind() Kind { return KindSpecReply }

// MarshalWire implements Message.
func (m *SpecReply) MarshalWire(w *wire.Writer) {
	m.marshalCore(w)
	w.Bytes32(m.TroxyTag)
}

func (m *SpecReply) marshalCore(w *wire.Writer) {
	w.U32(uint32(m.Executor))
	w.U64(m.View)
	w.U64(m.Seq)
	writeDigest(w, m.BatchDigest)
	w.U64(m.Client)
	w.U64(m.ClientSeq)
	writeDigest(w, m.ReqDigest)
	w.Bytes32(m.Result)
	m.Cert.MarshalWire(w)
}

// TagInput appends the canonical bytes the TroxyTag authenticates.
func (m *SpecReply) TagInput(w *wire.Writer) { m.marshalCore(w) }

// UnmarshalWire implements Message.
func (m *SpecReply) UnmarshalWire(r *wire.Reader) error {
	m.Executor = NodeID(int32(r.U32()))
	m.View = r.U64()
	m.Seq = r.U64()
	readDigest(r, &m.BatchDigest)
	m.Client = r.U64()
	m.ClientSeq = r.U64()
	readDigest(r, &m.ReqDigest)
	m.Result = r.Bytes32()
	if err := m.Cert.UnmarshalWire(r); err != nil {
		return err
	}
	m.TroxyTag = r.Bytes32()
	return r.Err()
}

// Checkpoint announces the digest of the application state after executing
// all requests up to and including Seq. f+1 matching checkpoints make Seq
// stable and let replicas garbage-collect their logs.
type Checkpoint struct {
	Seq         uint64
	StateDigest Digest
}

// Kind implements Message.
func (*Checkpoint) Kind() Kind { return KindCheckpoint }

// MarshalWire implements Message.
func (m *Checkpoint) MarshalWire(w *wire.Writer) {
	w.U64(m.Seq)
	writeDigest(w, m.StateDigest)
}

// UnmarshalWire implements Message.
func (m *Checkpoint) UnmarshalWire(r *wire.Reader) error {
	m.Seq = r.U64()
	readDigest(r, &m.StateDigest)
	return r.Err()
}

// CacheQuery asks the Troxy of a remote replica whether its fast-read cache
// holds an entry for the request identified by ReqDigest. Tag is the Troxy
// group-secret HMAC computed inside the querying trusted subsystem. It binds
// To, the replica whose Troxy is asked: the envelope carries no host MAC
// (Kind.TroxyTagged), so the tag is what names the destination.
type CacheQuery struct {
	From      NodeID
	To        NodeID
	QueryID   uint64
	ReqDigest Digest
	Tag       []byte
}

// Kind implements Message.
func (*CacheQuery) Kind() Kind { return KindCacheQuery }

// MarshalWire implements Message.
func (m *CacheQuery) MarshalWire(w *wire.Writer) {
	m.marshalCore(w)
	w.Bytes32(m.Tag)
}

func (m *CacheQuery) marshalCore(w *wire.Writer) {
	w.U32(uint32(m.From))
	w.U32(uint32(m.To))
	w.U64(m.QueryID)
	writeDigest(w, m.ReqDigest)
}

// TagInput appends the canonical bytes the query tag authenticates.
//
//troxy:hotpath
func (m *CacheQuery) TagInput(w *wire.Writer) { m.marshalCore(w) }

// UnmarshalWire implements Message.
func (m *CacheQuery) UnmarshalWire(r *wire.Reader) error {
	m.From = NodeID(int32(r.U32()))
	m.To = NodeID(int32(r.U32()))
	m.QueryID = r.U64()
	readDigest(r, &m.ReqDigest)
	m.Tag = r.Bytes32()
	return r.Err()
}

// CacheReply answers a CacheQuery. By default only the digest of the cached
// reply is transferred (the paper's hash optimization: "the fast-read cache
// only needs to transfer the hash of the reply between replicas"); the
// querying Troxy compares it against its own full entry. The base variant
// the paper also describes returns the full entry in ReplyData (compare
// Section IV-A: "the request and associated reply, both authenticated, are
// returned"). Tag is computed inside the answering trusted subsystem and binds
// To, the querier: QueryIDs are only unique per Troxy, so a reply that did not
// name its querier could be redirected into another Troxy's pending query.
type CacheReply struct {
	From        NodeID
	To          NodeID
	QueryID     uint64
	ReqDigest   Digest
	Found       bool
	ReplyDigest Digest
	ReplyData   []byte // full entry (base variant only)
	Tag         []byte
}

// Kind implements Message.
func (*CacheReply) Kind() Kind { return KindCacheReply }

// MarshalWire implements Message.
func (m *CacheReply) MarshalWire(w *wire.Writer) {
	m.marshalCore(w)
	w.Bytes32(m.Tag)
}

func (m *CacheReply) marshalCore(w *wire.Writer) {
	w.U32(uint32(m.From))
	w.U32(uint32(m.To))
	w.U64(m.QueryID)
	writeDigest(w, m.ReqDigest)
	w.Bool(m.Found)
	writeDigest(w, m.ReplyDigest)
	w.Bytes32(m.ReplyData)
}

// TagInput appends the canonical bytes the reply tag authenticates.
//
//troxy:hotpath
func (m *CacheReply) TagInput(w *wire.Writer) { m.marshalCore(w) }

// UnmarshalWire implements Message.
func (m *CacheReply) UnmarshalWire(r *wire.Reader) error {
	m.From = NodeID(int32(r.U32()))
	m.To = NodeID(int32(r.U32()))
	m.QueryID = r.U64()
	readDigest(r, &m.ReqDigest)
	m.Found = r.Bool()
	readDigest(r, &m.ReplyDigest)
	m.ReplyData = r.Bytes32()
	m.Tag = r.Bytes32()
	return r.Err()
}

// Interface compliance checks.
var (
	_ Message = (*ChannelData)(nil)
	_ Message = (*BFTRequest)(nil)
	_ Message = (*BFTReply)(nil)
	_ Message = (*Forward)(nil)
	_ Message = (*Prepare)(nil)
	_ Message = (*Commit)(nil)
	_ Message = (*OrderedReply)(nil)
	_ Message = (*Checkpoint)(nil)
	_ Message = (*CacheQuery)(nil)
	_ Message = (*CacheReply)(nil)
	_ Message = (*Batch)(nil)
	_ Message = (*SpecReply)(nil)
	_ Message = (*ReplyBatch)(nil)
)
