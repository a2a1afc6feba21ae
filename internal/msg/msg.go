// Package msg defines the wire kinds of a Troxy-backed system and the
// messages the Troxy reads or writes: client secure-channel records, Hybster
// agreement messages (PREPARE/COMMIT with trusted-counter certificates),
// checkpoints, Troxy-to-Troxy fast-read cache messages, replies, and the
// baseline BFT client messages. The view-change and state-transfer messages
// only replicas speak are internal/hybster's (hybster.Open). All messages
// marshal to a canonical binary form; digests and MACs are always computed
// over that canonical form, never over in-memory representations.
//
// Messages travel inside an Envelope carrying source, destination, and an
// optional point-to-point HMAC appended by the untrusted replica part.
// Troxy-to-Troxy authentication tags (computed inside the trusted subsystem)
// are fields of the respective message types instead, because the untrusted
// part must not be able to produce them.
package msg

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/troxy-bft/troxy/internal/wire"
)

// NodeID identifies a node (replica, client, or middlebox) in a deployment.
// Replicas are numbered 0..n-1; other nodes use higher IDs.
type NodeID int32

// NoNode is the zero NodeID used when a field is unset.
const NoNode NodeID = -1

// Kind discriminates message types on the wire.
type Kind uint8

// Message kinds. Start at one so an accidental zero is invalid.
const (
	// KindChannelData carries opaque secure-channel bytes between a legacy
	// client and the Troxy of the replica it is connected to.
	KindChannelData Kind = iota + 1

	// KindBFTRequest is a request from a baseline BFT client (or the
	// Prophecy middlebox) to a replica.
	KindBFTRequest

	// KindBFTReply is a reply from a replica to a baseline BFT client.
	KindBFTReply

	// KindForward carries a client request from a follower's Troxy to the
	// current leader for ordering.
	KindForward

	// KindPrepare is the leader's ordering proposal, certified by the
	// leader's trusted counter.
	KindPrepare

	// KindCommit acknowledges a Prepare, certified by the sender's trusted
	// counter.
	KindCommit

	// KindOrderedReply is an execution result on its way from the executing
	// replica to the replica whose Troxy votes for the client. Replicas send
	// replies inside KindReplyBatch envelopes; a bare OrderedReply is the
	// element of such a batch and the argument of the reply ecalls.
	KindOrderedReply

	// KindCheckpoint announces a state digest at a checkpoint interval.
	KindCheckpoint

	// KindViewChange asks to install a new view.
	KindViewChange

	// KindNewView installs a new view.
	KindNewView

	// KindCacheQuery asks a remote Troxy for its fast-read cache entry.
	KindCacheQuery

	// KindCacheReply answers a CacheQuery with a (possibly absent) entry.
	KindCacheReply

	// KindStateRequest asks a peer for the application snapshot at a stable
	// checkpoint (state transfer for replicas that fell behind).
	KindStateRequest

	// KindStateReply answers a StateRequest.
	KindStateReply

	// KindBatch is an ordered group of client requests certified and agreed
	// on as one unit (one trusted-counter certification and one
	// PREPARE/COMMIT round per batch). It travels embedded in Prepare and
	// ViewChange messages but is registered as a wire kind of its own so
	// tooling and fuzzers can round-trip it standalone.
	KindBatch

	// KindStateChunk carries one fixed-size piece of a chunked checkpoint
	// snapshot during state transfer. Each chunk is verified against the
	// per-chunk digest in the manifest the peers' CHECKPOINT votes agreed on.
	KindStateChunk

	// KindStatePrefix hands a state-transferring replica the serving peer's
	// in-flight prepared entries above the checkpoint, each carrying its
	// original leader counter certificate, so the joiner can resume ordering
	// mid-window instead of waiting for the next checkpoint.
	KindStatePrefix

	// KindNewViewRequest solicits the NEW-VIEW that installed the receiver's
	// current view. A replica that sees certified traffic from a view it
	// never installed (it slept through the view change) sends this to the
	// traffic's sender; the answer is the original KindNewView message, whose
	// certificates the requester verifies as usual.
	KindNewViewRequest

	// KindSpecReply carries a speculative (crash-tolerant tier) execution
	// result for a fast-commit request from a replica that accepted the
	// batch's PREPARE to the replica whose Troxy votes for the client. The
	// durable OrderedReply for the same request follows once the batch
	// commits in the Byzantine tier.
	KindSpecReply

	// KindReplyBatch carries the OrderedReplies a replica produced for one
	// origin while handling one event — the way out mirrors the way in, where
	// one PREPARE orders a batch of requests — in one envelope.
	KindReplyBatch
)

var kindNames = map[Kind]string{
	KindChannelData:    "ChannelData",
	KindBFTRequest:     "BFTRequest",
	KindBFTReply:       "BFTReply",
	KindForward:        "Forward",
	KindPrepare:        "Prepare",
	KindCommit:         "Commit",
	KindOrderedReply:   "OrderedReply",
	KindCheckpoint:     "Checkpoint",
	KindViewChange:     "ViewChange",
	KindNewView:        "NewView",
	KindCacheQuery:     "CacheQuery",
	KindCacheReply:     "CacheReply",
	KindStateRequest:   "StateRequest",
	KindStateReply:     "StateReply",
	KindBatch:          "Batch",
	KindStateChunk:     "StateChunk",
	KindStatePrefix:    "StatePrefix",
	KindNewViewRequest: "NewViewRequest",
	KindSpecReply:      "SpecReply",
	KindReplyBatch:     "ReplyBatch",
}

// String returns the kind's protocol name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Message is implemented by every wire message.
type Message interface {
	// Kind returns the message's wire discriminator.
	Kind() Kind

	// MarshalWire appends the canonical encoding of the message body.
	MarshalWire(w *wire.Writer)

	// UnmarshalWire decodes the message body. Implementations must tolerate
	// arbitrary untrusted input without panicking.
	UnmarshalWire(r *wire.Reader) error
}

// ErrUnknownKind reports an envelope with an unregistered kind.
var ErrUnknownKind = errors.New("msg: unknown message kind")

// Digest is a SHA-256 digest of a canonical message encoding.
type Digest [sha256.Size]byte

// DigestOf hashes b.
func DigestOf(b []byte) Digest { return sha256.Sum256(b) }

// Short returns a short hex prefix for logs.
func (d Digest) Short() string { return fmt.Sprintf("%x", d[:6]) }

func writeDigest(w *wire.Writer, d Digest) { w.Raw(d[:]) }

func readDigest(r *wire.Reader, d *Digest) { copy(d[:], r.FixedBytes(len(d))) }

// marshalOwned returns m's encoding in a buffer of its own, marshalled
// through a pooled writer: the one allocation is the result.
func marshalOwned(m interface{ MarshalWire(*wire.Writer) }) []byte {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	m.MarshalWire(w)
	return w.CopyBytes()
}

// EncodeBody marshals m without the kind prefix. MACs and digests are
// computed over this form together with the kind passed separately.
func EncodeBody(m Message) []byte { return marshalOwned(m) }

// decode unmarshals a fresh message of the given kind from r. The calls are
// on concrete types rather than through Message so that the reader never
// escapes and callers keep it on their stack.
func decode(k Kind, r *wire.Reader) (Message, error) {
	switch k {
	case KindChannelData:
		m := &ChannelData{}
		return m, m.UnmarshalWire(r)
	case KindBFTRequest:
		m := &BFTRequest{}
		return m, m.UnmarshalWire(r)
	case KindBFTReply:
		m := &BFTReply{}
		return m, m.UnmarshalWire(r)
	case KindForward:
		m := &Forward{}
		return m, m.UnmarshalWire(r)
	case KindPrepare:
		m := &Prepare{}
		return m, m.UnmarshalWire(r)
	case KindCommit:
		m := &Commit{}
		return m, m.UnmarshalWire(r)
	case KindOrderedReply:
		m := &OrderedReply{}
		return m, m.UnmarshalWire(r)
	case KindCheckpoint:
		m := &Checkpoint{}
		return m, m.UnmarshalWire(r)
	case KindCacheQuery:
		m := &CacheQuery{}
		return m, m.UnmarshalWire(r)
	case KindCacheReply:
		m := &CacheReply{}
		return m, m.UnmarshalWire(r)
	case KindBatch:
		m := &Batch{}
		return m, m.UnmarshalWire(r)
	case KindSpecReply:
		m := &SpecReply{}
		return m, m.UnmarshalWire(r)
	case KindReplyBatch:
		m := &ReplyBatch{}
		return m, m.UnmarshalWire(r)
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownKind, uint8(k))
	}
}

// Envelope is the transport unit exchanged between nodes. MAC, when present,
// is a point-to-point HMAC over (Kind, From, To) and what authn.Covered names for
// the kind — the body, or for a FORWARD or PREPARE the body with its requests
// replaced by their digests — computed by the untrusted replica part (or the
// BFT client library).
//
// A sender lends an envelope to Send, header, Body and MAC alike: the runtime
// copies all of it before Send returns, so the sender may reuse every byte at
// once, and owns the copy it delivers, which it recycles once the receiving
// handler has returned (node.Env's Send, node.Handler's OnEnvelope).
type Envelope struct {
	From NodeID
	To   NodeID
	Kind Kind
	Body []byte
	MAC  []byte
}

// EncodeEnvelope marshals e for the transport.
func EncodeEnvelope(e *Envelope) []byte {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	w.U32(uint32(e.From))
	w.U32(uint32(e.To))
	w.U8(uint8(e.Kind))
	w.Bytes32(e.Body)
	w.Bytes32(e.MAC)
	return w.CopyBytes()
}

// AppendEnvelopeFrame encodes e, complete with its 4-byte transport frame
// header, directly into w. It is the zero-allocation sibling of
// EncodeEnvelope for the specialized transport: the pooled writer becomes a
// ring slot and its buffer a single iovec entry of the vectored write, so no
// intermediate copy is made. The error mirrors wire.WriteFrame's oversize
// check.
func AppendEnvelopeFrame(w *wire.Writer, e *Envelope) error {
	mark := w.BeginFrame()
	w.U32(uint32(e.From))
	w.U32(uint32(e.To))
	w.U8(uint8(e.Kind))
	w.Bytes32(e.Body)
	w.Bytes32(e.MAC)
	return w.EndFrame(mark)
}

// DecodeEnvelope parses a transport frame into a new Envelope (Decode).
func DecodeEnvelope(b []byte) (*Envelope, error) {
	e := new(Envelope)
	if err := e.Decode(b); err != nil {
		return nil, err
	}
	return e, nil
}

// Decode parses a transport frame into e. Body and MAC are views of b, the
// transport's ingress chunk: the router's Send makes this hop's one copy.
func (e *Envelope) Decode(b []byte) error {
	r := wire.NewReader(b)
	*e = Envelope{From: NodeID(int32(r.U32())), To: NodeID(int32(r.U32())), Kind: Kind(r.U8())}
	e.Body, e.MAC = r.Bytes32(), r.Bytes32()
	if err := r.Finish(); err != nil {
		return fmt.Errorf("decode envelope: %w", err)
	}
	return nil
}

// WireSize returns the number of bytes e occupies on the wire (including the
// transport frame header). The simulator charges NIC bandwidth per this size.
func (e *Envelope) WireSize() int {
	return 4 /*frame hdr*/ + 4 + 4 + 1 + wire.SizeBytes32(e.Body) + wire.SizeBytes32(e.MAC)
}

// Open decodes the envelope's body into a typed message. The message's byte
// fields are views of Body: they must not be modified, and a handler that
// stores one copies it at that point. The recovery kinds (view change, state
// transfer) are not this package's: hybster.Open decodes those, and Open
// returns ErrUnknownKind for them.
func (e *Envelope) Open() (Message, error) {
	r := wire.NewReader(e.Body)
	m, err := decode(e.Kind, r)
	if err == nil {
		err = r.Finish()
	}
	if err != nil {
		return nil, fmt.Errorf("open %s envelope: %w", e.Kind, err)
	}
	return m, nil
}

// TroxyTagged reports the kinds a Troxy tags and only Troxies check: cache
// queries, cache replies and reply batches (each of whose replies carries its
// executor's tag). Their envelopes carry no point-to-point MAC — the tags
// bind the sender (a cache message's From, a reply's Executor), the kind and,
// for the cache exchange, the destination, which is all the MAC would add —
// and the envelope's From names nobody: it is never used.
func (k Kind) TroxyTagged() bool {
	return k == KindCacheQuery || k == KindCacheReply || k == KindReplyBatch
}

// Seal encodes m into an envelope from→to with no MAC. Callers that need
// point-to-point authentication pass the envelope through authn.SealMessage.
func Seal(from, to NodeID, m Message) *Envelope {
	return &Envelope{From: from, To: to, Kind: m.Kind(), Body: EncodeBody(m)}
}

// SealChannelData is Seal for the one kind that crosses a hop per client
// record in each direction: the ChannelData exists on this frame only, so the
// envelope and its body are all that is allocated.
func SealChannelData(from, to NodeID, connID uint64, payload []byte) *Envelope {
	body := AppendChannelDataHead(make([]byte, 0, channelDataHead+len(payload)), connID, len(payload))
	return &Envelope{From: from, To: to, Kind: KindChannelData, Body: append(body, payload...)}
}

// channelDataHead is the length of a ChannelData's encoding in front of its
// payload: the connection ID and the payload's length prefix.
const channelDataHead = 8 + 4

// AppendChannelDataHead appends to dst the head of a ChannelData for connID
// whose payload is n bytes: the n bytes appended behind it complete the
// encoding (ChannelData.MarshalWire's). A record sealed straight behind it
// (securechannel.Session.AppendSeal) travels without a copy of its own, and a
// sender that appends into a buffer it reuses allocates nothing.
func AppendChannelDataHead(dst []byte, connID uint64, n int) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, connID)
	return binary.LittleEndian.AppendUint32(dst, uint32(n))
}

// OpenChannelData is Open for a ChannelData envelope, by value: any other
// kind is an error, and the payload is a view of Body.
func (e *Envelope) OpenChannelData() (ChannelData, error) {
	var cd ChannelData
	if e.Kind != KindChannelData {
		return cd, fmt.Errorf("open %s envelope: not channel data", e.Kind)
	}
	r := wire.NewReader(e.Body)
	err := cd.UnmarshalWire(r)
	if err == nil {
		err = r.Finish()
	}
	if err != nil {
		return ChannelData{}, fmt.Errorf("open %s envelope: %w", e.Kind, err)
	}
	return cd, nil
}
