package msg

import (
	"errors"

	"github.com/troxy-bft/troxy/internal/wire"
)

// This file defines the plaintext frames exchanged *inside* a legacy
// client's secure channel for the generic request/reply service protocol
// (used by the microbenchmark service and the KV store). HTTP clients use
// raw HTTP/1.1 bytes instead; see internal/httpfront.

// ChannelRequest is one client operation sent over a secure channel. Client
// is the caller's self-chosen identity; it survives reconnects so that the
// ordering protocol can deduplicate retransmitted writes after a failover.
type ChannelRequest struct {
	Client uint64
	Seq    uint64
	Flags  uint8
	Op     []byte
}

// ChannelReply answers a ChannelRequest over the same channel.
type ChannelReply struct {
	Seq    uint64
	Status uint8
	Result []byte
}

// Channel reply status codes.
const (
	// StatusOK reports successful execution.
	StatusOK uint8 = iota + 1

	// StatusError reports that the service rejected the operation.
	StatusError

	// StatusSpeculative reports a crash-tolerant-tier result: f+1 replicas
	// answered at PREPARE time for a fast-commit request. The durable tier
	// is still completing; the same Seq is later confirmed silently or
	// retracted with StatusRetracted.
	StatusSpeculative

	// StatusRetracted withdraws an earlier StatusSpeculative result for the
	// same Seq: the speculation lost a view change (or the durable quorum
	// disagreed with it). Result carries the attribution string; a durable
	// repair reply for the same Seq follows once the retried request
	// commits.
	StatusRetracted
)

// ErrBadChannelFrame reports a malformed plaintext frame.
var ErrBadChannelFrame = errors.New("msg: malformed channel frame")

// EncodeChannelRequest marshals the request frame into a buffer of its own.
// The request path appends with MarshalWire into a pooled writer instead.
func EncodeChannelRequest(m *ChannelRequest) []byte { return marshalOwned(m) }

// MarshalWire appends the request frame.
func (m *ChannelRequest) MarshalWire(w *wire.Writer) {
	w.U64(m.Client)
	w.U64(m.Seq)
	w.U8(m.Flags)
	w.Bytes32(m.Op)
}

// DecodeChannelRequest parses a request frame. Op is a view of b.
func DecodeChannelRequest(b []byte) (ChannelRequest, error) {
	r := wire.NewReader(b)
	m := ChannelRequest{
		Client: r.U64(),
		Seq:    r.U64(),
		Flags:  r.U8(),
		Op:     r.Bytes32(),
	}
	if err := r.Finish(); err != nil {
		return ChannelRequest{}, errors.Join(ErrBadChannelFrame, err)
	}
	return m, nil
}

// MarshalWire appends the reply frame.
func (m *ChannelReply) MarshalWire(w *wire.Writer) {
	w.U64(m.Seq)
	w.U8(m.Status)
	w.Bytes32(m.Result)
}

// DecodeChannelReply parses a reply frame. Result is a view of b.
func DecodeChannelReply(b []byte) (ChannelReply, error) {
	r := wire.NewReader(b)
	m := ChannelReply{
		Seq:    r.U64(),
		Status: r.U8(),
		Result: r.Bytes32(),
	}
	if err := r.Finish(); err != nil {
		return ChannelReply{}, errors.Join(ErrBadChannelFrame, err)
	}
	return m, nil
}
