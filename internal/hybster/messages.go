package hybster

import (
	"fmt"

	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/wire"
)

// The recovery messages: view change and state transfer. Only replicas speak
// them, so they live with the protocol and stay out of msg, which the Troxy
// compiles into its enclave; their Kind constants are msg's, like every
// kind's.

// Open decodes e's body into a typed message. The recovery kinds are decoded
// from one clone of the body, because their handlers keep the decoded
// message as it is — view-change evidence is held until the view installs,
// relayed to stale replicas and re-proposed from, and state-transfer pieces
// are buffered out of order until their turn — so it owns every byte it
// points to. Every other kind goes to e.Open: a view of the body, whose
// handler copies what it stores.
func Open(e *msg.Envelope) (msg.Message, error) {
	var m msg.Message
	switch e.Kind {
	case msg.KindViewChange:
		m = &ViewChange{}
	case msg.KindNewView:
		m = &NewView{}
	case msg.KindNewViewRequest:
		m = &NewViewRequest{}
	case msg.KindStateRequest:
		m = &StateRequest{}
	case msg.KindStateReply:
		m = &StateReply{}
	case msg.KindStateChunk:
		m = &StateChunk{}
	case msg.KindStatePrefix:
		m = &StatePrefix{}
	default:
		return e.Open()
	}
	r := wire.NewReader(append([]byte(nil), e.Body...))
	err := m.UnmarshalWire(r)
	if err == nil {
		err = r.Finish()
	}
	if err != nil {
		return nil, fmt.Errorf("open %s envelope: %w", e.Kind, err)
	}
	return m, nil
}

// PreparedEntry is a batch a replica has prepared (verified the leader's
// Prepare for) but that may not yet be stable. View changes carry these so
// the new leader can re-propose them and no in-flight batch is lost.
type PreparedEntry struct {
	View  uint64
	Seq   uint64
	Batch msg.Batch
	// PrepareCert is the certificate from the original Prepare, proving the
	// old leader proposed this batch at this sequence number.
	PrepareCert msg.CounterCert
}

// MarshalWire encodes the entry.
func (m *PreparedEntry) MarshalWire(w *wire.Writer) {
	w.U64(m.View)
	w.U64(m.Seq)
	m.Batch.MarshalWire(w)
	m.PrepareCert.MarshalWire(w)
}

// UnmarshalWire decodes the entry.
func (m *PreparedEntry) UnmarshalWire(r *wire.Reader) error {
	m.View = r.U64()
	m.Seq = r.U64()
	if err := m.Batch.UnmarshalWire(r); err != nil {
		return err
	}
	return m.PrepareCert.UnmarshalWire(r)
}

// ViewChange announces that the sender wants to move to view NewView. It
// carries the sender's stable checkpoint and everything prepared above it,
// certified by the sender's trusted counter (so a replica cannot send two
// different view-change messages for the same view).
type ViewChange struct {
	Replica      msg.NodeID
	NewView      uint64
	StableSeq    uint64
	StableDigest msg.Digest
	Prepared     []PreparedEntry
	Cert         msg.CounterCert
}

// Kind implements msg.Message.
func (*ViewChange) Kind() msg.Kind { return msg.KindViewChange }

// MarshalWire implements msg.Message.
func (m *ViewChange) MarshalWire(w *wire.Writer) {
	m.marshalCore(w)
	m.Cert.MarshalWire(w)
}

func (m *ViewChange) marshalCore(w *wire.Writer) {
	w.U32(uint32(m.Replica))
	w.U64(m.NewView)
	w.U64(m.StableSeq)
	w.Raw(m.StableDigest[:])
	w.U32(uint32(len(m.Prepared)))
	for i := range m.Prepared {
		m.Prepared[i].MarshalWire(w)
	}
}

// CertDigest returns the digest of the canonical bytes the view-change
// certificate signs.
func (m *ViewChange) CertDigest() msg.Digest {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	m.marshalCore(w)
	return msg.DigestOf(w.Bytes())
}

// UnmarshalWire implements msg.Message.
func (m *ViewChange) UnmarshalWire(r *wire.Reader) error {
	m.Replica = msg.NodeID(int32(r.U32()))
	m.NewView = r.U64()
	m.StableSeq = r.U64()
	copy(m.StableDigest[:], r.FixedBytes(len(m.StableDigest)))
	n := r.SliceLen()
	if r.Err() != nil {
		return r.Err()
	}
	m.Prepared = nil
	if n > 0 {
		m.Prepared = make([]PreparedEntry, 0, min(n, 64))
	}
	for i := 0; i < n; i++ {
		var e PreparedEntry
		if err := e.UnmarshalWire(r); err != nil {
			return err
		}
		m.Prepared = append(m.Prepared, e)
	}
	return m.Cert.UnmarshalWire(r)
}

// NewView installs view View. It carries the f+1 view-change messages that
// justify the switch and is certified by the new leader's counter.
type NewView struct {
	Leader      msg.NodeID
	View        uint64
	ViewChanges []ViewChange
	Cert        msg.CounterCert
}

// Kind implements msg.Message.
func (*NewView) Kind() msg.Kind { return msg.KindNewView }

// MarshalWire implements msg.Message.
func (m *NewView) MarshalWire(w *wire.Writer) {
	m.marshalCore(w)
	m.Cert.MarshalWire(w)
}

func (m *NewView) marshalCore(w *wire.Writer) {
	w.U32(uint32(m.Leader))
	w.U64(m.View)
	w.U32(uint32(len(m.ViewChanges)))
	for i := range m.ViewChanges {
		m.ViewChanges[i].MarshalWire(w)
	}
}

// CertDigest returns the digest of the canonical bytes the new-view
// certificate signs.
func (m *NewView) CertDigest() msg.Digest {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	m.marshalCore(w)
	return msg.DigestOf(w.Bytes())
}

// UnmarshalWire implements msg.Message.
func (m *NewView) UnmarshalWire(r *wire.Reader) error {
	m.Leader = msg.NodeID(int32(r.U32()))
	m.View = r.U64()
	n := r.SliceLen()
	if r.Err() != nil {
		return r.Err()
	}
	m.ViewChanges = nil
	if n > 0 {
		m.ViewChanges = make([]ViewChange, 0, min(n, 16))
	}
	for i := 0; i < n; i++ {
		var vc ViewChange
		if err := vc.UnmarshalWire(r); err != nil {
			return err
		}
		m.ViewChanges = append(m.ViewChanges, vc)
	}
	return m.Cert.UnmarshalWire(r)
}

// StateRequest asks a peer for state-transfer data at the stable checkpoint
// Seq. The requester has already agreed on the checkpoint digest (f+1
// matching Checkpoint messages) and verifies everything it receives against
// it. An empty Chunks slice asks for the chunk manifest (and the certified
// prefix of in-flight prepared entries); a non-empty one asks for the listed
// chunk indices of the manifest the requester already holds.
type StateRequest struct {
	Seq    uint64
	Chunks []uint32
}

// Kind implements msg.Message.
func (*StateRequest) Kind() msg.Kind { return msg.KindStateRequest }

// MarshalWire implements msg.Message.
func (m *StateRequest) MarshalWire(w *wire.Writer) {
	w.U64(m.Seq)
	w.U32(uint32(len(m.Chunks)))
	for _, idx := range m.Chunks {
		w.U32(idx)
	}
}

// UnmarshalWire implements msg.Message.
func (m *StateRequest) UnmarshalWire(r *wire.Reader) error {
	m.Seq = r.U64()
	n := r.SliceLen()
	if r.Err() != nil {
		return r.Err()
	}
	m.Chunks = make([]uint32, 0, min(n, 64))
	for i := 0; i < n && r.Err() == nil; i++ {
		m.Chunks = append(m.Chunks, r.U32())
	}
	return r.Err()
}

// StateReply answers a manifest-requesting StateRequest with the chunk
// manifest of the snapshot at Seq (per-chunk digests plus layout — see
// snapshot.go). The manifest needs no authentication beyond
// the transport MAC: its hash is exactly the digest the requester agreed on
// through f+1 matching CHECKPOINT votes, and each later chunk is verified
// against the per-chunk digest inside it.
type StateReply struct {
	Seq      uint64
	Manifest []byte
}

// Kind implements msg.Message.
func (*StateReply) Kind() msg.Kind { return msg.KindStateReply }

// MarshalWire implements msg.Message.
func (m *StateReply) MarshalWire(w *wire.Writer) {
	w.U64(m.Seq)
	w.Bytes32(m.Manifest)
}

// UnmarshalWire implements msg.Message.
func (m *StateReply) UnmarshalWire(r *wire.Reader) error {
	m.Seq = r.U64()
	m.Manifest = r.Bytes32()
	return r.Err()
}

// StateChunk carries one piece of the chunked snapshot at checkpoint Seq.
// Data must hash to the manifest's digest for Index (and match its declared
// length), so a tampered chunk is rejected without trusting the server.
type StateChunk struct {
	Seq   uint64
	Index uint32
	Data  []byte
}

// Kind implements msg.Message.
func (*StateChunk) Kind() msg.Kind { return msg.KindStateChunk }

// MarshalWire implements msg.Message.
func (m *StateChunk) MarshalWire(w *wire.Writer) {
	w.U64(m.Seq)
	w.U32(m.Index)
	w.Bytes32(m.Data)
}

// UnmarshalWire implements msg.Message.
func (m *StateChunk) UnmarshalWire(r *wire.Reader) error {
	m.Seq = r.U64()
	m.Index = r.U32()
	m.Data = r.Bytes32()
	return r.Err()
}

// StatePrefix hands a state-transferring replica the serving peer's
// in-flight prepared entries above checkpoint Seq. Every entry carries the
// original leader's counter certificate (the same evidence view changes
// carry), so the joiner verifies each entry independently of the server's
// honesty and can resume ordering mid-window instead of replaying from the
// checkpoint or waiting for the next one. LastExec is the server's executed
// high mark, advisory only.
//
// NewView, when present, is the NEW-VIEW message that installed the server's
// current view. A joiner that slept through a view change would otherwise
// skip every prefix entry (wrong view) and defer the cluster's live traffic
// indefinitely; carrying the installing evidence lets it adopt the view —
// after full certificate verification — atomically with the snapshot. Nil
// when the server is still in the initial view.
type StatePrefix struct {
	Seq      uint64
	LastExec uint64
	Entries  []PreparedEntry
	NewView  *NewView
}

// Kind implements msg.Message.
func (*StatePrefix) Kind() msg.Kind { return msg.KindStatePrefix }

// MarshalWire implements msg.Message.
func (m *StatePrefix) MarshalWire(w *wire.Writer) {
	w.U64(m.Seq)
	w.U64(m.LastExec)
	w.U32(uint32(len(m.Entries)))
	for i := range m.Entries {
		m.Entries[i].MarshalWire(w)
	}
	w.Bool(m.NewView != nil)
	if m.NewView != nil {
		m.NewView.MarshalWire(w)
	}
}

// UnmarshalWire implements msg.Message.
func (m *StatePrefix) UnmarshalWire(r *wire.Reader) error {
	m.Seq = r.U64()
	m.LastExec = r.U64()
	n := r.SliceLen()
	if r.Err() != nil {
		return r.Err()
	}
	m.Entries = make([]PreparedEntry, 0, min(n, 64))
	for i := 0; i < n; i++ {
		var e PreparedEntry
		if err := e.UnmarshalWire(r); err != nil {
			return err
		}
		m.Entries = append(m.Entries, e)
	}
	m.NewView = nil
	if r.Bool() {
		m.NewView = &NewView{}
		if err := m.NewView.UnmarshalWire(r); err != nil {
			return err
		}
	}
	return r.Err()
}

// NewViewRequest solicits the NEW-VIEW that installed the receiver's current
// view (or any later one it holds). View is the lowest view the requester
// needs evidence for — the view of the certified message whose deferral
// triggered the solicitation.
type NewViewRequest struct {
	View uint64
}

// Kind implements msg.Message.
func (*NewViewRequest) Kind() msg.Kind { return msg.KindNewViewRequest }

// MarshalWire implements msg.Message.
func (m *NewViewRequest) MarshalWire(w *wire.Writer) {
	w.U64(m.View)
}

// UnmarshalWire implements msg.Message.
func (m *NewViewRequest) UnmarshalWire(r *wire.Reader) error {
	m.View = r.U64()
	return r.Err()
}

var (
	_ msg.Message = (*ViewChange)(nil)
	_ msg.Message = (*NewView)(nil)
	_ msg.Message = (*NewViewRequest)(nil)
	_ msg.Message = (*StateRequest)(nil)
	_ msg.Message = (*StateReply)(nil)
	_ msg.Message = (*StateChunk)(nil)
	_ msg.Message = (*StatePrefix)(nil)
)
