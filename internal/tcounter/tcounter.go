// Package tcounter implements the trusted monotonic-counter subsystem that
// Hybster (and hence Troxy's prototype) relies on to reduce the replica
// count to 2f+1. It is the TrInc/TrInX analogue: a small trusted service
// that certifies (counter, value, message-digest) bindings with a key shared
// only among trusted subsystems, and guarantees that
//
//   - each counter value is certified at most once (no equivocation), and
//   - values are strictly increasing (no rollback).
//
// The subsystem runs inside an enclave (internal/enclave) and is reachable
// from the untrusted replica part only through its ecall facade; the
// certification key arrives via post-attestation provisioning. Trusted code
// co-located in the same enclave (the Troxy) may call it directly.
package tcounter

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"sync"

	"github.com/troxy-bft/troxy/internal/enclave"
	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/wire"
)

// Well-known counter IDs. Ordering counters are indexed by view number and
// therefore use the low ID space; control counters live high.
const (
	// ViewChangeCounter certifies view-change messages.
	ViewChangeCounter uint32 = 1<<31 + iota

	// NewViewCounter certifies new-view messages.
	NewViewCounter
)

// OrderCounter returns the ordering-counter ID for a view.
func OrderCounter(view uint64) uint32 { return uint32(view & 0x7fffffff) }

// LaneOf returns the certification lane of a sequence number under a
// pipeline of the given depth: lanes stripe the sequence space round-robin,
// so any window of depth consecutive sequence numbers touches each lane at
// most once. Depth <= 1 collapses to a single lane.
func LaneOf(seq uint64, depth int) int {
	if depth <= 1 {
		return 0
	}
	return int((seq - 1) % uint64(depth))
}

// OrderLaneCounter returns the ordering-counter ID for (view, lane) under a
// pipeline of the given depth. A counter certifies strictly increasing
// values, which forces in-order certification; partitioning the sequence
// space into depth lanes — each lane a distinct counter whose values within
// a view are exactly seq, seq+depth, seq+2*depth, ... — keeps every
// certified statement on a monotonic counter while letting statements for
// different lanes be certified (and voted on) in any order. The receiver's
// per-lane continuity check (next value in a lane is previous + depth)
// preserves the hole-freedom and no-equivocation arguments lane by lane.
//
// Depth <= 1 reduces to OrderCounter, so the unpipelined wire format is
// unchanged. The masking keeps all lane counters below the control-counter
// space at 1<<31 (ViewChangeCounter, NewViewCounter).
func OrderLaneCounter(view uint64, lane, depth int) uint32 {
	if depth <= 1 {
		return OrderCounter(view)
	}
	return uint32((view*uint64(depth) + uint64(lane)) & 0x7fffffff)
}

// Errors returned by the subsystem.
var (
	// ErrNotProvisioned reports certification before the key arrived.
	ErrNotProvisioned = errors.New("tcounter: not provisioned")

	// ErrNotMonotonic reports an attempt to certify a value at or below the
	// counter's last certified value.
	ErrNotMonotonic = errors.New("tcounter: value not monotonically increasing")
)

// SecretName is the provisioning key under which the certification secret is
// delivered to the enclave.
const SecretName = "counter-key"

// Subsystem is the trusted-counter state of one replica. It is safe for
// concurrent use.
type Subsystem struct {
	owner msg.NodeID

	mu       sync.Mutex
	key      []byte // troxy:secret certification key shared among the deployment's trusted counters
	mac      hash.Hash
	counters map[uint32]uint64

	// Scratch for one MAC computation, under mu: what is handed to a
	// hash.Hash leaves the stack, so a certificate's input and a
	// verification's sum live here instead of being allocated per call.
	input [certInputLen]byte
	sum   [sha256.Size]byte
}

// NewSubsystem creates the (unprovisioned) subsystem for a replica.
func NewSubsystem(owner msg.NodeID) *Subsystem {
	return &Subsystem{owner: owner, counters: make(map[uint32]uint64)}
}

// Reset wipes volatile state (counters and key); used on enclave restart.
func (s *Subsystem) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.key = nil
	s.mac = nil
	s.counters = make(map[uint32]uint64)
}

// SetKey installs the certification secret (from provisioning).
func (s *Subsystem) SetKey(key []byte) {
	k := make([]byte, len(key))
	copy(k, key)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.key = k
	s.mac = hmac.New(sha256.New, k)
}

// certInputLen is the length of the byte string a certificate's MAC covers.
const certInputLen = 4 + len("tcounter-cert") + 4 + 4 + 8 + sha256.Size

// feed resets the subsystem's HMAC and writes the canonical byte string of a
// certificate to it. The caller holds s.mu.
func (s *Subsystem) feed(replica msg.NodeID, counter uint32, value uint64, digest msg.Digest) {
	b := wire.AppendString(s.input[:0], "tcounter-cert")
	b = binary.LittleEndian.AppendUint32(b, uint32(replica))
	b = binary.LittleEndian.AppendUint32(b, counter)
	b = binary.LittleEndian.AppendUint64(b, value)
	b = append(b, digest[:]...)
	s.mac.Reset()
	s.mac.Write(b)
}

// Certify binds digest to the next value of the given counter. The value
// must be strictly greater than the last certified value; the first
// certified value of a counter may be arbitrary (>0), which lets a new
// leader start its ordering counter at the sequence number where the
// previous view ended. The certificate's MAC is the caller's.
func (s *Subsystem) Certify(counter uint32, value uint64, digest msg.Digest) (msg.CounterCert, error) {
	enc, err := s.certify(make([]byte, 0, certLen), counter, value, digest)
	if err != nil {
		return msg.CounterCert{}, err
	}
	return msg.CounterCert{Replica: s.owner, Counter: counter, Value: value, MAC: enc[certLen-sha256.Size:]}, nil
}

const certLen = 4 + 4 + 8 + 4 + sha256.Size // a certificate's encoding (msg.CounterCert.MarshalWire)

// certify is Certify appending the certificate's encoding to dst, which has
// room for it: the MAC is summed straight into it.
func (s *Subsystem) certify(dst []byte, counter uint32, value uint64, digest msg.Digest) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.key == nil {
		return nil, ErrNotProvisioned
	}
	last, used := s.counters[counter]
	if used && value <= last {
		return nil, fmt.Errorf("%w: counter %d at %d, asked %d",
			ErrNotMonotonic, counter, last, value)
	}
	if !used && value == 0 {
		return nil, fmt.Errorf("%w: first value must be positive", ErrNotMonotonic)
	}
	s.counters[counter] = value

	s.feed(s.owner, counter, value, digest)
	b := binary.LittleEndian.AppendUint32(dst, uint32(s.owner))
	b = binary.LittleEndian.AppendUint32(b, counter)
	b = binary.LittleEndian.AppendUint64(b, value)
	b = binary.LittleEndian.AppendUint32(b, sha256.Size)
	return s.mac.Sum(b), nil
}

// Verify checks a certificate produced by any replica's subsystem against
// the digest it allegedly binds.
func (s *Subsystem) Verify(cert msg.CounterCert, digest msg.Digest) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mac == nil || len(cert.MAC) != sha256.Size {
		return false
	}
	s.feed(cert.Replica, cert.Counter, cert.Value, digest)
	return hmac.Equal(s.mac.Sum(s.sum[:0]), cert.MAC)
}

// Value returns the last certified value of a counter (0 if unused).
func (s *Subsystem) Value(counter uint32) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters[counter]
}

// Authority is the interface through which protocol code (which runs in the
// untrusted replica part) uses the trusted counters. The enclave-backed
// implementation crosses the boundary per call, which is exactly where the
// paper's JNI+SGX overhead sits.
type Authority interface {
	// Certify binds digest to value on counter; it fails if the binding
	// would violate monotonicity.
	Certify(counter uint32, value uint64, digest msg.Digest) (msg.CounterCert, error)

	// Verify checks a certificate against a digest.
	Verify(cert msg.CounterCert, digest msg.Digest) bool
}

// Direct adapts a Subsystem to Authority without an enclave boundary (used
// by trusted code co-located in the same enclave, and by the "ctroxy"
// configuration of the evaluation that runs outside SGX).
type Direct struct {
	S *Subsystem
}

// Certify implements Authority.
func (d Direct) Certify(counter uint32, value uint64, digest msg.Digest) (msg.CounterCert, error) {
	return d.S.Certify(counter, value, digest)
}

// Verify implements Authority.
func (d Direct) Verify(cert msg.CounterCert, digest msg.Digest) bool {
	return d.S.Verify(cert, digest)
}

var _ Authority = Direct{}

// ECall names exposed by the counter subsystem when hosted in an enclave.
const (
	ECallCertify = "counter_certify"
	ECallVerify  = "counter_verify"
)

// The two results of the verify ecall. The handler returns them as they are:
// the boundary copies a result out, so no caller ever holds these arrays.
var verifyPassed, verifyFailed = []byte{1}, []byte{0}

// ECallHandlers returns the ecall table fragment for hosting s inside an
// enclave; Troxy merges it into its own fixed ecall table. Arguments are
// decoded by view (the enclave owns its copy of them for the length of the
// call) and nothing of them is kept. A certificate is encoded into the table's
// scratch, which the boundary copies out before its next call (one thread).
//
// Not inlined: the copies of the handlers that inlining makes in a caller are
// compiled without inlining of their own, and wire.NewReader as a real call
// returns a heap object — one allocation per crossing.
//
//go:noinline
func ECallHandlers(s *Subsystem) map[string]func([]byte) ([]byte, error) {
	var certified [certLen]byte
	return map[string]func([]byte) ([]byte, error){
		ECallCertify: func(arg []byte) ([]byte, error) {
			r := wire.NewReader(arg)
			counter := r.U32()
			value := r.U64()
			var digest msg.Digest
			copy(digest[:], r.FixedBytes(len(digest)))
			if err := r.Finish(); err != nil {
				return nil, fmt.Errorf("tcounter: certify args: %w", err)
			}
			return s.certify(certified[:0], counter, value, digest)
		},
		ECallVerify: func(arg []byte) ([]byte, error) {
			r := wire.NewReader(arg)
			var cert msg.CounterCert
			_ = cert.UnmarshalWire(r) // the reader keeps its error for Finish
			var digest msg.Digest
			copy(digest[:], r.FixedBytes(len(digest)))
			if err := r.Finish(); err != nil {
				return nil, fmt.Errorf("tcounter: verify args: %w", err)
			}
			if s.Verify(cert, digest) {
				return verifyPassed, nil
			}
			return verifyFailed, nil
		},
	}
}

// Hosted wraps a Subsystem as standalone enclave-trusted code, for replicas
// that run only the counter subsystem inside SGX (the baseline Hybster
// configuration, which has no Troxy).
type Hosted struct {
	S *Subsystem
}

var _ enclave.Trusted = Hosted{}

// ECalls implements enclave.Trusted.
func (h Hosted) ECalls() map[string]func([]byte) ([]byte, error) {
	return ECallHandlers(h.S)
}

// OnStart implements enclave.Trusted.
func (h Hosted) OnStart(*enclave.Services) { h.S.Reset() }

// Provision implements enclave.Trusted.
func (h Hosted) Provision(secrets map[string][]byte) error {
	key, ok := secrets[SecretName]
	if !ok {
		return ErrNotProvisioned
	}
	h.S.SetKey(key)
	return nil
}

// EnclaveAuthority is the untrusted-side Authority that crosses an enclave
// boundary per operation.
type EnclaveAuthority struct {
	E *enclave.Enclave
}

// Certify implements Authority via the counter_certify ecall. The returned
// certificate's MAC is a view of the ecall's result, which the boundary's
// copy-out made the caller's own.
func (a EnclaveAuthority) Certify(counter uint32, value uint64, digest msg.Digest) (msg.CounterCert, error) {
	var arg [4 + 8 + sha256.Size]byte
	b := binary.LittleEndian.AppendUint32(arg[:0], counter)
	b = binary.LittleEndian.AppendUint64(b, value)
	b = append(b, digest[:]...)
	out, err := a.E.ECall(ECallCertify, b)
	if err != nil {
		return msg.CounterCert{}, err
	}
	r := wire.NewReader(out)
	var cert msg.CounterCert
	_ = cert.UnmarshalWire(r) // the reader keeps its error for Finish
	if err := r.Finish(); err != nil {
		return msg.CounterCert{}, fmt.Errorf("tcounter: certify result: %w", err)
	}
	return cert, nil
}

// Verify implements Authority via the counter_verify ecall, whose one-byte
// result is copied out onto this frame.
func (a EnclaveAuthority) Verify(cert msg.CounterCert, digest msg.Digest) bool {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	cert.MarshalWire(w)
	w.Raw(digest[:])
	var verdict [1]byte
	out, err := a.E.ECallAppend(verdict[:0], ECallVerify, w.Bytes())
	if err != nil {
		return false
	}
	return len(out) == 1 && out[0] == 1
}

var _ Authority = EnclaveAuthority{}
