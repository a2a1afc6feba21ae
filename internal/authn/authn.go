// Package authn implements the message-authentication primitives of a
// Troxy-backed system:
//
//   - a pairwise HMAC-SHA256 authenticator matrix for replica↔replica and
//     client↔replica messages (the "common message certificates" of BFT
//     systems), used by the untrusted replica parts; and
//   - the Troxy group authenticator, an HMAC keyed with a secret shared only
//     among the trusted subsystems, bound to each Troxy's instance ID
//     (Section IV-A of the paper).
//
// Keys are derived from a deployment master secret with HKDF so that tests
// and deployments can provision a whole cluster from a single secret. In a
// real SGX deployment the per-enclave secrets would be delivered during
// post-attestation provisioning; internal/enclave models that step.
package authn

import (
	"crypto/hkdf"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"strconv"

	"github.com/troxy-bft/troxy/internal/msg"
	"github.com/troxy-bft/troxy/internal/wire"
)

// TagSize is the size of all authentication tags.
const TagSize = sha256.Size

// KeySize is the size of all derived symmetric keys.
const KeySize = 32

// ErrBadKeySize reports a malformed master secret.
var ErrBadKeySize = errors.New("authn: master secret must not be empty")

// Directory derives and serves all symmetric keys of a deployment. It is an
// abstraction of the key-provisioning step: each node receives only the keys
// it is entitled to (see Provision).
type Directory struct {
	master []byte // troxy:secret deployment master secret; every other key derives from it
}

// NewDirectory creates a key directory from a deployment master secret.
func NewDirectory(master []byte) (*Directory, error) {
	if len(master) == 0 {
		return nil, ErrBadKeySize
	}
	m := make([]byte, len(master))
	copy(m, master)
	return &Directory{master: m}, nil
}

func (d *Directory) derive(label string) []byte {
	key, err := hkdf.Key(sha256.New, d.master, nil, label, KeySize)
	if err != nil {
		// hkdf.Key only fails for absurd output lengths; KeySize is fixed.
		panic(fmt.Sprintf("authn: hkdf: %v", err))
	}
	return key
}

// PairKey returns the shared secret between nodes a and b. The key is
// symmetric in its arguments.
func (d *Directory) PairKey(a, b msg.NodeID) []byte {
	if a > b {
		a, b = b, a
	}
	return d.derive("pair/" + strconv.FormatInt(int64(a), 10) + "/" + strconv.FormatInt(int64(b), 10))
}

// TroxyGroupKey returns the secret shared among all trusted subsystems.
func (d *Directory) TroxyGroupKey() []byte { return d.derive("troxy-group") }

// ServiceIdentitySeed returns the Ed25519 seed of the service's TLS
// identity, provisioned into every Troxy enclave after attestation.
func (d *Directory) ServiceIdentitySeed() []byte { return d.derive("service-identity") }

// CounterKey returns the secret the trusted-counter subsystems use to
// certify counter values. Like the Troxy group key it is only ever handed to
// trusted subsystems.
func (d *Directory) CounterKey() []byte { return d.derive("trusted-counter") }

// Authenticator computes and verifies point-to-point HMACs for one node. It
// lazily derives pairwise keys from the directory. Authenticator is not safe
// for concurrent use; each protocol state machine owns one.
type Authenticator struct {
	self msg.NodeID
	dir  *Directory
	macs map[msg.NodeID]hash.Hash

	// Scratch for one MAC computation: what is handed to a hash.Hash leaves
	// the stack, so the header and a verification's sum live here instead of
	// being allocated per call.
	hdr [9]byte
	sum [TagSize]byte
}

// NewAuthenticator creates the authenticator for node self.
func NewAuthenticator(self msg.NodeID, dir *Directory) *Authenticator {
	return &Authenticator{self: self, dir: dir, macs: make(map[msg.NodeID]hash.Hash)}
}

// mac returns the cached keyed HMAC for a peer (creating one costs four
// SHA-256 compressions; reusing via Reset costs none), fed with everything
// a point-to-point MAC covers: the header (kind, from, to) and the covered
// bytes behind it, as two writes, so those are hashed where they lie.
func (a *Authenticator) mac(peer msg.NodeID, e *msg.Envelope, covered []byte) hash.Hash {
	m, ok := a.macs[peer]
	if !ok {
		m = hmac.New(sha256.New, a.dir.PairKey(a.self, peer))
		a.macs[peer] = m
	}
	m.Reset()
	a.hdr = [9]byte{byte(e.Kind),
		byte(e.From), byte(e.From >> 8), byte(e.From >> 16), byte(e.From >> 24),
		byte(e.To), byte(e.To >> 8), byte(e.To >> 16), byte(e.To >> 24)}
	m.Write(a.hdr[:])
	m.Write(covered)
	return m
}

// SealMAC computes and attaches the point-to-point MAC over the header and the
// whole body of an outgoing envelope. The envelope's From must be the
// authenticator's node. The tag is the envelope's own allocation: it travels
// with it and is never reused.
func (a *Authenticator) SealMAC(e *msg.Envelope) {
	e.MAC = a.mac(e.To, e, e.Body).Sum(make([]byte, 0, TagSize))
}

// VerifyMAC checks a point-to-point MAC over the header and the whole body of
// an incoming envelope. The envelope's To must be the authenticator's node.
func (a *Authenticator) VerifyMAC(e *msg.Envelope) bool {
	return a.verify(e, e.Body)
}

func (a *Authenticator) verify(e *msg.Envelope, covered []byte) bool {
	if len(e.MAC) != TagSize {
		return false
	}
	return hmac.Equal(a.mac(e.From, e, covered).Sum(a.sum[:0]), e.MAC)
}

// SealMessage attaches the point-to-point MAC a replica expects on an envelope
// whose body is m's encoding: over the header and msg.Covered, which for the
// kinds that order requests is their digests — memoised in m, so a sender that
// has them hashes no operation — and for every other kind the body, as
// SealMAC. It returns how many bytes behind the header the MAC covered, which
// is what a runtime that prices MACs charges.
func (a *Authenticator) SealMessage(e *msg.Envelope, m msg.Message) int {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	covered := msg.Covered(w, m, e.Body)
	e.MAC = a.mac(e.To, e, covered).Sum(make([]byte, 0, TagSize))
	return len(covered)
}

// VerifyMessage checks the MAC SealMessage attaches, given the message m that
// e.Body decoded to (completely: Envelope.Open rejects trailing bytes, so the
// covered encoding binds every byte of the body). It returns the covered
// length beside the verdict.
func (a *Authenticator) VerifyMessage(e *msg.Envelope, m msg.Message) (bool, int) {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	covered := msg.Covered(w, m, e.Body)
	return a.verify(e, covered), len(covered)
}

// GroupTagger computes Troxy group tags. It lives inside the trusted
// subsystem: the group key never leaves the enclave boundary. Tags are bound
// to the producing Troxy's instance ID so a Troxy cannot impersonate another
// one even though the group secret is shared, and to the kind of the message
// they authenticate, so a tag made for one kind never verifies as another's.
// Like the Core that owns it, a tagger is not safe for concurrent use.
type GroupTagger struct {
	mac hash.Hash
	// Scratch, for the reason Authenticator has its own.
	hdr [5]byte
	sum [TagSize]byte
}

// NewGroupTagger creates a tagger over the Troxy group secret.
func NewGroupTagger(groupKey []byte) *GroupTagger {
	return &GroupTagger{mac: hmac.New(sha256.New, groupKey)}
}

// feed resets the HMAC and writes the kind, the instance ID and the input to
// it.
func (g *GroupTagger) feed(kind msg.Kind, instance msg.NodeID, input []byte) {
	g.mac.Reset()
	g.hdr = [5]byte{byte(kind), byte(instance), byte(instance >> 8), byte(instance >> 16), byte(instance >> 24)}
	g.mac.Write(g.hdr[:])
	g.mac.Write(input)
}

// Tag appends the group tag of input, a message of the given kind produced by
// the given instance, to dst and returns the extended slice, the way
// hash.Hash.Sum does: a caller that has somewhere to put the tag — a reply it
// reuses, an ecall's result buffer — passes that and nothing is allocated;
// nil gets a tag of its own.
func (g *GroupTagger) Tag(dst []byte, kind msg.Kind, instance msg.NodeID, input []byte) []byte {
	g.feed(kind, instance, input)
	return g.mac.Sum(dst)
}

// Verify checks a group tag allegedly produced by instance over input, a
// message of the given kind.
func (g *GroupTagger) Verify(kind msg.Kind, instance msg.NodeID, input, tag []byte) bool {
	if len(tag) != TagSize {
		return false
	}
	g.feed(kind, instance, input)
	return hmac.Equal(g.mac.Sum(g.sum[:0]), tag)
}
