// Package authn implements the transport authentication of a Troxy-backed
// system: a pairwise HMAC-SHA256 authenticator matrix for replica↔replica and
// client↔replica messages (the "common message certificates" of BFT
// systems), used by the untrusted replica parts, which kinds carry one
// (HostMACed) and what each kind's MAC covers (Covered). It runs on the host:
// the Troxy group tags are troxy.GroupTagger's, inside the enclave.
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
// derives pairwise keys from the directory on first use and caches the keyed
// HMAC of each peer it seals for and of each peer whose MAC has verified: a
// frame's From is not known to be a peer before that, so a stream of forged
// senders costs a derivation each and leaves nothing behind. Authenticator is
// not safe for concurrent use; each protocol state machine owns one.
type Authenticator struct {
	self msg.NodeID
	dir  *Directory
	macs map[msg.NodeID]hash.Hash

	// Scratch for one MAC computation: what is handed to a hash.Hash leaves
	// the stack, so the header, a verification's sum and SealMessage's tag
	// live here instead of being allocated per call.
	hdr [9]byte
	sum [TagSize]byte
	tag [TagSize]byte
}

// NewAuthenticator creates the authenticator for node self.
func NewAuthenticator(self msg.NodeID, dir *Directory) *Authenticator {
	return &Authenticator{self: self, dir: dir, macs: make(map[msg.NodeID]hash.Hash)}
}

// keyed returns the keyed HMAC for a peer and whether it is cached: creating
// one costs a key derivation and four SHA-256 compressions, reusing one via
// Reset costs none.
func (a *Authenticator) keyed(peer msg.NodeID) (hash.Hash, bool) {
	if m, ok := a.macs[peer]; ok {
		return m, true
	}
	return hmac.New(sha256.New, a.dir.PairKey(a.self, peer)), false
}

// mac feeds m with everything a point-to-point MAC covers: the header (kind,
// from, to) and the covered bytes behind it, as two writes, so those are
// hashed where they lie.
func (a *Authenticator) mac(m hash.Hash, e *msg.Envelope, covered []byte) hash.Hash {
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
// authenticator's node. The tag is an allocation of its own: it travels with
// the envelope and is never reused.
func (a *Authenticator) SealMAC(e *msg.Envelope) {
	a.seal(e, e.Body, make([]byte, 0, TagSize))
}

// seal attaches e's MAC over covered, summed into dst, under the key shared
// with e.To, which it caches: a node chooses its own destinations.
func (a *Authenticator) seal(e *msg.Envelope, covered, dst []byte) {
	m, cached := a.keyed(e.To)
	if !cached {
		a.macs[e.To] = m
	}
	e.MAC = a.mac(m, e, covered).Sum(dst)
}

// VerifyMAC checks a point-to-point MAC over the header and the whole body of
// an incoming envelope. The envelope's To must be the authenticator's node.
func (a *Authenticator) VerifyMAC(e *msg.Envelope) bool {
	return a.verify(e, e.Body)
}

// verify checks e's MAC over covered under the key e.From claims. The keyed
// HMAC of a sender not seen before joins the cache only once a MAC under it
// has verified.
func (a *Authenticator) verify(e *msg.Envelope, covered []byte) bool {
	if len(e.MAC) != TagSize {
		return false
	}
	m, cached := a.keyed(e.From)
	if !hmac.Equal(a.mac(m, e, covered).Sum(a.sum[:0]), e.MAC) {
		return false
	}
	if !cached {
		a.macs[e.From] = m
	}
	return true
}

// SealMessage attaches the point-to-point MAC a replica expects on an envelope
// whose body is m's encoding: over the header and Covered, which for a
// FORWARD is its request's digest — memoised in m, so a sender that has it
// hashes no operation — and for every other kind the body, as SealMAC. The
// tag is the authenticator's scratch, lent until its next seal: the envelope
// is one to hand to Send, which copies it. It returns how many bytes behind
// the header the MAC covered, which is what a runtime that prices MACs
// charges.
func (a *Authenticator) SealMessage(e *msg.Envelope, m msg.Message) int {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	covered := Covered(w, m, e.Body)
	a.seal(e, covered, a.tag[:0])
	return len(covered)
}

// VerifyMessage checks the MAC SealMessage attaches, given the message m that
// e.Body decoded to (completely: Envelope.Open rejects trailing bytes, so the
// covered encoding binds every byte of the body). It returns the covered
// length beside the verdict.
func (a *Authenticator) VerifyMessage(e *msg.Envelope, m msg.Message) (bool, int) {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	covered := Covered(w, m, e.Body)
	return a.verify(e, covered), len(covered)
}

// HostMACed reports the kinds whose envelopes carry a point-to-point MAC. It
// is the one place that decides it: a replica seals (Replica.sendEncoded) and
// checks (Replica.onEnvelope) a MAC on exactly these kinds, and so does the
// Byzantine harness. The kinds without one are authenticated by what they
// carry: a client's channel data by the secure channel's AEAD, the kinds a
// Troxy tags by their group tags (DESIGN.md decision 16), and a PREPARE and a
// COMMIT by the counter certificate each carries, which binds the sending
// replica's trusted subsystem to the view, the sequence number and the batch
// digest, and which every receiver verifies anyway (decision 17).
func HostMACed(k msg.Kind) bool {
	return k != msg.KindChannelData && !k.TroxyTagged() && k != msg.KindPrepare && k != msg.KindCommit
}

// CoversDigests reports the kinds whose point-to-point MAC covers request
// digests in place of request bytes (see Covered): a FORWARD. Only the decoded
// message has the digest, so a receiver opens it before it checks the MAC.
func CoversDigests(k msg.Kind) bool { return k == msg.KindForward }

// Covered returns what the point-to-point MAC of an envelope carrying m covers
// behind the envelope header: for a FORWARD the digest of the request it
// orders, appended to w, and for every other kind body, m's encoding itself.
// The view-change and state-transfer kinds embed prepared batches and are
// covered whole all the same: they are rare, and their handlers keep them
// whole anyway.
//
// The request keeps the digest computed here (msg.OrderRequest.Digest), so a
// sender that holds it hashes no operation, and a receiver hashes it once for
// the MAC and for the leader's batch.
func Covered(w *wire.Writer, m msg.Message, body []byte) []byte {
	fwd, ok := m.(*msg.Forward)
	if !ok {
		return body
	}
	d := fwd.Req.Digest()
	w.Raw(d[:])
	return w.Bytes()
}
