package troxy

import (
	"crypto/hmac"
	"crypto/sha256"
	"hash"

	"github.com/troxy-bft/troxy/internal/msg"
)

// tagSize is the size of a Troxy group tag.
const tagSize = sha256.Size

// GroupTagger computes Troxy group tags: HMAC-SHA256 keyed with the secret
// only the trusted subsystems share (Section IV-A of the paper). It lives
// inside the enclave: the group key never leaves it. Tags are bound to the
// producing Troxy's instance ID so a Troxy cannot impersonate another one even
// though the group secret is shared, and to the kind of the message they
// authenticate, so a tag made for one kind never verifies as another's. Like
// the Core that owns it, a tagger is not safe for concurrent use.
type GroupTagger struct {
	mac hash.Hash
	// Scratch for one tag: what is handed to a hash.Hash leaves the stack,
	// so the header and a verification's sum live here instead of being
	// allocated per call.
	hdr [5]byte
	sum [tagSize]byte
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
	if len(tag) != tagSize {
		return false
	}
	g.feed(kind, instance, input)
	return hmac.Equal(g.mac.Sum(g.sum[:0]), tag)
}
