// Package sfneg must stay clean under secretflow: the sanctioned patterns
// for handling key material inside the trusted packages.
package sfneg

import (
	"crypto/ed25519"
	"crypto/hkdf"
	"crypto/sha256"
	"fmt"
	"log"

	"github.com/troxy-bft/troxy/internal/wire"
)

// S holds trusted key material.
type S struct {
	// troxy:secret
	key []byte

	identity ed25519.PrivateKey
}

// derive stores a fresh session key; wrapping the derivation error is fine
// (errors never carry taint), as is logging the key's length.
func (s *S) derive(salt []byte) error {
	sessionKey, err := hkdf.Key(sha256.New, s.key, salt, "session", 32)
	if err != nil {
		return fmt.Errorf("sfneg: derive session key: %w", err)
	}
	s.key = sessionKey
	log.Printf("rotated session key (%d bytes)", len(sessionKey))
	return nil
}

// sign declassifies through the signing call: a signature is publishable.
func (s *S) sign(msg []byte) []byte {
	sig := ed25519.Sign(s.identity, msg)
	log.Printf("signed %d bytes: %x", len(msg), sig)
	return sig
}

// frame writes the key into a wire frame — allowed inside the trusted
// packages, whose callers seal or encrypt the buffer before it leaves.
func (s *S) frame(w *wire.Writer) {
	w.Bytes32(s.key)
}
