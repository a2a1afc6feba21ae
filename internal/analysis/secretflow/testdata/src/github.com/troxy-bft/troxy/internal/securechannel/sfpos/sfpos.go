// Package sfpos must trigger secretflow: annotated and type-seeded secrets
// reaching format/log sinks.
package sfpos

import (
	"crypto/ed25519"
	"crypto/hkdf"
	"crypto/sha256"
	"errors"
	"fmt"
	"log"
)

// S holds trusted key material.
type S struct {
	// troxy:secret
	key []byte

	macKey []byte // troxy:secret

	identity ed25519.PrivateKey
}

func (s *S) logKey() error {
	return fmt.Errorf("handshake failed with key %x", s.key) // want "secret-tainted value reaches fmt.Errorf"
}

func (s *S) logDerived() {
	sessionKey, err := hkdf.Key(sha256.New, s.macKey, nil, "session", 32)
	if err != nil {
		return
	}
	log.Printf("derived %x", sessionKey) // want "secret-tainted value reaches log.Printf"
}

func (s *S) identityToLog() {
	log.Println(s.identity) // want "secret-tainted value reaches log.Println"
}

func (s *S) errorFromSecret() error {
	return errors.New(string(s.key)) // want "secret-tainted value reaches errors.New"
}

func (s *S) aliasFlow() {
	k := s.key
	buf := append([]byte("key="), k...)
	fmt.Println(buf) // want "secret-tainted value reaches fmt.Println"
}
