// Package sfinter must trigger secretflow's inter-procedural cases: every
// finding here crosses a function boundary, so an engine that declassified
// at every call would miss all of them — the runs over the callees are what
// make them visible. Reports land at the call site, never inside the helper.
package sfinter

import (
	"crypto/ed25519"
	"crypto/hkdf"
	"crypto/sha256"
	"fmt"
)

// S holds trusted key material.
type S struct {
	// troxy:secret
	master []byte
}

// logHex is a laundering log helper: its own body has no taint source, so
// nothing inside it is reported. Its parameter reaches a fmt sink.
func logHex(v []byte) {
	fmt.Printf("%x\n", v)
}

func (s *S) leakViaHelper() {
	logHex(s.master) // want "secret-tainted argument to logHex reaches a formatting/logging sink inside the callee"
}

// clone flows its parameter to its result, so taint passes through the
// call.
func clone(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

func (s *S) leakViaClone() {
	c := clone(s.master)
	fmt.Println(c) // want "secret-tainted value reaches fmt.Println"
}

// exportKey derives secret material internally and returns it — the
// laundering-helper shape: no tainted inputs, intrinsically tainted result.
func (s *S) exportKey() []byte {
	out := s.master
	return out
}

func (s *S) leakLaundered() {
	fmt.Println(s.exportKey()) // want "secret-tainted value reaches fmt.Println"
}

// pingLog / pongLog are mutually recursive, and only pingLog holds the sink.
func pingLog(v []byte, n int) {
	if n == 0 {
		fmt.Println(v)
		return
	}
	pongLog(v, n-1)
}

func pongLog(v []byte, n int) {
	pingLog(v, n)
}

// leakViaRecursion enters the pair from pongLog, the member without the
// sink, and leakViaPing then from pingLog: both are reported.
func leakViaRecursion(key ed25519.PrivateKey) {
	pongLog(key, 3) // want "secret-tainted argument to pongLog reaches a formatting/logging sink inside the callee"
}

func leakViaPing(key ed25519.PrivateKey) {
	pingLog(key, 3) // want "secret-tainted argument to pingLog reaches a formatting/logging sink inside the callee"
}

// tickLog / tockLog are the same pair entered the other way round: first
// from tickLog, which holds the sink. tockLog's run inside it assumes tickLog
// clean, so its result must not be kept for the second call.
func tickLog(v []byte, n int) {
	if n == 0 {
		fmt.Println(v)
		return
	}
	tockLog(v, n-1)
}

func tockLog(v []byte, n int) {
	tickLog(v, n)
}

func leakViaTickThenTock(key ed25519.PrivateKey) {
	tickLog(key, 3) // want "secret-tainted argument to tickLog reaches a formatting/logging sink inside the callee"
	tockLog(key, 3) // want "secret-tainted argument to tockLog reaches a formatting/logging sink inside the callee"
}

// passThru returns clone's result: taint reaches it two calls down.
func passThru(b []byte) []byte {
	return clone(b)
}

func (s *S) leakViaPassThru() {
	fmt.Println(passThru(s.master)) // want "secret-tainted value reaches fmt.Println"
}

// troxy:secret
var rootKey []byte

// gen returns secret material of its own, and indirect returns gen's: the
// result is secret with no secret argument, two calls down.
func gen() []byte {
	return rootKey
}

func indirect() []byte {
	return gen()
}

func leakViaIndirect() {
	fmt.Println(indirect()) // want "secret-tainted value reaches fmt.Println"
}

// derived returns a key-derivation result.
func derived() []byte {
	k, err := hkdf.Key(sha256.New, []byte("ikm"), nil, "derived", 32)
	if err != nil {
		return nil
	}
	return k
}

func leakDerived() {
	fmt.Println(derived()) // want "secret-tainted value reaches fmt.Println"
}

// logCount formats only its int parameter: a secret passed beside it
// reaches no sink.
func logCount(v []byte, n int) {
	_ = v
	fmt.Println(n)
}

func (s *S) cleanIntParam() {
	logCount(s.master, 1)
}

// digestLen is clean: the helper consumes the secret but neither sinks it
// nor returns anything derived from it (a secret's length is not a secret).
func digestLen(b []byte) int {
	return len(b)
}

func (s *S) cleanHelperUse() {
	n := digestLen(s.master)
	fmt.Println(n)
}

// sealStub is clean: its result does not derive from the input, so callers
// may log it.
func sealStub(b []byte) []byte {
	ct := make([]byte, 16)
	for range b {
		ct[0]++
	}
	return ct
}

func (s *S) cleanSealedLog() {
	fmt.Println(sealStub(s.master))
}
