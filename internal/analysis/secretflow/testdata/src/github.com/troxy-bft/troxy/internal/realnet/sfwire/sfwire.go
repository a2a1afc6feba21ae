// Package sfwire must trigger secretflow's host-side wire sink: realnet is
// outside the enclave surface, so secret bytes may not be framed here.
package sfwire

import (
	"bytes"

	"github.com/troxy-bft/troxy/internal/wire"
)

// troxy:secret
var sessionTicket []byte

// leak frames the raw ticket from untrusted code.
func leak(w *wire.Writer) {
	w.Raw(sessionTicket) // want "secret-tainted value written to the wire via wire.Raw outside the enclave surface"
}

// leakFrame exercises the package-function form of the sink.
func leakFrame(dst *bytes.Buffer) error {
	return wire.WriteFrame(dst, sessionTicket) // want "secret-tainted value written to the wire via wire.WriteFrame outside the enclave surface"
}

// forwardCopied is a cross-function case: the in-package copy helper's
// parameter flows to its result, so the "ciphertext" still carries the
// secret bytes.
func forwardCopied(w *wire.Writer) {
	ct := copyBytes(sessionTicket)
	w.Raw(ct) // want "secret-tainted value written to the wire via wire.Raw outside the enclave surface"
}

// ship frames copyBytes' result: its parameter reaches the wire encoder through
// a helper that returns it.
func ship(w *wire.Writer, v []byte) {
	w.Raw(copyBytes(v))
}

func forwardShipped(w *wire.Writer) {
	ship(w, sessionTicket) // want "secret-tainted argument to ship reaches a wire encoder inside the callee"
}

// forwardCiphertext is clean: the seal stub's result does not derive from
// its input (a real seal returns fresh ciphertext bytes).
func forwardCiphertext(w *wire.Writer) {
	ct := seal(sessionTicket)
	w.Raw(ct)
}

// plainPayload is clean: nothing secret crosses.
func plainPayload(w *wire.Writer, payload []byte) {
	w.U32(uint32(len(payload)))
	w.Raw(payload)
}

func copyBytes(b []byte) []byte { return append([]byte(nil), b...) }

func seal(b []byte) []byte {
	ct := make([]byte, 16)
	for range b {
		ct[0]++
	}
	return ct
}
