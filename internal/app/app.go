// Package app defines the deterministic replicated-application interface the
// agreement protocol executes against, together with the three services used
// throughout the repository:
//
//   - Store: a key-value store (quickstart and failover examples),
//   - Bench: the paper's microbenchmark service (configurable request and
//     reply sizes, reads and writes distinguishable by operation type), and
//   - Pages: the page service behind the Fig. 11 experiment, which HTTPApp
//     serves to raw HTTP/1.1 requests.
//
// Applications must be deterministic: executing the same operations in the
// same order from the same snapshot yields identical results and identical
// state digests on every replica. The paper's fast-read optimization
// additionally assumes that reads and writes can be distinguished before
// execution and that the state parts an operation touches are identifiable
// (Section IV-A) — hence IsRead and Keys.
package app

import (
	"crypto/sha256"
	"fmt"

	"github.com/troxy-bft/troxy/internal/msg"
)

// Application is a deterministic replicated service.
type Application interface {
	// Execute applies one operation and returns its result. Service-level
	// failures are encoded in the result; Execute itself must be total.
	// op belongs to the caller and is valid for the call only: state keeps
	// a copy of what it needs of it, and the result — which the caller
	// keeps for retransmissions — never aliases it. The result may be shared
	// between calls (a constant answer such as "OK"): callers do not modify
	// it.
	Execute(op []byte) []byte

	// IsRead reports whether op leaves the state unchanged. It must be
	// decidable without executing the operation.
	IsRead(op []byte) bool

	// Keys returns the identifiers of the state parts op reads or writes;
	// the Troxy fast-read cache indexes and invalidates entries by these.
	// The slice may be shared between calls: callers do not modify it.
	Keys(op []byte) []string

	// Snapshot serializes the full application state deterministically.
	Snapshot() []byte

	// Restore replaces the state with a snapshot.
	Restore(snapshot []byte) error
}

// Forker is implemented by applications that can hand out an independent
// copy of their current state without serializing it; the speculative commit
// tier executes on one and replaces it when the speculation is invalidated.
type Forker interface {
	// Fork returns an application holding the receiver's current state.
	// Operations executed on either afterwards are invisible to the other.
	Fork() Application
}

// Factory creates a fresh application instance for one replica.
type Factory func() Application

// StateDigest hashes an application's snapshot; replicas exchange it in
// checkpoints.
func StateDigest(a Application) msg.Digest {
	return sha256.Sum256(a.Snapshot())
}

// badOp formats the canonical result for a malformed operation. It is
// deterministic so replicas stay consistent even on garbage input.
func badOp(op []byte) []byte {
	const maxEcho = 32
	if len(op) > maxEcho {
		op = op[:maxEcho]
	}
	return fmt.Appendf(nil, "ERR malformed operation %q", op)
}
