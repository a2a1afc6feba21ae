// Command troxy-lint is the repository's static-analysis gate. It enforces
// the paper's trust-boundary and determinism invariants mechanically:
//
//	boundarycheck   untrusted code enters the enclave only via the declared
//	                ecall surface; trusted code performs no ocalls
//	copydiscipline  buffers crossing the ecall boundary are defensively
//	                copied, never stored or returned by reference
//	determinism     no wall clocks, global randomness, or protocol-visible
//	                map iteration in the replicated core
//	senderr         no silently dropped errors on wire encode/send paths
//	secretflow      secret key material never reaches logs, host-side wire
//	                encoders, or the ecall return path — including through
//	                same-package helper calls, via inter-procedural summaries
//	lockcheck       no locks held across blocking operations (direct or
//	                transitive through same-package calls), re-acquired
//	                through helper chains, or leaked past a return
//	exhaustive      switches over msg.Kind / msg.Message cover every
//	                declared message kind or carry an explicit default
//	quorumcheck     vote counts compared only against the canonical quorum
//	                helpers, with the non-skipping orientation
//	certgate        certificate-carrying messages verified before anything
//	                read from them reaches protocol state, counter
//	                advances, broadcasts, or caches (path-sensitive)
//	boundedalloc    decode allocations sized by wire-derived lengths are
//	                dominated by a comparison against a named Max* constant
//	allocfree       //troxy:hotpath functions are transitively
//	                allocation-free outside cold failure blocks, with a
//	                call-path trace on violation
//
// secretflow, lockcheck, certgate, and allocfree share the
// internal/analysis/interproc call-graph and summary engine; their
// cross-function findings are reported at the call site (put the
// //lint:allow there). Set TROXY_LINT_TIMING=1 for per-analyzer wall time
// and lint-cache hit/miss counts on stderr.
//
// Malformed //lint:allow comments (stale analyzer name, missing reason) are
// reported by the unsuppressable "allowaudit" pass built into the driver.
//
// Run it on package patterns: `make lint` builds bin/troxy-lint and runs
// `./bin/troxy-lint ./...` (`go run ./cmd/troxy-lint ./...` works too), one
// process for the whole module with per-package results cached under
// bin/.lintcache. Suppress a finding with a trailing or preceding
// `//lint:allow <analyzer> <reason>` comment — see DESIGN.md.
package main

import (
	"github.com/troxy-bft/troxy/internal/analysis"
	"github.com/troxy-bft/troxy/internal/analysis/allocfree"
	"github.com/troxy-bft/troxy/internal/analysis/boundarycheck"
	"github.com/troxy-bft/troxy/internal/analysis/boundedalloc"
	"github.com/troxy-bft/troxy/internal/analysis/certgate"
	"github.com/troxy-bft/troxy/internal/analysis/copydiscipline"
	"github.com/troxy-bft/troxy/internal/analysis/determinism"
	"github.com/troxy-bft/troxy/internal/analysis/exhaustive"
	"github.com/troxy-bft/troxy/internal/analysis/lockcheck"
	"github.com/troxy-bft/troxy/internal/analysis/quorumcheck"
	"github.com/troxy-bft/troxy/internal/analysis/secretflow"
	"github.com/troxy-bft/troxy/internal/analysis/senderr"
)

func main() {
	analysis.Main(
		boundarycheck.Analyzer,
		copydiscipline.Analyzer,
		determinism.Analyzer,
		senderr.Analyzer,
		secretflow.Analyzer,
		lockcheck.Analyzer,
		exhaustive.Analyzer,
		quorumcheck.Analyzer,
		certgate.Analyzer,
		boundedalloc.Analyzer,
		allocfree.Analyzer,
	)
}
