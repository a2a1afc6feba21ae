// Command troxy-lint is the repository's static-analysis gate. It holds the
// properties of the paper's trust boundary that no test observes, and that a
// mutant of the tree breaks with every other gate green (DESIGN.md §9.5 has
// the measurement that chose them):
//
//	senderr        no silently dropped errors on wire encode/send paths
//	secretflow     secret key material never reaches logs or host-side wire
//	               encoders — including through same-package helper calls,
//	               which it follows into the callee
//	lockcheck      no locks held across blocking operations (direct or
//	               reached through same-package calls), locked twice,
//	               released unheld, or leaked past a return
//	allocfree      //troxy:hotpath functions are transitively
//	               allocation-free outside cold failure blocks, with a
//	               call-path trace on violation
//
// The trust boundary's import graph is a test's, not an analyzer's:
// TestTrustedComputingBase in internal/troxy pins the packages compiled into
// the enclave and forbids them net, os and syscall, so an ocall into a host
// runtime or through the standard library fails `go test ./...`.
//
// secretflow, lockcheck and allocfree follow same-package calls into the
// callee where a check asks for it; their cross-function findings are
// reported at the call site (put the //lint:allow there).
//
// Malformed //lint:allow comments (stale analyzer name, missing reason) are
// reported by the unsuppressable "allowaudit" pass built into the driver.
//
// Run it on package patterns: `make lint` builds bin/troxy-lint and runs
// `./bin/troxy-lint ./...` (`go run ./cmd/troxy-lint ./...` works too), one
// process for the whole module. Suppress a finding with a trailing or
// preceding `//lint:allow <analyzer> <reason>` comment — see DESIGN.md.
package main

import (
	"github.com/troxy-bft/troxy/internal/analysis"
	"github.com/troxy-bft/troxy/internal/analysis/allocfree"
	"github.com/troxy-bft/troxy/internal/analysis/lockcheck"
	"github.com/troxy-bft/troxy/internal/analysis/secretflow"
	"github.com/troxy-bft/troxy/internal/analysis/senderr"
)

func main() {
	analysis.Main(
		senderr.Analyzer,
		secretflow.Analyzer,
		lockcheck.Analyzer,
		allocfree.Analyzer,
	)
}
