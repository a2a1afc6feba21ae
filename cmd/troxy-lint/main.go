// Command troxy-lint is the repository's static-analysis gate. It holds the
// properties of the paper's trust boundary that no test observes, and that a
// mutant of the tree breaks with every other gate green (DESIGN.md §9.5 has
// the measurement that chose them):
//
//	secretflow     secret key material never reaches logs or host-side wire
//	               encoders — including through same-package helper calls,
//	               which it follows into the callee
//	lockcheck      no locks held across blocking operations (direct or
//	               reached through same-package calls), locked twice,
//	               released unheld, or leaked past a return
//
// Both run on the dataflow engine of internal/analysis/dataflow. What the
// tests can observe is theirs: TestTrustedComputingBase in internal/troxy
// pins the packages compiled into the enclave and forbids them net, os and
// syscall, so an ocall fails `go test ./...`; the allocation gates of
// `make bench-quick` (BenchmarkAllocGate) hold the request path's encoders,
// send ring and seal loop at their allocation counts; and a client that
// waits on a request it failed to send fails a legacyclient test.
//
// Both analyzers follow same-package calls into the callee where a check
// asks for it; their cross-function findings are reported at the call site
// (put the //lint:allow there).
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
	"github.com/troxy-bft/troxy/internal/analysis/lockcheck"
	"github.com/troxy-bft/troxy/internal/analysis/secretflow"
)

func main() {
	analysis.Main(
		secretflow.Analyzer,
		lockcheck.Analyzer,
	)
}
