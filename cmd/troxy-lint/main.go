// Command troxy-lint is the repository's static-analysis gate. It holds the
// one property of the paper's trust boundary that no test observes, and that
// a mutant of the tree breaks with every other gate green (DESIGN.md §9.5 has
// the measurement that chose it):
//
//	secretflow     secret key material never reaches logs or host-side wire
//	               encoders — including through same-package helper calls,
//	               which it follows into the callee
//
// It runs on the dataflow engine of internal/analysis/dataflow, and reports
// a finding it follows into a callee at the call site. What the tests can
// observe is theirs: TestTrustedComputingBase in internal/troxy pins the
// packages compiled into the enclave and forbids them net, os and syscall,
// so an ocall fails `go test ./...`; the allocation gates of
// `make bench-quick` (BenchmarkAllocGate) hold the request path's encoders,
// send ring and seal loop at their allocation counts; a client that waits on
// a request it failed to send fails a legacyclient test; and a lock held
// across a socket write or a blocking Close, or leaked past a return, fails
// a lock-state test in legacyclient or realnet.
//
// Run it on package patterns: `make lint` builds bin/troxy-lint and runs
// `./bin/troxy-lint ./...` (`go run ./cmd/troxy-lint ./...` works too), one
// process for the whole module. A finding has no suppression comment: it is
// fixed, not excused.
package main

import (
	"github.com/troxy-bft/troxy/internal/analysis"
	"github.com/troxy-bft/troxy/internal/analysis/secretflow"
)

func main() {
	analysis.Main(secretflow.Analyzer)
}
