package secretflow_test

import (
	"testing"

	"github.com/troxy-bft/troxy/internal/analysis/analysistest"
	"github.com/troxy-bft/troxy/internal/analysis/secretflow"
)

// TestSecretFlow covers the sources and sinks secretflow sees in one body.
func TestSecretFlow(t *testing.T) {
	analysistest.Run(t, secretflow.Analyzer,
		"github.com/troxy-bft/troxy/internal/securechannel/sfpos",
		"github.com/troxy-bft/troxy/internal/securechannel/sfneg",
	)
}

// TestTaintSummaries covers taint that crosses a same-package call: a sink
// inside the callee, a result that carries its argument or secret material of
// its own, recursion entered from either member, and clean parameters. sfwire
// also holds the host-side wire sink, reached directly and through ship.
func TestTaintSummaries(t *testing.T) {
	analysistest.Run(t, secretflow.Analyzer,
		"github.com/troxy-bft/troxy/internal/securechannel/sfinter",
		"github.com/troxy-bft/troxy/internal/realnet/sfwire",
	)
}
