package lockcheck_test

import (
	"testing"

	"github.com/troxy-bft/troxy/internal/analysis/analysistest"
	"github.com/troxy-bft/troxy/internal/analysis/lockcheck"
)

// TestLockCheck covers the operations lockcheck sees in the lock scope itself.
func TestLockCheck(t *testing.T) {
	analysistest.Run(t, lockcheck.Analyzer,
		"github.com/troxy-bft/troxy/internal/realnet/lcpos",
		"github.com/troxy-bft/troxy/internal/realnet/lcneg",
	)
}

// TestEffectPropagation covers the blocking operations one or more calls
// away: a deferred call's send, a three-hop path, mutual recursion, and the
// go, func-literal and select-with-default exclusions.
func TestEffectPropagation(t *testing.T) {
	analysistest.Run(t, lockcheck.Analyzer,
		"github.com/troxy-bft/troxy/internal/realnet/lcinter",
		"github.com/troxy-bft/troxy/internal/realnet/lcinterneg",
	)
}
