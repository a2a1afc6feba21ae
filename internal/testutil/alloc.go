package testutil

import (
	"runtime/debug"
	"testing"
)

// AllocGate runs fn as the sub-benchmark name and fails it if one call makes
// more than ceiling heap allocations: the request path's allocation budgets
// are held by `make bench-quick`, function by function. The ns/op it reports
// beside the count is for the record only.
func AllocGate(b *testing.B, name string, ceiling float64, fn func()) {
	b.Helper()
	b.Run(name, func(b *testing.B) {
		if got := testing.AllocsPerRun(200, fn); got > ceiling {
			b.Fatalf("%s: %.1f allocations per call, gate is %.0f", name, got, ceiling)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fn()
		}
	})
}

// RaceEnabled reports whether the test binary was built with -race. The race
// detector changes what allocates (sync.Pool drops a share of what is put
// back), so tests that assert allocation counts skip themselves under it.
func RaceEnabled() bool {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
