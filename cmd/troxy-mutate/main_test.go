package main

import (
	"encoding/json"
	"fmt"
	"path"
	"reflect"
	"strings"
	"testing"
)

// jsonStream is `go test -json` output for events given as action, package
// (relative to the module), test and output.
func jsonStream(t *testing.T, events ...[4]string) []byte {
	t.Helper()
	var b strings.Builder
	for _, e := range events {
		line, err := json.Marshal(map[string]string{
			"Action": e[0], "Package": path.Join("github.com/troxy-bft/troxy", e[1]), "Test": e[2], "Output": e[3],
		})
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// TestFailedTestsKeepWhatTheySaid: a failing top-level test is named once,
// however many of its subtests fail, with the last 15 lines it and its
// subtests printed; a package that failed outside any test is named alone;
// a package whose failure a failing test explains is not; passing tests and
// their output are left out; the module root's package is ".".
func TestFailedTestsKeepWhatTheySaid(t *testing.T) {
	events := [][4]string{
		{"run", "internal/a", "TestPass", ""},
		{"output", "internal/a", "TestPass", "quiet\n"},
		{"pass", "internal/a", "TestPass", ""},
		{"run", "internal/a", "TestChaos", ""},
	}
	var want []string
	for i := 0; i < 20; i++ {
		line := fmt.Sprintf("    chaos_test.go:%d: step %d\n", i, i)
		events = append(events, [4]string{"output", "internal/a", "TestChaos/seed=11", line})
		want = append(want, line)
	}
	events = append(events,
		[4]string{"fail", "internal/a", "TestChaos/seed=11", ""},
		[4]string{"output", "internal/a", "TestChaos", "--- FAIL: TestChaos (1.00s)\n"},
		[4]string{"fail", "internal/a", "TestChaos", ""},
		[4]string{"output", "internal/a", "", "FAIL\n"},
		[4]string{"fail", "internal/a", "", ""},
		[4]string{"output", "internal/b", "", "panic: boom\n"},
		[4]string{"fail", "internal/b", "", ""},
		[4]string{"pass", "internal/c", "", ""},
		[4]string{"fail", "", "TestSoakLargeState", ""},
	)
	out := append(jsonStream(t, events...), "not json\n"...)
	names, said := failedTests(out)
	if w := []string{".:TestSoakLargeState", "internal/a:TestChaos", "internal/b:(package)"}; !reflect.DeepEqual(names, w) {
		t.Fatalf("failing tests %q, want %q", names, w)
	}
	want = append(want[len(want)-14:], "--- FAIL: TestChaos (1.00s)\n")
	if got := said["internal/a:TestChaos"]; !reflect.DeepEqual(got, want) {
		t.Errorf("TestChaos said %q, want its last 15 lines %q", got, want)
	}
	if got := said["internal/b:(package)"]; !reflect.DeepEqual(got, []string{"panic: boom\n"}) {
		t.Errorf("the package failure said %q, want its panic", got)
	}
}
