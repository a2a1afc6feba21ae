package mutate

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/troxy-bft/troxy/internal/analysis"
)

// The catalogue has to keep applying to the tree it describes: a refactor
// that moves a guard must fail here, not turn a mutant into a silent no-op
// the next time somebody runs `make mutate`.
func TestCatalogueAppliesToTree(t *testing.T) {
	root := filepath.Join("..", "..")
	seen := make(map[string]bool)
	for _, m := range Catalogue {
		if m.ID == "" || seen[m.ID] {
			t.Errorf("mutant ID %q is empty or used twice", m.ID)
		}
		seen[m.ID] = true
		if m.Fault == "" {
			t.Errorf("%s: no fault description", m.ID)
		}
		if m.Old == m.New {
			t.Errorf("%s: the edit changes nothing", m.ID)
		}
		src, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(m.File)))
		if err != nil {
			t.Errorf("%s: %v", m.ID, err)
			continue
		}
		if strings.HasSuffix(m.File, "_test.go") || strings.HasPrefix(m.File, "internal/analysis/") {
			t.Errorf("%s: mutants go into production code, not into %s", m.ID, m.File)
		}
		if _, err := m.Rewrite(string(src)); err != nil {
			t.Error(err)
		}
	}
}

// Every analyzer in the roster gets a fair chance: at least two behavioural
// mutants break the invariant it states, in real tree code. (An analyzer that
// then kills none of them alone is a candidate for deletion, DESIGN.md §9.5.)
func TestEveryAnalyzerIsAimedAt(t *testing.T) {
	aimed := make(map[string]int)
	for _, m := range Catalogue {
		if m.Equivalent != "" {
			continue
		}
		for _, a := range m.Aims {
			aimed[a]++
		}
	}
	for name := range analysis.KnownAnalyzerNames {
		if aimed[name] < 2 {
			t.Errorf("analyzer %s is aimed at by %d behavioural mutants, want at least 2", name, aimed[name])
		}
	}
}

// lintOnly is the lint half of DESIGN.md §9.5's matrix: each mutant whose
// only killer there is one analyzer, and that analyzer.
var lintOnly = map[string]string{
	"conn-write-holds-lock":                "lockcheck",
	"conn-seal-writes-under-lock":          "lockcheck",
	"gateway-close-holds-lock":             "lockcheck",
	"realnet-enqueue-leaks-lock":           "lockcheck",
	"gateway-payload-error-dropped":        "senderr",
	"client-write-error-dropped":           "senderr",
	"tcounter-error-leaks-key":             "secretflow",
	"troxy-handshake-error-leaks-identity": "secretflow",
	"aead-error-leaks-session-key":         "secretflow",
	"commit-marshal-allocates":             "allocfree",
	"ring-take-allocates":                  "allocfree",
}

// Each of those mutants, applied to a copy of the tree, still draws its
// analyzer's report: a rewrite of an analyzer that drops a kill fails here,
// not in the next full `make mutate`.
func TestLintOnlyMutantsAreReported(t *testing.T) {
	tmp := t.TempDir()
	if err := CopyTree(filepath.Join("..", ".."), tmp); err != nil {
		t.Fatal(err)
	}
	lint := filepath.Join(tmp, "bin", "troxy-lint")
	run := func(name string, args ...string) (string, error) {
		cmd := exec.Command(name, args...)
		cmd.Dir = tmp
		out, err := cmd.CombinedOutput()
		return string(out), err
	}
	if out, err := run("go", "build", "-o", lint, "./cmd/troxy-lint"); err != nil {
		t.Fatalf("build troxy-lint: %v\n%s", err, out)
	}
	if out, err := run(lint, "./..."); err != nil {
		t.Fatalf("the unmutated tree does not pass troxy-lint: %v\n%s", err, out)
	}
	found := 0
	for _, m := range Catalogue {
		analyzer, ok := lintOnly[m.ID]
		if !ok {
			continue
		}
		found++
		restore, err := m.Apply(tmp)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := run(lint, "./...")
		if err := restore(); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "["+analyzer+"]") {
			t.Errorf("%s: %s does not report it; troxy-lint said:\n%s", m.ID, analyzer, out)
		}
	}
	if found != len(lintOnly) {
		t.Errorf("%d of the %d lint-only mutants are in the catalogue", found, len(lintOnly))
	}
}
