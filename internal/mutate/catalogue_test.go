package mutate

import (
	"os"
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
