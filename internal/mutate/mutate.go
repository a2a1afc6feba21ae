// Package mutate holds the repository's mutant catalogue: single-edit faults
// in production code, drawn from the bugs this repository had, the classic
// BFT slips, and the invariants the troxy-lint analyzers state. cmd/troxy-mutate
// applies each one to a temporary copy of the tree and records which gates
// kill it (DESIGN.md §9.5 has the matrix and what it decided); the package's
// test keeps every entry applicable to the tree as it is.
package mutate

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// A Mutant is one fault. Old occurs exactly once in File and New replaces it;
// Import, when set, is an import path the replacement needs, added to File's
// import block (the fault is then that edge as much as the call).
type Mutant struct {
	ID   string
	File string // slash-separated, relative to the module root
	Old  string
	New  string

	Import string

	// Aims lists the analyzers whose stated invariant the fault breaks, retired
	// ones included: it is why the mutant is in the catalogue, not a prediction.
	Aims []string

	// Equivalent is empty for a behavioural mutant. Otherwise it is the proof
	// that no input distinguishes the mutant from the original, or that the
	// input that does violates no stated property; such a mutant scores nothing.
	Equivalent string

	// Fault says what breaks, in a line.
	Fault string
}

// Rewrite returns File's source src with the fault in it.
func (m Mutant) Rewrite(src string) (string, error) {
	if n := strings.Count(src, m.Old); n != 1 {
		return "", fmt.Errorf("%s: old text occurs %d times in %s, want 1", m.ID, n, m.File)
	}
	src = strings.Replace(src, m.Old, m.New, 1)
	if m.Import != "" {
		const block = "import (\n"
		if strings.Count(src, block) != 1 {
			return "", fmt.Errorf("%s: %s has no single import block", m.ID, m.File)
		}
		src = strings.Replace(src, block, block+"\t"+`"`+m.Import+`"`+"\n", 1)
	}
	return src, nil
}

// Apply writes the mutant into the tree rooted at root and returns a function
// that restores the file.
func (m Mutant) Apply(root string) (restore func() error, err error) {
	path := filepath.Join(root, filepath.FromSlash(m.File))
	orig, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	src, err := m.Rewrite(string(orig))
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		return nil, err
	}
	return func() error { return os.WriteFile(path, orig, 0o644) }, nil
}

// CopyTree copies the tree rooted at src to dst, leaving out version control
// and what building, testing and benchmarking leave behind.
func CopyTree(src, dst string) error {
	skip := map[string]bool{".git": true, "bin": true, ".bench_build": true, filepath.Join("bench", "out"): true}
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if skip[rel] {
			return filepath.SkipDir
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
}
