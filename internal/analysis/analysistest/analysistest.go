// Package analysistest runs an analyzer over small fixture packages and
// checks its diagnostics against expectations embedded in the fixtures,
// mirroring golang.org/x/tools/go/analysis/analysistest on the standard
// library only.
//
// Fixtures live under the calling test's
// testdata/src/github.com/troxy-bft/troxy/ directory, a module of their own
// (a three-line go.mod) that reuses the real module's path: the suite's
// analyzers classify packages by their module-relative import path, so a
// fixture at internal/realnet/afpos is judged as realnet code. Fixtures load
// through the driver's own loader, analysis.Load, run in that directory.
//
// A line expecting a diagnostic carries a trailing comment of the form
//
//	code() // want "regexp"
//
// (multiple quoted regexps for multiple diagnostics on one line). Run fails
// the test if any expectation goes unmatched or any unexpected diagnostic
// is reported.
package analysistest

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/troxy-bft/troxy/internal/analysis"
)

// Run loads each fixture package of the testdata module and applies a to
// it, comparing diagnostics against the // want expectations in its sources.
func Run(t *testing.T, a *analysis.Analyzer, importPaths ...string) {
	t.Helper()
	pkgs, err := analysis.Load(filepath.Join("testdata", "src", filepath.FromSlash(analysis.ModulePath)), importPaths...)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		check(t, p.Fset, p.Files, analysis.Analyze(p, []*analysis.Analyzer{a}))
	}
}

// expectation is one // want entry: a position plus an unanchored regexp
// the diagnostic message (or "analyzer: message") must match.
type expectation struct {
	file    string
	line    int
	rx      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)`)
var quotedRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

func check(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range quotedRE.FindAllStringSubmatch(m[1], -1) {
					pattern, err := unquote(q[1])
					if err != nil {
						t.Errorf("%s: bad want pattern %q: %v", pos, q[1], err)
						continue
					}
					rx, err := regexp.Compile(pattern)
					if err != nil {
						t.Errorf("%s: bad want regexp: %v", pos, err)
						continue
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, rx: rx})
				}
			}
		}
	}

	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.rx.MatchString(d.Message) || w.rx.MatchString(d.Analyzer+": "+d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.rx)
		}
	}
}

// unquote processes the escape sequences of a want pattern (the fixture
// writes `\"` for a quote inside the regexp).
func unquote(s string) (string, error) {
	return strings.NewReplacer(`\"`, `"`, `\\`, `\`).Replace(s), nil
}
