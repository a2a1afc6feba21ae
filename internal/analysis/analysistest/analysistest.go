// Package analysistest runs an analyzer over small fixture packages and
// checks its diagnostics against expectations embedded in the fixtures,
// mirroring golang.org/x/tools/go/analysis/analysistest on the standard
// library only.
//
// Fixtures live under the calling test's testdata/src/<import-path>/
// directory, GOPATH-style. Because the suite's analyzers classify packages
// by their module-relative import path, fixtures reuse the real module's
// paths (testdata/src/github.com/troxy-bft/troxy/internal/realnet/...):
// the loader never mixes fixture sources with the real packages, so the
// collision is deliberate and harmless.
//
// A line expecting a diagnostic carries a trailing comment of the form
//
//	code() // want "regexp"
//
// (multiple quoted regexps for multiple diagnostics on one line). Run fails
// the test if any expectation goes unmatched or any unexpected diagnostic
// is reported. Fixture imports resolve first against testdata/src (from
// source, recursively), then against the standard library via the build
// cache's export data (one `go list -export` over every such import the
// fixtures make).
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/troxy-bft/troxy/internal/analysis"
)

// Run loads each fixture package below testdata/src and applies a to it,
// comparing diagnostics against the // want expectations in its sources.
func Run(t *testing.T, a *analysis.Analyzer, importPaths ...string) {
	t.Helper()
	srcRoot, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	ld := &loader{
		srcRoot: srcRoot,
		fset:    token.NewFileSet(),
		pkgs:    make(map[string]*loadedPackage),
	}
	if ld.std, err = ld.stdImporter(); err != nil {
		t.Fatal(err)
	}
	for _, path := range importPaths {
		lp, err := ld.load(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		diags := analysis.Analyze(&analysis.Package{
			Fset:  ld.fset,
			Files: lp.files,
			Types: lp.types,
			Info:  lp.info,
			Path:  path,
		}, []*analysis.Analyzer{a})
		check(t, ld.fset, lp.files, diags)
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

// loader typechecks fixture packages, resolving fixture imports from source
// and everything else from gc export data.
type loadedPackage struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
	err   error
}

type loader struct {
	srcRoot string
	fset    *token.FileSet
	pkgs    map[string]*loadedPackage
	std     types.Importer
}

// isFixture reports whether path names a package under testdata/src.
func (l *loader) isFixture(path string) bool {
	_, err := os.Stat(filepath.Join(l.srcRoot, filepath.FromSlash(path)))
	return err == nil
}

// stdImporter lists every import the fixtures make outside testdata/src and
// returns an importer over their export data.
func (l *loader) stdImporter() (types.Importer, error) {
	var paths []string
	err := filepath.WalkDir(l.srcRoot, func(file string, d fs.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(file, ".go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, spec := range f.Imports {
			if path, _ := strconv.Unquote(spec.Path.Value); path != "unsafe" && !l.isFixture(path) {
				paths = append(paths, path)
			}
		}
		return nil
	})
	if err != nil || len(paths) == 0 {
		return nil, err
	}
	_, imp, err := analysis.Exports(l.fset, paths...)
	return imp, err
}

func (l *loader) load(path string) (*loadedPackage, error) {
	if lp, ok := l.pkgs[path]; ok {
		return lp, lp.err
	}
	lp := &loadedPackage{}
	l.pkgs[path] = lp // break import cycles; a real cycle fails typechecking

	dir := filepath.Join(l.srcRoot, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		lp.err = err
		return lp, err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			lp.err = err
			return lp, err
		}
		lp.files = append(lp.files, f)
	}
	if len(lp.files) == 0 {
		lp.err = fmt.Errorf("no Go files in %s", dir)
		return lp, lp.err
	}

	cfg := types.Config{Importer: &fixtureImporter{l}}
	lp.info = analysis.NewInfo()
	lp.types, lp.err = cfg.Check(path, l.fset, lp.files, lp.info)
	return lp, lp.err
}

type fixtureImporter struct{ l *loader }

func (i *fixtureImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if i.l.isFixture(path) {
		lp, err := i.l.load(path)
		if err != nil {
			return nil, err
		}
		return lp.types, nil
	}
	if i.l.std == nil {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return i.l.std.Import(path)
}
