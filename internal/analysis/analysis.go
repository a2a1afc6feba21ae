// Package analysis is a self-contained static-analysis framework for the
// troxy-lint suite. It mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) but is built entirely on the standard
// library's go/ast and go/types, because this repository vendors no
// third-party code.
//
// One driver runs the analyzers (standalone.go, invoked as
// `troxy-lint ./...`), and one loader feeds it and the analyzers' fixture
// tests: Load lists package patterns via `go list -export -deps -json` and
// typechecks them against the build cache's gc export data.
//
// A finding can only be fixed, not excused: the driver has no suppression
// comment. Findings in test files (*_test.go) are dropped; the analyzers
// guard production code. An analyzer that follows a same-package call
// reports what it finds inside the callee at the call site.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ModulePath is the import path of this repository's module; the analyzers
// classify packages by their path relative to it.
const ModulePath = "github.com/troxy-bft/troxy"

// An Analyzer describes one static check of the suite.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string

	// Doc is a one-paragraph description of the invariant enforced.
	Doc string

	// Run performs the check on one package, reporting findings through the
	// pass.
	Run func(*Pass) error
}

// A Pass provides one analyzer run with a single type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	path   string
	report func(Diagnostic)
}

// Path returns the package's import path.
func (p *Pass) Path() string { return p.path }

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, with its position resolved.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Package is a loaded, type-checked package ready for analysis.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// Path is the import path.
	Path string
}

// RelPath returns the path relative to ModulePath ("" for the module root,
// "internal/hybster" for a package below it) and whether the package is part
// of the module at all.
func RelPath(path string) (string, bool) {
	if path == ModulePath {
		return "", true
	}
	if rest, ok := strings.CutPrefix(path, ModulePath+"/"); ok {
		return rest, true
	}
	return "", false
}

// Analyze runs the analyzers over pkg and returns their diagnostics in
// file/line order, findings in _test.go files dropped.
func Analyze(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			path:      pkg.Path,
			report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			diags = append(diags, Diagnostic{
				Analyzer: a.Name,
				Message:  fmt.Sprintf("internal error: %v", err),
			})
		}
	}
	diags = filterTestFiles(diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

func filterTestFiles(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for _, d := range diags {
		if strings.HasSuffix(d.Pos.Filename, "_test.go") {
			continue
		}
		out = append(out, d)
	}
	return out
}

// NewInfo returns a types.Info with all maps the analyzers rely on.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// CalleeFunc resolves a call expression's static callee (nil for func
// values and unresolvable calls).
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// FuncDecls indexes the package's declared functions and methods that have a
// body: the callees an analyzer can follow a same-package call into.
func FuncDecls(files []*ast.File, info *types.Info) map[*types.Func]*ast.FuncDecl {
	out := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
					out[fn] = fd
				}
			}
		}
	}
	return out
}
