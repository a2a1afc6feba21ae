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
// Suppression: a diagnostic is dropped when the offending line, or the line
// immediately above it, carries a comment of the form
//
//	//lint:allow <analyzer> <reason...>
//
// The reason is mandatory by convention (reviewed, not machine-checked):
// every allow marks a deliberate, documented exception to a trust-boundary
// invariant. Inter-procedural findings (a tainted argument
// reaching a sink inside a callee, a lock held across a call that
// transitively blocks) are reported at the *call site*, never inside the
// callee — so the allow goes on the call, where the exception is actually
// taken, and stays attached to the code that owns the decision. Test files
// (*_test.go) are never reported against; the analyzers guard production
// code.
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

// KnownAnalyzerNames is the full vocabulary of the suite — every analyzer a
// //lint:allow comment may reference. An allow naming anything else is
// reported as a diagnostic in its own right (analyzer "allowaudit", itself
// unsuppressable): a stale name means the suppression silently stopped
// doing anything, which is worse than a loud failure. Main() also checks
// the driver registers exactly this set, so the registry cannot drift from
// cmd/troxy-lint.
var KnownAnalyzerNames = map[string]bool{
	"senderr":    true,
	"secretflow": true,
	"lockcheck":  true,
	"allocfree":  true,
}

// An Analyzer describes one static check of the suite.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:allow comments.
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

// Under reports whether rel (a module-relative path) equals root or lies in
// a subdirectory of it.
func Under(rel, root string) bool {
	return rel == root || strings.HasPrefix(rel, root+"/")
}

// Analyze runs the analyzers over pkg and returns the surviving diagnostics
// in file/line order: findings in _test.go files and findings suppressed by
// //lint:allow comments are dropped.
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
	sites := parseAllows(pkg)
	diags = filterTestFiles(diags)
	diags = filterAllowed(sites, diags)
	diags = append(diags, auditAllows(sites)...)
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

// allowKey identifies one //lint:allow site.
type allowKey struct {
	file string
	line int
	name string
}

// allowSite is one parsed //lint:allow comment.
type allowSite struct {
	pos    token.Position
	names  []string // comma-separated analyzer names before the reason
	reason string   // everything after the name list
}

// parseAllows extracts every //lint:allow comment in the package, including
// malformed ones (empty name list, missing reason) for the audit.
func parseAllows(pkg *Package) []allowSite {
	var sites []allowSite
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, "lint:allow")
				if !ok {
					continue
				}
				site := allowSite{pos: pkg.Fset.Position(c.Pos())}
				if fields := strings.Fields(rest); len(fields) > 0 {
					site.names = strings.Split(fields[0], ",")
					site.reason = strings.TrimSpace(strings.Join(fields[1:], " "))
				}
				sites = append(sites, site)
			}
		}
	}
	return sites
}

// filterAllowed drops diagnostics covered by a //lint:allow comment on the
// same line or the line immediately above.
func filterAllowed(sites []allowSite, diags []Diagnostic) []Diagnostic {
	allows := make(map[allowKey]bool)
	for _, s := range sites {
		for _, name := range s.names {
			allows[allowKey{s.pos.Filename, s.pos.Line, name}] = true
		}
	}
	if len(allows) == 0 {
		return diags
	}
	out := diags[:0]
	for _, d := range diags {
		if allows[allowKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] ||
			allows[allowKey{d.Pos.Filename, d.Pos.Line - 1, d.Analyzer}] {
			continue
		}
		out = append(out, d)
	}
	return out
}

// auditAllows validates the suppression comments themselves: an allow that
// names a non-existent analyzer or omits the reason is dead weight that
// LOOKS like a reviewed exception, so it fails the lint run. The resulting
// diagnostics carry the pseudo-analyzer name "allowaudit" and are appended
// after suppression filtering — they cannot themselves be allowed away.
// Allows in _test.go files are audited too: diagnostics are never reported
// against test files, so any allow there is stale by definition.
func auditAllows(sites []allowSite) []Diagnostic {
	var out []Diagnostic
	report := func(pos token.Position, format string, args ...any) {
		out = append(out, Diagnostic{
			Analyzer: "allowaudit",
			Pos:      pos,
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, s := range sites {
		if strings.HasSuffix(s.pos.Filename, "_test.go") {
			report(s.pos, "//lint:allow in a test file is dead: analyzers never report against _test.go files; delete it")
			continue
		}
		if len(s.names) == 0 {
			report(s.pos, "//lint:allow without an analyzer name suppresses nothing; name the analyzer and document the reason")
			continue
		}
		for _, name := range s.names {
			if !KnownAnalyzerNames[name] {
				report(s.pos, "//lint:allow names unknown analyzer %q; the suppression is dead (known: %s)", name, knownNamesList())
			}
		}
		if s.reason == "" {
			report(s.pos, "//lint:allow %s has no reason; every exception must document why it is safe (reviewed in DESIGN.md's allow inventory)", strings.Join(s.names, ","))
		}
	}
	return out
}

func knownNamesList() string {
	names := make([]string, 0, len(KnownAnalyzerNames))
	for n := range KnownAnalyzerNames {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
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
