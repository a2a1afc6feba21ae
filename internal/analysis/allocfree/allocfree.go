// Package allocfree is the static half of the zero-allocation gate
// (DESIGN.md §9.3): functions annotated `//troxy:hotpath` in their doc
// comment — the envelope encode path, the realnet send-ring drain, the
// securechannel seal loop — are certified transitively allocation-free, so
// the 0 allocs/op claim the benchmarks gate (make bench-quick) holds by
// construction instead of by whichever inputs the benchmark happened to
// exercise.
//
// From each annotated root the analyzer walks the static same-package calls
// breadth-first and reports, with the shortest call path from the root in
// the message:
//
//   - every heap-allocation site (allocSite: make/new, slice and
//     map literals, &composite escapes, append, string conversions and
//     concatenation, closures) outside a cold failure block;
//   - goroutine spawns — a spawn allocates a stack, and the spawned work
//     is off the hot path by definition;
//   - calls through func values and dynamic interface calls, which the
//     walk cannot resolve and so cannot certify;
//   - calls into other packages not in the allocation-free vocabulary
//     below.
//
// Cold failure blocks (a nested block ending in panic or in a return
// carrying a constructed error — coldRegions) are exempt: the
// benchmark gate measures the steady state, and error exits may allocate
// their diagnostics.
//
// The cross-package vocabulary is deliberately small and explicit:
// internal/wire's append-path Writer methods and PutWriter (amortized
// zero — the writer is pooled and pre-sized; GetWriter is NOT clean, a
// pool miss allocates, so the acquisition site carries the allow, not the
// steady-state encode calls), encoding/binary, sync lock/unlock,
// sync/atomic, math/bits, runtime.Gosched, and the net syscall surface
// (Conn Read/Write/vectored WriteTo/deadlines — kernel-boundary calls the
// allocator never sees). Anything else — fmt, errors, log, crypto —
// either allocates or cannot be audited here, and needs a reviewed
// //lint:allow allocfree naming the pool or the amortization argument.
package allocfree

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/troxy-bft/troxy/internal/analysis"
)

// Analyzer is the allocfree analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "allocfree",
	Doc:  "//troxy:hotpath functions must be transitively allocation-free outside cold failure blocks",
	Run:  run,
}

// hotPathMarker is the doc-comment annotation that roots the analysis.
const hotPathMarker = "troxy:hotpath"

// cleanWire is the allocation-free surface of internal/wire: the pooled
// Writer's append-path methods. GetWriter is excluded — a pool miss
// allocates a fresh writer, so the acquisition site documents itself with
// an allow.
var cleanWire = map[string]bool{
	"U8": true, "U32": true, "U64": true, "I64": true,
	"Bool": true, "Bytes32": true, "String": true, "Raw": true,
	"BeginFrame": true, "EndFrame": true, "Len": true, "Bytes": true,
	"Reset": true, "CopyBytes": true, "PutWriter": true,
}

// cleanNet is the syscall surface of net.Conn and friends: kernel-boundary
// calls that do not touch the Go allocator.
var cleanNet = map[string]bool{
	"Read": true, "Write": true, "WriteTo": true, "Close": true,
	"SetDeadline": true, "SetReadDeadline": true, "SetWriteDeadline": true,
}

// cleanSync is the lock surface of sync; Pool.Get/Put are absent — Get
// allocates through New on a miss.
var cleanSync = map[string]bool{
	"Lock": true, "Unlock": true, "RLock": true, "RUnlock": true, "TryLock": true,
}

func run(pass *analysis.Pass) error {
	var roots []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil && isHotPath(fd) {
				roots = append(roots, fd)
			}
		}
	}
	if len(roots) == 0 {
		return nil
	}

	decls := analysis.FuncDecls(pass.Files, pass.TypesInfo)

	// Breadth-first from the roots: the first path to reach a function is
	// a shortest one, and each function is certified once.
	type visit struct {
		fd   *ast.FuncDecl
		path string
	}
	var queue []visit
	seen := make(map[*ast.FuncDecl]bool)
	for _, fd := range roots {
		seen[fd] = true
		queue = append(queue, visit{fd, fd.Name.Name})
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, callee := range checkBody(pass, decls, v.fd, v.path) {
			if !seen[callee] {
				seen[callee] = true
				queue = append(queue, visit{callee, v.path + " → " + callee.Name.Name})
			}
		}
	}
	return nil
}

// isHotPath reports whether fd's doc comment carries the hotpath marker.
func isHotPath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.Contains(c.Text, hotPathMarker) {
			return true
		}
	}
	return false
}

// checkBody reports every allocation obligation in one function reached
// via path and returns the in-package callees to certify next.
func checkBody(pass *analysis.Pass, decls map[*types.Func]*ast.FuncDecl, fd *ast.FuncDecl, path string) []*ast.FuncDecl {
	info := pass.TypesInfo
	cold := coldRegions(info, fd.Body)
	var callees []*ast.FuncDecl

	var walk func(node ast.Node) bool
	walk = func(node ast.Node) bool {
		if node == nil {
			return false
		}
		if cold[node] {
			return false // error exits may allocate their diagnostics
		}
		if desc, ok := allocSite(info, node); ok {
			pass.Reportf(node.Pos(), "allocation on hot path (%s): %s", path, desc)
			// A closure's body runs elsewhere; reporting its creation is
			// the whole finding.
			if _, isLit := node.(*ast.FuncLit); isLit {
				return false
			}
		}
		switch x := node.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			pass.Reportf(x.Pos(), "goroutine spawn on hot path (%s): a spawn allocates its stack and the work leaves the hot path", path)
			return false
		case *ast.CallExpr:
			if callee := checkCall(pass, decls, x, path); callee != nil {
				callees = append(callees, callee)
			}
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
	return callees
}

// checkCall certifies one call site: in-package callees are returned for
// traversal, out-of-package callees must be in the clean vocabulary, and
// unresolvable calls are reported outright.
func checkCall(pass *analysis.Pass, decls map[*types.Func]*ast.FuncDecl, call *ast.CallExpr, path string) *ast.FuncDecl {
	info := pass.TypesInfo
	// Conversions and builtins are covered by allocSite (string
	// conversions, make/new/append); the rest of them are free.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return nil
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			return nil
		}
	}
	fn := analysis.CalleeFunc(info, call)
	if fn == nil {
		pass.Reportf(call.Pos(), "unresolvable call on hot path (%s): a func-value target cannot be certified allocation-free", path)
		return nil
	}
	if fd := decls[fn]; fd != nil {
		return fd
	}
	if fn.Pkg() == pass.Pkg {
		// Declared in this package but with no body to follow: a dynamic
		// interface method — the concrete target is unknowable here.
		pass.Reportf(call.Pos(), "dynamic interface call %s on hot path (%s): the concrete target cannot be certified allocation-free", fn.Name(), path)
		return nil
	}
	if !cleanCallee(fn) {
		pass.Reportf(call.Pos(), "call to %s on hot path (%s): outside the allocation-free vocabulary", calleeLabel(fn), path)
	}
	return nil
}

// cleanCallee reports whether an out-of-package callee is in the
// allocation-free vocabulary.
func cleanCallee(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return true // error.Error and friends from the universe scope
	}
	switch pkg.Path() {
	case analysis.ModulePath + "/internal/wire":
		return cleanWire[fn.Name()]
	case "encoding/binary", "sync/atomic", "math/bits":
		return true
	case "sync":
		return cleanSync[fn.Name()]
	case "runtime":
		return fn.Name() == "Gosched"
	case "net":
		return cleanNet[fn.Name()]
	}
	return false
}

// calleeLabel renders pkg.Func or pkg.Type.Method for diagnostics.
func calleeLabel(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name() + "."
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return pkg + named.Obj().Name() + "." + fn.Name()
		}
	}
	return pkg + fn.Name()
}

// allocSite classifies one AST node as a direct heap allocation and returns
// a short description. The analyzer's vocabulary: make/new, append
// growth, string↔slice conversions, slice/map literals, &composite escapes,
// string concatenation, and closures. Goroutine spawns are handled by the
// walkers (the GoStmt, not a sub-expression, is the site). Plain struct
// composites by value are not flagged (usually stack-allocated), and
// interface conversions are a documented under-approximation.
func allocSite(info *types.Info, node ast.Node) (string, bool) {
	switch x := node.(type) {
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				switch id.Name {
				case "make":
					return "make", true
				case "new":
					return "new", true
				case "append":
					return "append (may grow its backing array)", true
				}
				return "", false
			}
		}
		if tv, ok := info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			if isStringSliceConv(tv.Type, typeOf(info, x.Args[0])) {
				return "string conversion (copies)", true
			}
		}
	case *ast.CompositeLit:
		switch typeOf(info, x).Underlying().(type) {
		case *types.Slice:
			return "slice literal", true
		case *types.Map:
			return "map literal", true
		}
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
				return "&composite literal (escapes to heap)", true
			}
		}
	case *ast.FuncLit:
		return "function literal (closure)", true
	case *ast.BinaryExpr:
		if x.Op == token.ADD {
			if b, ok := typeOf(info, x).Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				return "string concatenation", true
			}
		}
	}
	return "", false
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if t := info.Types[e].Type; t != nil {
		return t
	}
	return types.Typ[types.Invalid]
}

func isStringSliceConv(to, from types.Type) bool {
	return (isStringy(to) && isByteOrRuneSlice(from)) || (isByteOrRuneSlice(to) && isStringy(from))
}

func isStringy(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// coldRegions marks every node inside a cold failure block of body: a
// nested block whose last statement is a panic or a return carrying a
// recognizable error construction (fmt.Errorf, errors.New/Join, &FooError{},
// a package-level ErrX). Allocations there serve the failure path only —
// fmt.Errorf in an oversize-frame branch — and are exempt,
// matching the happy-path semantics of the 0 allocs/op benchmark gates.
// The function body itself never qualifies (a trailing `return err` is the
// happy path, not a failure exit).
func coldRegions(info *types.Info, body *ast.BlockStmt) map[ast.Node]bool {
	cold := make(map[ast.Node]bool)
	ast.Inspect(body, func(nd ast.Node) bool {
		b, ok := nd.(*ast.BlockStmt)
		if !ok || b == body || len(b.List) == 0 {
			return true
		}
		if !failureExit(info, b.List[len(b.List)-1]) {
			return true
		}
		ast.Inspect(b, func(m ast.Node) bool {
			if m != nil {
				cold[m] = true
			}
			return true
		})
		return false
	})
	return cold
}

func isIdentNamed(e ast.Expr, name string) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == name
}

// failureExit reports whether stmt is a recognizable failure-path exit.
func failureExit(info *types.Info, stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		call, ok := ast.Unparen(s.X).(*ast.CallExpr)
		if !ok {
			return false
		}
		return isIdentNamed(call.Fun, "panic")
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			if failureErrorExpr(info, r) {
				return true
			}
		}
	}
	return false
}

// failureErrorExpr recognizes an error-construction expression marking a
// failure return: fmt.Errorf(...), errors.New/Join(...), &FooError{...},
// or a package-level ErrX sentinel.
func failureErrorExpr(info *types.Info, e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		fn := analysis.CalleeFunc(info, x)
		if fn == nil || fn.Pkg() == nil {
			return false
		}
		switch fn.Pkg().Path() {
		case "fmt":
			return fn.Name() == "Errorf"
		case "errors":
			return fn.Name() == "New" || fn.Name() == "Join"
		}
	case *ast.UnaryExpr:
		if x.Op != token.AND {
			return false
		}
		cl, ok := ast.Unparen(x.X).(*ast.CompositeLit)
		if !ok {
			return false
		}
		if named, ok := typeOf(info, cl).(*types.Named); ok {
			return strings.HasSuffix(named.Obj().Name(), "Error")
		}
	case *ast.Ident:
		return strings.HasPrefix(x.Name, "Err")
	}
	return false
}
