// Package allocfree is the static half of the zero-allocation gate
// (DESIGN.md §9.3): functions annotated `//troxy:hotpath` in their doc
// comment — the envelope encode path, the realnet send-ring drain, the
// securechannel seal loop — are certified transitively allocation-free, so
// the 0 allocs/op claim the benchmarks gate (make bench-quick) holds by
// construction instead of by whichever inputs the benchmark happened to
// exercise.
//
// From each annotated root the analyzer walks the package call graph
// (internal/analysis/interproc) breadth-first and reports, with the
// shortest call path from the root in the message:
//
//   - every heap-allocation site (interproc.AllocSite: make/new, slice and
//     map literals, &composite escapes, append, string conversions and
//     concatenation, closures) outside a cold failure block;
//   - goroutine spawns — a spawn allocates a stack, and the spawned work
//     is off the hot path by definition;
//   - calls through func values and dynamic interface calls, which the
//     graph cannot resolve and so cannot certify;
//   - calls into other packages not in the allocation-free vocabulary
//     below.
//
// Cold failure blocks (a nested block ending in panic or in a return
// carrying a constructed error — interproc.ColdRegions) are exempt: the
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
	"go/types"
	"strings"

	"github.com/troxy-bft/troxy/internal/analysis"
	"github.com/troxy-bft/troxy/internal/analysis/interproc"
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

	g := interproc.Build(pass.Files, pass.TypesInfo, pass.Pkg, nil)

	// Breadth-first from the roots: the first path to reach a function is
	// a shortest one, and each function is certified once.
	type visit struct {
		node *interproc.Node
		path string
	}
	var queue []visit
	seen := make(map[*interproc.Node]bool)
	for _, fd := range roots {
		fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
		if node := g.Lookup(fn); node != nil && !seen[node] {
			seen[node] = true
			queue = append(queue, visit{node, fd.Name.Name})
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, callee := range checkBody(pass, g, v.node, v.path) {
			if !seen[callee] {
				seen[callee] = true
				queue = append(queue, visit{callee, v.path + " → " + callee.Fn.Name()})
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
func checkBody(pass *analysis.Pass, g *interproc.Graph, n *interproc.Node, path string) []*interproc.Node {
	info := pass.TypesInfo
	cold := interproc.ColdRegions(info, n.Decl.Body)
	var callees []*interproc.Node

	var walk func(node ast.Node) bool
	walk = func(node ast.Node) bool {
		if node == nil {
			return false
		}
		if cold[node] {
			return false // error exits may allocate their diagnostics
		}
		if desc, ok := interproc.AllocSite(info, node); ok {
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
			if callee := checkCall(pass, g, x, path); callee != nil {
				callees = append(callees, callee)
			}
		}
		return true
	}
	ast.Inspect(n.Decl.Body, walk)
	return callees
}

// checkCall certifies one call site: in-package callees are returned for
// traversal, out-of-package callees must be in the clean vocabulary, and
// unresolvable calls are reported outright.
func checkCall(pass *analysis.Pass, g *interproc.Graph, call *ast.CallExpr, path string) *interproc.Node {
	info := pass.TypesInfo
	// Conversions and builtins are covered by AllocSite (string
	// conversions, make/new/append); the rest of them are free.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return nil
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			return nil
		}
	}
	fn := interproc.CalleeFunc(info, call)
	if fn == nil {
		pass.Reportf(call.Pos(), "unresolvable call on hot path (%s): a func-value target cannot be certified allocation-free", path)
		return nil
	}
	if node := g.Lookup(fn); node != nil {
		return node
	}
	if fn.Pkg() == pass.Pkg {
		// Declared in this package but absent from the graph: a dynamic
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
