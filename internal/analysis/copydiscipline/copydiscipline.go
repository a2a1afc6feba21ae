// Package copydiscipline enforces the defensive-copy rule at the enclave
// boundary (paper Section V-A: argument buffers are copied when crossing
// into the enclave, results are copied out, and trusted code never retains
// references to untrusted memory).
//
// The analyzer identifies boundary functions inside the trusted packages:
//
//   - ecall handlers: function literals of type func([]byte) ([]byte, error)
//     registered in an ecall table (a map[string]func([]byte) ([]byte,
//     error) composite literal or assignment), and
//   - provisioning entry points: methods named Provision taking
//     map[string][]byte (the post-attestation secret delivery path).
//
// Within a boundary function, the buffer that crossed the boundary (the
// []byte argument, the secrets map, or any local alias of either) must not
//
//   - be stored into anything that outlives the call (a field, package
//     variable, or element of a non-local map/slice), nor
//   - be returned by reference (directly, re-sliced, or via append to the
//     crossing buffer), and handlers must not return enclave-internal
//     buffers (slice- or map-typed fields) by reference either.
//
// Passing the buffer onward to a callee is permitted: the discipline is
// compositional, and callees in trusted packages face the same analyzer.
// The tracking is intra-procedural and syntactic by design — it is a lint,
// not an escape analysis. The enclave runtime (internal/enclave.ECallAppend)
// still makes the real copies, one per direction on every crossing; what it
// no longer does is allocate for them: the copy-in lands in a buffer the
// enclave reuses for the next crossing. So the no-retention rule is no longer
// only backstopped by the runtime, it is what makes the runtime's reuse safe —
// a handler that kept its argument would read a later call's bytes in it
// (enclave.TestRetainedArgumentIsOverwritten), and beyond the handlers this
// analyzer sees, the Troxy's poison tests hold the state behind them to it.
package copydiscipline

import (
	"go/ast"
	"go/types"

	"github.com/troxy-bft/troxy/internal/analysis"
)

// Analyzer is the copydiscipline analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "copydiscipline",
	Doc:  "buffers crossing the ecall boundary must be defensively copied before storage and never returned by reference from enclave-internal state",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	rel, ok := analysis.RelPath(pass.Path())
	if !ok || !analysis.Trusted(rel) {
		return nil
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if isECallTable(pass, n) {
					for _, elt := range n.Elts {
						kv, ok := elt.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						if lit, ok := kv.Value.(*ast.FuncLit); ok {
							checkBoundaryFunc(pass, lit.Type, lit.Body, "ecall handler")
						}
					}
				}
			case *ast.AssignStmt:
				// table[name] = func(arg []byte) ([]byte, error) {...}
				for i, rhs := range n.Rhs {
					lit, ok := rhs.(*ast.FuncLit)
					if !ok || i >= len(n.Lhs) {
						continue
					}
					idx, ok := n.Lhs[i].(*ast.IndexExpr)
					if !ok {
						continue
					}
					if analysis.IsECallTableType(pass.TypesInfo.Types[idx.X].Type) {
						checkBoundaryFunc(pass, lit.Type, lit.Body, "ecall handler")
					}
				}
			case *ast.FuncDecl:
				if n.Name.Name == "Provision" && n.Recv != nil && isSecretsSig(pass, n.Type) {
					checkBoundaryFunc(pass, n.Type, n.Body, "provisioning entry point")
				}
			}
			return true
		})
	}
	return nil
}

// isECallTable reports whether lit is a composite literal of an ecall-table
// type (map[string]func([]byte) ([]byte, error)).
func isECallTable(pass *analysis.Pass, lit *ast.CompositeLit) bool {
	return analysis.IsECallTableType(pass.TypesInfo.Types[lit].Type)
}

// isSecretsSig reports whether ft is func(map[string][]byte) error.
func isSecretsSig(pass *analysis.Pass, ft *ast.FuncType) bool {
	if ft.Params == nil || len(ft.Params.List) != 1 {
		return false
	}
	t := pass.TypesInfo.Types[ft.Params.List[0].Type].Type
	if t == nil {
		return false
	}
	m, ok := t.Underlying().(*types.Map)
	if !ok {
		return false
	}
	if b, ok := m.Key().Underlying().(*types.Basic); !ok || b.Kind() != types.String {
		return false
	}
	return analysis.IsByteSlice(m.Elem())
}

// checkBoundaryFunc verifies the copy discipline inside one boundary
// function: ft/body are its type and body, kind names it in diagnostics.
func checkBoundaryFunc(pass *analysis.Pass, ft *ast.FuncType, body *ast.BlockStmt, kind string) {
	if body == nil || ft.Params == nil {
		return
	}
	// Seed the alias set with the boundary parameters (slice or map typed).
	aliases := make(map[types.Object]bool)
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			obj := pass.TypesInfo.Defs[name]
			if obj == nil {
				continue
			}
			switch obj.Type().Underlying().(type) {
			case *types.Slice, *types.Map:
				aliases[obj] = true
			}
		}
	}
	if len(aliases) == 0 {
		return
	}

	// Forward pass: grow the alias set through local rebinding (q := p,
	// for k, v := range p) and report escaping stores and reference
	// returns.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				if !aliasExpr(pass, aliases, rhs) {
					continue
				}
				lhs := n.Lhs[i]
				if id, ok := lhs.(*ast.Ident); ok {
					if id.Name == "_" {
						continue
					}
					// Local rebinding extends the alias set; assignment to
					// a captured or package-level variable escapes.
					if obj := defOrUse(pass, id); obj != nil {
						if aliases[obj] || isLocalVar(obj, ft, body) {
							aliases[obj] = true
						} else {
							pass.Reportf(n.Pos(),
								"%s stores the boundary buffer into %s without a defensive copy", kind, id.Name)
						}
					}
					continue
				}
				pass.Reportf(n.Pos(),
					"%s stores the boundary buffer into %s without a defensive copy; the untrusted side retains a reference into trusted state", kind, exprString(lhs, pass, aliases))
			}
		case *ast.RangeStmt:
			// for k, v := range <alias>: the value (and, for maps of
			// slices, even the key) aliases boundary memory.
			if aliasExpr(pass, aliases, n.X) {
				for _, e := range []ast.Expr{n.Key, n.Value} {
					if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
						if obj := pass.TypesInfo.Defs[id]; obj != nil {
							switch obj.Type().Underlying().(type) {
							case *types.Slice, *types.Map:
								aliases[obj] = true
							}
						}
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if aliasExpr(pass, aliases, res) {
					pass.Reportf(res.Pos(),
						"%s returns the boundary buffer by reference; copy it (the caller may mutate or retain it)", kind)
					continue
				}
				if kind == "ecall handler" && isInternalBufferRef(pass, res, ft, body) {
					pass.Reportf(res.Pos(),
						"%s returns an enclave-internal buffer by reference; copy it before it crosses the boundary", kind)
				}
			}
		}
		return true
	})
}

// aliasExpr reports whether e syntactically aliases a tracked boundary
// buffer: the identifier itself, a paren/slice/index over it, or an append
// growing it in place.
func aliasExpr(pass *analysis.Pass, aliases map[types.Object]bool, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[e]
		return obj != nil && aliases[obj]
	case *ast.ParenExpr:
		return aliasExpr(pass, aliases, e.X)
	case *ast.SliceExpr:
		return aliasExpr(pass, aliases, e.X)
	case *ast.IndexExpr:
		// secrets["key"] aliases the stored value of a boundary map.
		return aliasExpr(pass, aliases, e.X)
	case *ast.CallExpr:
		// append(p, ...) may return p's backing array.
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "append" && len(e.Args) > 0 {
			if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
				return aliasExpr(pass, aliases, e.Args[0])
			}
		}
	}
	return false
}

// defOrUse resolves an identifier whether it defines or uses a variable.
func defOrUse(pass *analysis.Pass, id *ast.Ident) types.Object {
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
}

// isLocalVar reports whether obj is declared inside the boundary function
// (its signature or body), as opposed to a captured variable, receiver, or
// package-level variable.
func isLocalVar(obj types.Object, ft *ast.FuncType, body *ast.BlockStmt) bool {
	pos := obj.Pos()
	return pos >= ft.Pos() && pos <= body.End()
}

// isInternalBufferRef reports whether res is a selector chain (t.buf,
// t.core.buf) of slice or map type rooted outside the handler — i.e. an
// enclave-internal buffer escaping by reference.
func isInternalBufferRef(pass *analysis.Pass, res ast.Expr, ft *ast.FuncType, body *ast.BlockStmt) bool {
	sel, ok := ast.Unparen(res).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	t := pass.TypesInfo.Types[res].Type
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
	default:
		return false
	}
	root := sel.X
	for {
		switch x := ast.Unparen(root).(type) {
		case *ast.SelectorExpr:
			root = x.X
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[x]
			return obj != nil && !isLocalVar(obj, ft, body)
		default:
			return false
		}
	}
}

func exprString(e ast.Expr, pass *analysis.Pass, aliases map[types.Object]bool) string {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		return "a field"
	case *ast.IndexExpr:
		if aliasExpr(pass, aliases, e.X) {
			return "the boundary container itself"
		}
		return "a map/slice element"
	case *ast.StarExpr:
		return "a pointee"
	}
	return "escaping state"
}
