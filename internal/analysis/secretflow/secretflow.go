// Package secretflow tracks where secret values flow (paper Section V: the
// trusted Troxy subsystem keeps client session keys, counter-certification
// keys, and sealed state inside the enclave; the untrusted host only ever
// sees ciphertext). boundarycheck pins down *who may call what* across the
// trust boundary; secretflow pins down *where the secret bytes go* within
// each function, using the intra-procedural dataflow engine.
//
// Taint sources:
//
//   - declarations annotated `// troxy:secret` (struct fields, package
//     variables, locals, parameters) — the annotation registry for key
//     material the type system cannot distinguish from ordinary []byte
//     (the trusted counter's HMAC key, the enclave's sealing key, ...);
//   - values of key types: crypto/ed25519.PrivateKey and
//     crypto/ecdh.PrivateKey;
//   - results of key-derivation calls: crypto/hkdf Extract/Expand/Key,
//     (*ecdh.PrivateKey).ECDH, and crypto/hmac.New (the keyed MAC state).
//
// Sinks (a diagnostic means secret bytes can reach untrusted memory or a
// log line):
//
//   - formatting and logging: any call into fmt, log, log/slog, or errors
//     with a tainted argument;
//   - wire encoders outside the enclave surface: calls into internal/wire
//     (Writer methods, WriteFrame) with a tainted argument from a package
//     outside the trusted roots — trusted code may frame secrets because
//     it encrypts or seals them first, host code may not;
//   - the ecall return path: an ecall handler (the func([]byte) ([]byte,
//     error) values registered in an ECall table) returning a tainted
//     value — enclave.ECall copies results into untrusted memory, so
//     returning secret material is a leak regardless of copying.
//
// Taint also propagates *through* same-package calls, via the
// inter-procedural summaries of internal/analysis/interproc: a tainted
// argument to a helper whose summary says the parameter reaches a log/wire
// sink is reported at the call site; a helper whose summary says the
// parameter flows to a result (an identity or copying helper) taints the
// call's results; and a helper that derives key material internally and
// returns it (the laundering shape) yields tainted results with no tainted
// input at all. The summaries are computed bottom-up over the call graph's
// SCCs with a fixpoint, so mutual recursion converges.
//
// Known limits, by design: summaries stop at the package boundary — an
// out-of-package call with tainted arguments still declassifies by default
// (Seal, Encrypt, Sign, mac.Sum legitimately transform secrets into
// publishable bytes), and the discipline stays compositional: the other
// package's bodies face the same analyzer. Calls through func values and
// interface implementations outside the package are invisible to the
// summaries. Error values never carry taint: errors are built for display,
// and wrapping one that came out of a derivation call is not a leak.
package secretflow

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/troxy-bft/troxy/internal/analysis"
	"github.com/troxy-bft/troxy/internal/analysis/dataflow"
	"github.com/troxy-bft/troxy/internal/analysis/interproc"
)

// Analyzer is the secretflow analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "secretflow",
	Doc:  "secret key material must not reach logs, host-side wire encoders, or the ecall return path",
	Run:  run,
}

// sinkPkgs are the formatting/logging packages: any call into them with a
// tainted argument is a leak.
var sinkPkgs = map[string]bool{
	"fmt":      true,
	"log":      true,
	"log/slog": true,
	"errors":   true,
}

const wirePkg = analysis.ModulePath + "/internal/wire"

func run(pass *analysis.Pass) error {
	rel, ok := analysis.RelPath(pass.Path())
	if !ok {
		return nil
	}
	trusted := analysis.Trusted(rel)

	annotated := collectAnnotated(pass)
	handlers := collectHandlers(pass)
	enclosing := collectEnclosing(pass)

	source := func(e ast.Expr) bool {
		switch x := e.(type) {
		case *ast.Ident:
			if obj := identObj(pass, x); obj != nil && annotated[obj] {
				return true
			}
		case *ast.SelectorExpr:
			if obj := pass.TypesInfo.Uses[x.Sel]; obj != nil && annotated[obj] {
				return true
			}
		}
		if tv, ok := pass.TypesInfo.Types[e]; ok && tv.IsValue() && isSecretType(tv.Type) {
			return true
		}
		return false
	}
	// callSink classifies an out-of-package callee as a sink for the summary
	// engine (and mirrors the direct reporting below).
	callSink := func(fn *types.Func) interproc.SinkKind {
		pkgPath := fn.Pkg().Path()
		var k interproc.SinkKind
		if sinkPkgs[pkgPath] {
			k |= interproc.SinkLog
		}
		if !trusted && pkgPath == wirePkg {
			k |= interproc.SinkWire
		}
		return k
	}
	graph := interproc.Build(pass.Files, pass.TypesInfo, pass.Pkg, &interproc.TaintSpec{
		Source:     source,
		Derivation: isDerivation,
		CallSink:   callSink,
	})

	h := &dataflow.Hooks{
		Info:   pass.TypesInfo,
		Source: source,
		TransferCall: func(call *ast.CallExpr, info dataflow.CallInfo, st *dataflow.State) bool {
			fn := interproc.CalleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil {
				return false
			}
			if isDerivation(fn) {
				return true
			}
			if node := graph.Lookup(fn); node != nil {
				// Same-package call: apply the callee's summary — sinks its
				// body (transitively) feeds from tainted inputs, reported at
				// this call site, plus result taint.
				res := node.Sum.ResultsTainted
				var sinks interproc.SinkKind
				if info.RecvTainted {
					sinks |= node.Sum.RecvFlow.Sinks
					res = res || node.Sum.RecvFlow.ToResult
				}
				for i, t := range info.ArgsTainted {
					if !t {
						continue
					}
					f := node.Sum.ArgFlow(i)
					sinks |= f.Sinks
					res = res || f.ToResult
				}
				if info.Reporting {
					if sinks&interproc.SinkLog != 0 {
						pass.Reportf(call.Pos(),
							"secret-tainted argument to %s reaches a formatting/logging sink inside the callee; key material must never be formatted or logged", fn.Name())
					}
					if sinks&interproc.SinkWire != 0 {
						pass.Reportf(call.Pos(),
							"secret-tainted argument to %s reaches a wire encoder inside the callee; only ciphertext may leave the trusted packages", fn.Name())
					}
				}
				return res
			}
			if !info.ArgTainted || !info.Reporting {
				return false
			}
			pkgPath := fn.Pkg().Path()
			if sinkPkgs[pkgPath] {
				pass.Reportf(call.Pos(),
					"secret-tainted value reaches %s.%s; key material must never be formatted or logged", pkgBase(pkgPath), fn.Name())
			}
			if !trusted && pkgPath == wirePkg {
				pass.Reportf(call.Pos(),
					"secret-tainted value written to the wire via %s.%s outside the enclave surface; only ciphertext may leave the trusted packages", pkgBase(pkgPath), fn.Name())
			}
			return false
		},
		OnReturn: func(ret *ast.ReturnStmt, tainted []bool, st *dataflow.State) {
			if !handlers[enclosing[ret]] {
				return
			}
			for i, t := range tainted {
				if t {
					pass.Reportf(ret.Results[i].Pos(),
						"ecall handler returns a secret-tainted value; results are copied into untrusted memory by the ecall runtime")
				}
			}
		},
	}

	for _, f := range pass.Files {
		for _, body := range dataflow.FuncBodies(f) {
			dataflow.Run(h, body)
		}
	}
	return nil
}

// collectAnnotated gathers the objects declared with a `// troxy:secret`
// annotation (on the declaration's doc comment or trailing line comment):
// struct fields, package vars, locals, and parameters.
func collectAnnotated(pass *analysis.Pass) map[types.Object]bool {
	out := make(map[types.Object]bool)
	mark := func(names []*ast.Ident) {
		for _, name := range names {
			if obj := pass.TypesInfo.Defs[name]; obj != nil {
				out[obj] = true
			}
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				if hasSecretMark(n.Doc) || hasSecretMark(n.Comment) {
					mark(n.Names)
				}
			case *ast.ValueSpec:
				if hasSecretMark(n.Doc) || hasSecretMark(n.Comment) {
					mark(n.Names)
				}
			case *ast.GenDecl:
				if hasSecretMark(n.Doc) {
					for _, spec := range n.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok {
							mark(vs.Names)
						}
					}
				}
			}
			return true
		})
	}
	return out
}

func hasSecretMark(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == "troxy:secret" || strings.HasPrefix(text, "troxy:secret ") {
			return true
		}
	}
	return false
}

// collectHandlers returns the set of function literals registered as ecall
// handlers (values of an ECall-table composite literal or index assignment).
func collectHandlers(pass *analysis.Pass) map[ast.Node]bool {
	out := make(map[ast.Node]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if analysis.IsECallTableType(pass.TypesInfo.Types[n].Type) {
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if lit, ok := kv.Value.(*ast.FuncLit); ok {
								out[lit] = true
							}
						}
					}
				}
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					lit, ok := rhs.(*ast.FuncLit)
					if !ok || i >= len(n.Lhs) {
						continue
					}
					if idx, ok := n.Lhs[i].(*ast.IndexExpr); ok &&
						analysis.IsECallTableType(pass.TypesInfo.Types[idx.X].Type) {
						out[lit] = true
					}
				}
			}
			return true
		})
	}
	return out
}

// collectEnclosing maps every return statement to its innermost enclosing
// function node (FuncDecl or FuncLit).
func collectEnclosing(pass *analysis.Pass) map[*ast.ReturnStmt]ast.Node {
	out := make(map[*ast.ReturnStmt]ast.Node)
	for _, f := range pass.Files {
		var stack []ast.Node
		var funcs []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if len(funcs) > 0 && funcs[len(funcs)-1] == top {
					funcs = funcs[:len(funcs)-1]
				}
				return true
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				funcs = append(funcs, n)
			case *ast.ReturnStmt:
				if len(funcs) > 0 {
					out[n] = funcs[len(funcs)-1]
				}
			}
			return true
		})
	}
	return out
}

// isSecretType reports whether t is (a pointer to) a private-key type.
func isSecretType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() {
	case "crypto/ed25519", "crypto/ecdh":
		return named.Obj().Name() == "PrivateKey"
	}
	return false
}

// isDerivation reports whether fn is a key-derivation call whose results
// carry taint.
func isDerivation(fn *types.Func) bool {
	switch fn.Pkg().Path() {
	case "crypto/hkdf":
		switch fn.Name() {
		case "Extract", "Expand", "Key":
			return true
		}
	case "crypto/hmac":
		return fn.Name() == "New"
	case "crypto/ecdh":
		return fn.Name() == "ECDH"
	}
	return false
}

func identObj(pass *analysis.Pass, id *ast.Ident) types.Object {
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
}

func pkgBase(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}
