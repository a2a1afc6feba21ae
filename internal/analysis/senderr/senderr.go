// Package senderr flags silently dropped errors on the wire encode/send
// path. A BFT system's liveness accounting depends on knowing when a send
// failed (the paper's client-side Troxy re-issues requests and widens
// quorums on failure); a discarded write error turns a detectable fault
// into silent message loss.
//
// The analyzer is scoped to callees where a dropped error is message loss:
//
//   - functions and methods of internal/wire that return an error
//     (WriteFrame, ReadFrame, Reader.Finish, ...),
//   - *bufio.Writer's buffered-output methods (Flush, Write, WriteByte,
//     WriteString, WriteRune, ReadFrom), and
//   - Write/Read/SetDeadline/SetReadDeadline/SetWriteDeadline on any type
//     named Conn (net.Conn, tls.Conn, securechannel.Conn).
//
// Close is deliberately out of scope: dropping a close error during
// teardown is idiomatic. An error is "dropped" when the call appears as a
// bare statement (including defer/go) or when every error result is
// assigned to the blank identifier.
package senderr

import (
	"go/ast"
	"go/types"

	"github.com/troxy-bft/troxy/internal/analysis"
)

// bufioMethods are the *bufio.Writer methods whose error reports buffered
// bytes that never reached the wire.
var bufioMethods = map[string]bool{
	"Flush":       true,
	"Write":       true,
	"WriteByte":   true,
	"WriteRune":   true,
	"WriteString": true,
	"ReadFrom":    true,
}

// connMethods are the Conn methods whose error means the transport is no
// longer delivering bytes (or deadlines).
var connMethods = map[string]bool{
	"Write":            true,
	"Read":             true,
	"SetDeadline":      true,
	"SetReadDeadline":  true,
	"SetWriteDeadline": true,
}

// Analyzer is the senderr analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "senderr",
	Doc:  "errors on wire encode/send paths must not be silently dropped",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if _, ok := analysis.RelPath(pass.Path()); !ok {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkDiscarded(pass, call, "")
				}
			case *ast.DeferStmt:
				checkDiscarded(pass, n.Call, "deferred ")
			case *ast.GoStmt:
				checkDiscarded(pass, n.Call, "")
			case *ast.AssignStmt:
				checkBlankAssign(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkDiscarded reports a qualifying call whose results are discarded
// entirely (bare statement, defer, go).
func checkDiscarded(pass *analysis.Pass, call *ast.CallExpr, prefix string) {
	fn, why := qualifies(pass, call)
	if fn == nil {
		return
	}
	pass.Reportf(call.Pos(),
		"%serror from %s.%s dropped on the %s path: check it (a lost send must be visible to retry/monitoring logic)",
		prefix, recvOrPkg(fn), fn.Name(), why)
}

// checkBlankAssign reports `_, _ = call(...)` / `n, _ := conn.Write(p)`
// forms where every error result lands in the blank identifier.
func checkBlankAssign(pass *analysis.Pass, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	fn, why := qualifies(pass, call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || len(as.Lhs) != sig.Results().Len() {
		return
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if !isErrorType(sig.Results().At(i).Type()) {
			continue
		}
		id, ok := as.Lhs[i].(*ast.Ident)
		if !ok || id.Name != "_" {
			return // at least one error result is bound
		}
	}
	pass.Reportf(as.Pos(),
		"error from %s.%s assigned to _ on the %s path: check it (a lost send must be visible to retry/monitoring logic)",
		recvOrPkg(fn), fn.Name(), why)
}

// qualifies resolves the call's static callee and reports whether dropping
// its error loses wire traffic; why names the path for the diagnostic.
func qualifies(pass *analysis.Pass, call *ast.CallExpr) (fn *types.Func, why string) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = pass.TypesInfo.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = pass.TypesInfo.Uses[fun.Sel].(*types.Func)
	}
	if fn == nil || fn.Pkg() == nil {
		return nil, ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || !returnsError(sig) {
		return nil, ""
	}

	if rel, ok := analysis.RelPath(fn.Pkg().Path()); ok && analysis.Under(rel, "internal/wire") {
		return fn, "wire encode"
	}
	recv := recvName(sig)
	if fn.Pkg().Path() == "bufio" && recv == "Writer" && bufioMethods[fn.Name()] {
		return fn, "buffered send"
	}
	if recv == "Conn" && connMethods[fn.Name()] {
		return fn, "connection send"
	}
	return nil, ""
}

func returnsError(sig *types.Signature) bool {
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			return true
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// recvName returns the bare name of the receiver's (pointer-stripped) named
// or interface type, or "" for package-level functions.
func recvName(sig *types.Signature) string {
	if sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

func recvOrPkg(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok {
		if name := recvName(sig); name != "" {
			return name
		}
	}
	return fn.Pkg().Name()
}
