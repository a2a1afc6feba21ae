// Package determinism guards the replicated state machine's determinism
// (paper Section IV: all replicas must process the agreed sequence
// identically, and the Troxy's reply voting hashes must match across
// replicas). Inside the ordering core and the serialization/digest packages
// it flags the three classic determinism leaks:
//
//  1. wall-clock reads (time.Now, time.Since) — replicas disagree on time;
//     deterministic code receives time through node.Env.Now;
//
//  2. the process-global math/rand source (rand.Intn et al.) — shared,
//     unseeded state; deterministic code draws from an explicitly seeded
//     *rand.Rand (constructing one via rand.New(rand.NewSource(seed)) is
//     the sanctioned pattern and is not flagged);
//
//  3. protocol-visible iteration over a map — Go randomizes map order, so
//     any loop over a map whose body sends messages, feeds a digest, writes
//     wire bytes, collects the map's values, or calls a helper that takes
//     the runtime environment (a node.Env argument can send, set timers, or
//     charge costs) must first extract and sort the keys. Loops that only
//     collect keys (for later sorting), count votes, or delete entries are
//     order-insensitive and pass.
package determinism

import (
	"go/ast"
	"go/types"

	"github.com/troxy-bft/troxy/internal/analysis"
)

// scopeRoots are the packages whose behavior is replicated or digest-visible:
// the ordering core, the trusted proxy logic, the trusted counters, and the
// message/wire serialization they all feed.
var scopeRoots = []string{
	"internal/hybster",
	"internal/troxy",
	"internal/tcounter",
	"internal/msg",
	"internal/wire",
}

// randConstructors are the math/rand package-level functions that build
// seeded sources rather than draw from the global one.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

// effectCallees are method/function names whose invocation inside a
// map-range body makes the iteration order protocol-visible.
var effectCallees = map[string]bool{
	"Send":      true,
	"Broadcast": true,
	"SendTo":    true,
	"Certify":   true,
	"Digest":    true,
	"DigestOf":  true,
}

// Analyzer is the determinism analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "flag wall-clock reads, global math/rand, and protocol-visible map iteration in the replicated ordering and digest path",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	rel, ok := analysis.RelPath(pass.Path())
	if !ok {
		return nil
	}
	inScope := false
	for _, r := range scopeRoots {
		if analysis.Under(rel, r) {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" || fn.Name() == "Since" {
			pass.Reportf(call.Pos(),
				"wall clock (time.%s) in replicated code: replicas disagree on time; take it from node.Env.Now or pass it across the boundary explicitly", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() != nil {
			return // methods on an explicitly constructed (seeded) source are fine
		}
		if randConstructors[fn.Name()] {
			return
		}
		pass.Reportf(call.Pos(),
			"global math/rand source (rand.%s) in replicated code: draw from a seeded *rand.Rand (rand.New(rand.NewSource(seed))) instead", fn.Name())
	}
}

// checkMapRange flags `for ... := range m` over a map whose body has a
// protocol-visible effect that depends on iteration order.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	t := pass.TypesInfo.Types[rng.X].Type
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	valObj := rangeVarObj(pass, rng.Value)

	var effect string
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if effect != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// append(acc, v): accumulating the map's values (or anything beyond
		// the bare key) bakes iteration order into the result. Accumulating
		// only keys for a later sort is the sanctioned pattern.
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
			if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
				for _, arg := range call.Args[1:] {
					if usesObj(pass, arg, valObj) {
						effect = "appends the map's values"
						return false
					}
				}
				return true
			}
		}
		// Any call that receives the runtime environment can send, set
		// timers, or charge costs — all protocol-visible. This is what makes
		// the pipeline's in-flight window safe to keep in a map: helpers like
		// the leader's re-proposal pump take node.Env, so iterating the
		// window map while driving them would leak map order into the
		// protocol. (hybster re-drives the window in sequence order instead.)
		for _, arg := range call.Args {
			if t := pass.TypesInfo.Types[arg].Type; t != nil && isNodeEnv(t) {
				effect = "drives the protocol (node.Env argument)"
				return false
			}
		}
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		if effectCallees[fn.Name()] {
			effect = "calls " + fn.Name()
			return false
		}
		if fn.Pkg() != nil && fn.Pkg().Path() == "hash" {
			effect = "feeds a hash" // interface method of hash.Hash
			return false
		}
		if recv := recvNamed(fn); recv != nil {
			if relp, ok := analysis.RelPath(recv.Obj().Pkg().Path()); ok &&
				relp == "internal/wire" && recv.Obj().Name() == "Writer" {
				effect = "writes wire bytes"
				return false
			}
		}
		return true
	})
	if effect != "" {
		pass.Reportf(rng.Pos(),
			"map iteration order is randomized but this loop %s: extract the keys, sort them, then iterate", effect)
	}
}

// isNodeEnv reports whether t is the node.Env runtime interface (identified
// by name and module-relative package path, so analysistest fixtures that
// mirror the module layout are recognized too).
func isNodeEnv(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Name() != "Env" {
		return false
	}
	rel, ok := analysis.RelPath(obj.Pkg().Path())
	return ok && rel == "internal/node"
}

func rangeVarObj(pass *analysis.Pass, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
}

// usesObj reports whether expression e references obj.
func usesObj(pass *analysis.Pass, e ast.Expr, obj types.Object) bool {
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			found = true
			return false
		}
		return !found
	})
	return found
}

func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	if named == nil || named.Obj().Pkg() == nil {
		return nil
	}
	return named
}
