// Package dataflow is the intra-procedural dataflow engine underneath the
// secretflow and lockcheck analyzers. It performs a forward abstract
// interpretation of one function body over go/ast + go/types (standard
// library only, like the rest of the analysis framework):
//
//   - the abstract state is a set of facts (comparable keys: tainted
//     variables for secretflow, held locks for lockcheck);
//   - assignments propagate expression-level taint and kill facts on
//     overwrite; stores through selectors, indexes, and pointers are weak
//     updates (the container is tainted, nothing is killed);
//   - branches (if/switch/type switch/select) fork the state and join with
//     set union; paths that end in return/break/continue do not flow into
//     the join;
//   - loops (for/range) iterate to a fixpoint: the loop-entry state is
//     joined with the back-edge state until it stabilizes, which terminates
//     because facts only accumulate under union;
//   - function literals are analyzed separately with a fresh state (a
//     goroutine or deferred closure does not inherit the spawner's locks,
//     and captured secrets are re-seeded by the Source hook).
//
// Analyzers customize the walk through Hooks: Source seeds taint on
// expressions, TransferCall applies call effects (lock/unlock, derivation
// functions) and decides result taint, and OnNode observes every statement
// and call with the state in execution order. OnNode fires only during the
// report pass — loop fixpoint iterations run silently, then the body is
// walked once more with the stabilized entry state — so an analyzer may
// report at a node without seeing the same node twice per loop level.
//
// Known limits, by design (the engine is intra-procedural): taint does not
// flow through calls unless TransferCall says so, error-typed results are
// never tainted (errors are built for display; deriving a secret from one
// is out of model), goto is ignored, and a callee mutating memory through a
// pointer argument is invisible.
package dataflow

import (
	"go/ast"
	"go/types"
)

// A Fact is one element of the abstract state. Keys must be comparable;
// analyzers choose their own fact type (types.Object for taint, a
// struct-valued lock key for lockcheck).
type Fact any

// State is a set of facts plus a reachability flag. The zero State is not
// usable; construct with NewState. Facts are may-facts (taint, held locks):
// union at joins, a fact survives if any incoming path carries it.
type State struct {
	facts map[Fact]bool
	dead  bool // the path ending here cannot continue (return/break/...)
}

// NewState returns an empty, live state.
func NewState() *State {
	return &State{facts: make(map[Fact]bool)}
}

func deadState() *State {
	return &State{facts: make(map[Fact]bool), dead: true}
}

// Has reports whether f is in the state.
func (s *State) Has(f Fact) bool { return s.facts[f] }

// Add inserts f.
func (s *State) Add(f Fact) { s.facts[f] = true }

// Kill removes f.
func (s *State) Kill(f Fact) { delete(s.facts, f) }

// Len returns the number of facts held.
func (s *State) Len() int { return len(s.facts) }

// Each calls fn for every fact in the state (iteration order is undefined;
// analyzers sort their rendered diagnostics).
func (s *State) Each(fn func(Fact)) {
	for f := range s.facts {
		fn(f)
	}
}

func (s *State) clone() *State {
	c := &State{facts: make(map[Fact]bool, len(s.facts)), dead: s.dead}
	for f := range s.facts {
		c.facts[f] = true
	}
	return c
}

// become replaces s's contents with o's.
func (s *State) become(o *State) {
	s.facts = o.facts
	s.dead = o.dead
}

// join merges o into s by set union (dead states are the identity element)
// and reports whether s changed.
func (s *State) join(o *State) bool {
	if o == nil || o.dead {
		return false
	}
	if s.dead {
		// A dead path contributes nothing: adopt o wholesale.
		s.dead = false
		s.facts = make(map[Fact]bool, len(o.facts))
		for f := range o.facts {
			s.facts[f] = true
		}
		return true
	}
	changed := false
	for f := range o.facts {
		if !s.facts[f] {
			s.facts[f] = true
			changed = true
		}
	}
	return changed
}

// CallInfo describes the context of one call handed to TransferCall.
type CallInfo struct {
	// ArgTainted is true when the receiver or any argument evaluated tainted.
	ArgTainted bool
	// RecvTainted is true when the call is a method call (or selector-based
	// call) whose base expression evaluated tainted.
	RecvTainted bool
	// ArgsTainted holds the per-argument taint, in source order, for an
	// analyzer that follows the call into its callee. Nil when the engine
	// had no arguments to evaluate.
	ArgsTainted []bool
	// Deferred is true for the call expression of a defer statement. Its
	// arguments are evaluated here (Go semantics) but the callee runs at
	// return, which the engine does not model — analyzers should report at
	// deferred sinks but not apply state effects (e.g. a deferred Unlock).
	Deferred bool
	// Reporting is true during the single report pass; silent fixpoint
	// iterations over loops run with Reporting false. Analyzers must gate
	// diagnostics on it or they fire once per iteration.
	Reporting bool
}

// Hooks parameterize the engine for one analyzer.
type Hooks struct {
	// Info is the type information of the package under analysis.
	Info *types.Info

	// Source reports whether evaluating e introduces taint by itself
	// (an annotated variable or field read, a secret-typed value, a key
	// derivation call). May be nil.
	Source func(e ast.Expr) bool

	// TransferCall applies the effects of a call to the state and reports
	// whether the call's results are tainted. May be nil, in which case
	// calls have no effect and untainted results.
	TransferCall func(call *ast.CallExpr, info CallInfo, st *State) bool

	// OnNode observes a statement or call expression with the state in
	// effect immediately before its own transfer, during the report pass
	// only. deferred is true for the call of a defer statement. May be nil.
	OnNode func(n ast.Node, st *State, deferred bool)

	// OnReturn observes a return statement during the report pass, with the
	// taint of each result expression in order. May be nil.
	OnReturn func(ret *ast.ReturnStmt, tainted []bool, st *State)
}

// FuncBodies returns the bodies of f an analyzer runs the engine on directly:
// every function declaration, plus the outermost function literals in
// package-level initializers. (Literals nested inside those bodies are
// analyzed by the engine itself, with fresh state.)
func FuncBodies(f *ast.File) []*ast.BlockStmt {
	var out []*ast.BlockStmt
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Body != nil {
				out = append(out, d.Body)
			}
		case *ast.GenDecl:
			ast.Inspect(d, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					out = append(out, lit.Body)
					return false
				}
				return true
			})
		}
	}
	return out
}

// Run analyzes one function body starting from an empty state. Nested
// function literals are analyzed with their own fresh state.
func Run(h *Hooks, body *ast.BlockStmt) {
	RunFrom(h, body, NewState())
}

// RunFrom analyzes one function body starting from init (which is consumed).
func RunFrom(h *Hooks, body *ast.BlockStmt, init *State) {
	if body == nil {
		return
	}
	e := &engine{h: h, reporting: true}
	e.stmts(body.List, init)
}

// maxLoopIterations caps fixpoint iteration as a defensive backstop; union
// joins guarantee termination long before this in practice.
const maxLoopIterations = 64

type loopCtx struct {
	brk  *State // states flowing out through break
	cont *State // states flowing to the next iteration through continue
}

type engine struct {
	h         *Hooks
	reporting bool
	loops     []*loopCtx
}

func (e *engine) onNode(n ast.Node, st *State, deferred bool) {
	if e.reporting && e.h.OnNode != nil {
		e.h.OnNode(n, st, deferred)
	}
}

func (e *engine) stmts(list []ast.Stmt, st *State) {
	for _, s := range list {
		e.stmt(s, st)
	}
}

func (e *engine) stmt(s ast.Stmt, st *State) {
	if s == nil || st.dead {
		return
	}
	e.onNode(s, st, false)
	switch s := s.(type) {
	case *ast.ExprStmt:
		e.expr(s.X, st)

	case *ast.AssignStmt:
		e.assign(s, st)

	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			switch {
			case len(vs.Values) == 1 && len(vs.Names) > 1:
				t := e.expr(vs.Values[0], st)
				for _, name := range vs.Names {
					e.bindIdent(name, t, st)
				}
			default:
				for i, name := range vs.Names {
					t := false
					if i < len(vs.Values) {
						t = e.expr(vs.Values[i], st)
					}
					e.bindIdent(name, t, st)
				}
			}
		}

	case *ast.IfStmt:
		e.stmt(s.Init, st)
		e.expr(s.Cond, st)
		then := st.clone()
		e.block(s.Body, then)
		els := st.clone()
		if s.Else != nil {
			e.stmt(s.Else, els)
		}
		then.join(els)
		if then.dead && els.dead {
			then.dead = true
		}
		st.become(then)

	case *ast.BlockStmt:
		e.stmts(s.List, st)

	case *ast.ForStmt:
		e.stmt(s.Init, st)
		e.loop(st, s.Cond == nil, func(it *State) {
			if s.Cond != nil {
				e.expr(s.Cond, it)
			}
			e.block(s.Body, it)
		}, s.Post)

	case *ast.RangeStmt:
		xT := e.expr(s.X, st)
		e.loop(st, false, func(it *State) {
			e.bindRangeVars(s, xT, it)
			e.block(s.Body, it)
		}, nil)

	case *ast.SwitchStmt:
		e.stmt(s.Init, st)
		if s.Tag != nil {
			e.expr(s.Tag, st)
		}
		e.switchClauses(s.Body, st, func(cc *ast.CaseClause, cst *State) {
			for _, x := range cc.List {
				e.expr(x, cst)
			}
		})

	case *ast.TypeSwitchStmt:
		e.stmt(s.Init, st)
		var operandTainted bool
		// The guard is either `x.(type)` or `v := x.(type)`.
		switch g := s.Assign.(type) {
		case *ast.ExprStmt:
			operandTainted = e.expr(g.X, st)
		case *ast.AssignStmt:
			if len(g.Rhs) == 1 {
				operandTainted = e.expr(g.Rhs[0], st)
			}
		}
		e.switchClauses(s.Body, st, func(cc *ast.CaseClause, cst *State) {
			if operandTainted {
				if obj := e.h.Info.Implicits[cc]; obj != nil {
					cst.Add(obj)
				}
			}
		})

	case *ast.SelectStmt:
		acc := deadState()
		allDead := true
		for _, cl := range s.Body.List {
			comm, ok := cl.(*ast.CommClause)
			if !ok {
				continue
			}
			cst := st.clone()
			e.stmt(comm.Comm, cst)
			e.stmts(comm.Body, cst)
			acc.join(cst)
			if !cst.dead {
				allDead = false
			}
		}
		if len(s.Body.List) > 0 {
			acc.dead = allDead
			st.become(acc)
		}

	case *ast.SendStmt:
		e.expr(s.Chan, st)
		e.expr(s.Value, st)

	case *ast.ReturnStmt:
		tainted := make([]bool, len(s.Results))
		for i, r := range s.Results {
			tainted[i] = e.expr(r, st)
		}
		if e.reporting && e.h.OnReturn != nil {
			e.h.OnReturn(s, tainted, st)
		}
		st.dead = true

	case *ast.BranchStmt:
		switch s.Tok.String() {
		case "break":
			if lc := e.topLoop(); lc != nil {
				lc.brk.join(st)
				st.dead = true
			}
			// break out of a switch/select: joins handle it naturally.
		case "continue":
			if lc := e.topLoop(); lc != nil {
				lc.cont.join(st)
				st.dead = true
			}
		case "goto":
			// Unsupported; treated as a no-op (documented limit).
		}

	case *ast.DeferStmt:
		e.deferredCall(s.Call, st)

	case *ast.GoStmt:
		// Arguments are evaluated at the go statement; the spawned body runs
		// with its own fresh state.
		e.callAtDistance(s.Call, st)

	case *ast.LabeledStmt:
		e.stmt(s.Stmt, st)

	case *ast.IncDecStmt:
		e.expr(s.X, st)

	case *ast.EmptyStmt:
	}
}

// block walks a block in a fresh syntactic scope (state is shared; Go
// shadowing yields distinct objects, so no extra scoping is needed).
func (e *engine) block(b *ast.BlockStmt, st *State) {
	if b != nil {
		e.stmts(b.List, st)
	}
}

// loop runs a fixpoint over body (cond+body+post combined into iterate and
// post), then one reporting pass, and leaves the exit state in st.
// noNaturalExit marks `for {}` loops that only exit through break.
func (e *engine) loop(st *State, noNaturalExit bool, iterate func(*State), post ast.Stmt) {
	lc := &loopCtx{brk: deadState(), cont: deadState()}
	entry := st.clone()

	saved := e.reporting
	e.reporting = false
	for i := 0; i < maxLoopIterations; i++ {
		it := entry.clone()
		e.loops = append(e.loops, lc)
		iterate(it)
		e.loops = e.loops[:len(e.loops)-1]
		it.join(lc.cont)
		if post != nil && !it.dead {
			e.stmt(post, it)
		}
		if !entry.join(it) {
			break
		}
	}
	e.reporting = saved

	if e.reporting {
		it := entry.clone()
		e.loops = append(e.loops, lc)
		iterate(it)
		e.loops = e.loops[:len(e.loops)-1]
		it.join(lc.cont)
		if post != nil && !it.dead {
			e.stmt(post, it)
		}
	}

	if noNaturalExit {
		st.become(lc.brk) // dead unless some break reaches it
		return
	}
	exit := entry.clone()
	exit.join(lc.brk)
	st.become(exit)
}

func (e *engine) topLoop() *loopCtx {
	if len(e.loops) == 0 {
		return nil
	}
	return e.loops[len(e.loops)-1]
}

// switchClauses forks st per case clause (seeding each via seed), carries
// fallthrough chains, and joins the results; a missing default keeps the
// no-match path alive.
func (e *engine) switchClauses(body *ast.BlockStmt, st *State, seed func(*ast.CaseClause, *State)) {
	acc := deadState()
	hasDefault := false
	var fall *State
	for _, cl := range body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		cst := st.clone()
		seed(cc, cst)
		if fall != nil {
			cst.join(fall)
			fall = nil
		}
		e.stmts(cc.Body, cst)
		if n := len(cc.Body); n > 0 {
			if br, ok := cc.Body[n-1].(*ast.BranchStmt); ok && br.Tok.String() == "fallthrough" {
				fall = cst.clone()
				fall.dead = false
			}
		}
		acc.join(cst)
	}
	if !hasDefault {
		acc.join(st)
	}
	if acc.dead && hasDefault {
		st.facts = acc.facts
		st.dead = true
		return
	}
	st.become(acc)
}

// assign applies one assignment statement.
func (e *engine) assign(a *ast.AssignStmt, st *State) {
	compound := a.Tok.String() != "=" && a.Tok.String() != ":="
	if len(a.Rhs) == 1 && len(a.Lhs) > 1 {
		// x, y := f()  /  v, ok := m[k]: one taint decision for all LHS.
		t := e.expr(a.Rhs[0], st)
		for _, lhs := range a.Lhs {
			e.store(lhs, t, st, compound)
		}
		return
	}
	// Pairwise. RHS are all evaluated before any store in Go; with set-union
	// state the simplification of interleaving them is harmless.
	for i, rhs := range a.Rhs {
		if i >= len(a.Lhs) {
			break
		}
		t := e.expr(rhs, st)
		e.store(a.Lhs[i], t, st, compound)
	}
}

// store binds taint to an assignment target. Identifier stores are strong
// (untainted kills); selector/index/pointer stores weakly taint the root
// container. compound (+=) never kills.
func (e *engine) store(lhs ast.Expr, tainted bool, st *State, compound bool) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		obj := e.objOf(l)
		if obj == nil {
			return
		}
		if tainted && !e.errorTyped(obj) {
			st.Add(obj)
		} else if !compound {
			st.Kill(obj)
		}
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr, *ast.SliceExpr:
		if root := e.rootObj(lhs); root != nil && tainted {
			st.Add(root)
		}
	}
}

func (e *engine) bindIdent(id *ast.Ident, tainted bool, st *State) {
	if id == nil || id.Name == "_" {
		return
	}
	obj := e.objOf(id)
	if obj == nil {
		return
	}
	if tainted && !e.errorTyped(obj) {
		st.Add(obj)
	} else {
		st.Kill(obj)
	}
}

func (e *engine) bindRangeVars(s *ast.RangeStmt, xTainted bool, st *State) {
	for _, v := range []ast.Expr{s.Key, s.Value} {
		if v == nil {
			continue
		}
		if id, ok := ast.Unparen(v).(*ast.Ident); ok {
			e.bindIdent(id, xTainted, st)
		} else {
			e.store(v, xTainted, st, false)
		}
	}
}

// expr evaluates the taint of an expression, firing OnNode for calls and
// applying TransferCall effects.
func (e *engine) expr(x ast.Expr, st *State) bool {
	if x == nil {
		return false
	}
	if e.h.Source != nil && e.h.Source(x) {
		// Still walk sub-expressions of calls for nested sinks/effects.
		if call, ok := x.(*ast.CallExpr); ok {
			e.call(call, st)
		}
		return true
	}
	switch x := x.(type) {
	case *ast.Ident:
		obj := e.objOf(x)
		return obj != nil && st.Has(obj)
	case *ast.SelectorExpr:
		// Field read or method value: tainted if the base is. A qualified
		// package identifier (pkg.Var) resolves through the selection.
		if obj := e.h.Info.Uses[x.Sel]; obj != nil {
			if _, isPkgName := e.h.Info.Uses[baseIdent(x.X)].(*types.PkgName); isPkgName {
				return st.Has(obj)
			}
		}
		return e.expr(x.X, st)
	case *ast.IndexExpr:
		t := e.expr(x.X, st)
		e.expr(x.Index, st)
		return t
	case *ast.IndexListExpr:
		return e.expr(x.X, st)
	case *ast.SliceExpr:
		t := e.expr(x.X, st)
		e.expr(x.Low, st)
		e.expr(x.High, st)
		e.expr(x.Max, st)
		return t
	case *ast.ParenExpr:
		return e.expr(x.X, st)
	case *ast.StarExpr:
		return e.expr(x.X, st)
	case *ast.UnaryExpr:
		return e.expr(x.X, st)
	case *ast.BinaryExpr:
		lt := e.expr(x.X, st)
		rt := e.expr(x.Y, st)
		return lt || rt
	case *ast.TypeAssertExpr:
		return e.expr(x.X, st)
	case *ast.CompositeLit:
		t := false
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if e.expr(kv.Value, st) {
					t = true
				}
				continue
			}
			if e.expr(elt, st) {
				t = true
			}
		}
		return t
	case *ast.KeyValueExpr:
		return e.expr(x.Value, st)
	case *ast.CallExpr:
		return e.call(x, st)
	case *ast.FuncLit:
		// Analyzed with a fresh state; the literal value itself is untainted.
		e.funcLit(x)
		return false
	}
	return false
}

// call evaluates a call expression: conversions and builtins inline, user
// calls through TransferCall.
func (e *engine) call(call *ast.CallExpr, st *State) bool {
	// Type conversions pass taint through.
	if tv, ok := e.h.Info.Types[call.Fun]; ok && tv.IsType() {
		t := false
		for _, a := range call.Args {
			if e.expr(a, st) {
				t = true
			}
		}
		return t
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := e.h.Info.Uses[id].(*types.Builtin); isBuiltin {
			t := e.builtin(id.Name, call, st)
			// Builtins are observable too; fires after argument evaluation,
			// like user calls.
			e.onNode(call, st, false)
			return t
		}
	}

	argTainted := false
	recvTainted := false
	// A method call's receiver counts as an argument.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if e.expr(sel.X, st) {
			argTainted = true
			recvTainted = true
		}
	} else if e.expr(call.Fun, st) {
		argTainted = true
	}
	var argsTainted []bool
	if len(call.Args) > 0 {
		argsTainted = make([]bool, len(call.Args))
	}
	for i, a := range call.Args {
		if e.expr(a, st) {
			argTainted = true
			argsTainted[i] = true
		}
	}

	e.onNode(call, st, false)
	if e.h.TransferCall != nil {
		return e.h.TransferCall(call, CallInfo{
			ArgTainted:  argTainted,
			RecvTainted: recvTainted,
			ArgsTainted: argsTainted,
			Reporting:   e.reporting,
		}, st)
	}
	return false
}

func (e *engine) builtin(name string, call *ast.CallExpr, st *State) bool {
	switch name {
	case "append":
		t := false
		for _, a := range call.Args {
			if e.expr(a, st) {
				t = true
			}
		}
		return t
	case "copy":
		// copy(dst, src): src taint weakly taints dst's container.
		if len(call.Args) == 2 {
			dstT := e.expr(call.Args[0], st)
			if e.expr(call.Args[1], st) {
				if root := e.rootObj(call.Args[0]); root != nil {
					st.Add(root)
				}
				return true
			}
			return dstT
		}
	case "min", "max":
		t := false
		for _, a := range call.Args {
			if e.expr(a, st) {
				t = true
			}
		}
		return t
	default:
		// len, cap, make, new, delete, panic, print, ...: evaluate arguments
		// for effects; results are untainted (a secret's length is not a
		// secret).
		for _, a := range call.Args {
			e.expr(a, st)
		}
	}
	return false
}

// deferredCall evaluates a defer's arguments now without applying the
// callee's state effects (they happen at return, which the engine does not
// model; lockcheck pre-scans defers syntactically instead).
func (e *engine) deferredCall(call *ast.CallExpr, st *State) {
	argTainted := false
	recvTainted := false
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		e.funcLit(lit)
	} else if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if e.expr(sel.X, st) {
			argTainted = true
			recvTainted = true
		}
	} else if e.expr(call.Fun, st) {
		argTainted = true
	}
	var argsTainted []bool
	if len(call.Args) > 0 {
		argsTainted = make([]bool, len(call.Args))
	}
	for i, a := range call.Args {
		if e.expr(a, st) {
			argTainted = true
			argsTainted[i] = true
		}
	}
	e.onNode(call, st, true)
	if e.h.TransferCall != nil {
		e.h.TransferCall(call, CallInfo{
			ArgTainted:  argTainted,
			RecvTainted: recvTainted,
			ArgsTainted: argsTainted,
			Deferred:    true,
			Reporting:   e.reporting,
		}, st)
	}
}

// callAtDistance evaluates a go statement's call: arguments now, body (for
// a literal) in its own world, no state effects, no result.
func (e *engine) callAtDistance(call *ast.CallExpr, st *State) {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		e.funcLit(lit)
	} else {
		e.expr(call.Fun, st)
	}
	for _, a := range call.Args {
		e.expr(a, st)
	}
}

// funcLit analyzes a nested function literal with a fresh state, once, during
// the report pass.
func (e *engine) funcLit(lit *ast.FuncLit) {
	if !e.reporting {
		return
	}
	nested := &engine{h: e.h, reporting: true}
	nested.stmts(lit.Body.List, NewState())
}

func (e *engine) objOf(id *ast.Ident) types.Object {
	if obj := e.h.Info.Defs[id]; obj != nil {
		return obj
	}
	return e.h.Info.Uses[id]
}

func (e *engine) errorTyped(obj types.Object) bool {
	named, ok := obj.Type().(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// rootObj returns the object of the base identifier of a selector/index/
// star/slice chain (s.a.b[i] -> s), or nil.
func (e *engine) rootObj(x ast.Expr) types.Object {
	if id := baseIdent(x); id != nil {
		return e.objOf(id)
	}
	return nil
}

func baseIdent(x ast.Expr) *ast.Ident {
	for {
		switch v := ast.Unparen(x).(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			x = v.X
		case *ast.IndexExpr:
			x = v.X
		case *ast.StarExpr:
			x = v.X
		case *ast.SliceExpr:
			x = v.X
		case *ast.UnaryExpr:
			x = v.X
		default:
			return nil
		}
	}
}
