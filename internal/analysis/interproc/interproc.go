// Package interproc is the inter-procedural layer of the troxy-lint suite:
// a package-level call graph over go/ast + go/types and a per-function
// summary computed bottom-up over the graph's strongly connected components
// (with a fixpoint for recursion). The summaries close the blind spots the
// intra-procedural dataflow engine documents as limits — a secret laundered
// through a helper, or a lock held across a call whose *callee* performs
// socket I/O — by recording, for every declared function:
//
//   - which parameters (receiver included) reach taint sinks inside the
//     function or anything it transitively calls (ParamFlow.Sinks);
//   - which parameters flow into the function's results (ParamFlow.ToResult),
//     so taint propagates through helper calls at the call site;
//   - whether the function's results are intrinsically secret (derived from
//     key material with no tainted input — the classic laundering helper);
//   - the may-effects of the function and everything it transitively calls:
//     channel sends, socket/frame I/O, and ecall transitions (Effects);
//   - which receiver locks it acquires, transitively through same-receiver
//     calls (RecvLocks — the callee side of the self-deadlock check).
//
// Call-graph resolution, and its soundness caveats (DESIGN.md §9.3):
//
//   - static calls and method calls on concrete receivers resolve exactly
//     (go/types Uses);
//   - interface method calls resolve conservatively to every package-local
//     type implementing the interface (a class-hierarchy approximation);
//     implementations outside the package are invisible — cross-package
//     discipline stays compositional, each package faces its own analysis;
//   - calls through func values (fields, variables, parameters of func
//     type) are not resolved; a node making such calls is marked
//     CallsFuncValue and its summary under-approximates. Function literals
//     are analyzed where they are written, not where they are invoked.
//
// Calls under a `go` statement contribute graph edges but no effects: the
// spawn itself cannot block the caller, and the goroutine's locks are its
// own. Deferred calls contribute effects — they run within the dynamic
// extent of the call, before control returns to the caller.
//
// All summary components are monotone (bit sets and booleans that only turn
// on), so the SCC fixpoint terminates; iteration is additionally capped as
// a defensive backstop.
package interproc

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"github.com/troxy-bft/troxy/internal/analysis/dataflow"
)

// Effect is the may-effect bitmask of a function: operations that can block
// the caller indefinitely on a peer.
type Effect uint8

const (
	// EffectSend is a potentially blocking channel send (sends in a select
	// with a default arm are non-blocking by construction and excluded).
	EffectSend Effect = 1 << iota
	// EffectIO is socket or frame I/O: net.Conn methods, net.Buffers
	// vectored writes, internal/wire frame I/O, or concrete conn-shaped
	// Read/Write/Close calls.
	EffectIO
	// EffectECall is a trusted-subsystem transition (enclave.ECall, ECallAppend).
	EffectECall
)

func (e Effect) String() string {
	var parts []string
	if e&EffectSend != 0 {
		parts = append(parts, "channel send")
	}
	if e&EffectIO != 0 {
		parts = append(parts, "socket/frame I/O")
	}
	if e&EffectECall != 0 {
		parts = append(parts, "ecall transition")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ", ")
}

// SinkKind is the taint-sink bitmask of a parameter flow.
type SinkKind uint8

const (
	// SinkLog is a formatting/logging call (fmt, log, log/slog, errors).
	SinkLog SinkKind = 1 << iota
	// SinkWire is an internal/wire encoder (Writer methods, WriteFrame).
	SinkWire
)

// ParamFlow summarizes where one parameter's taint goes inside a function,
// transitively through same-package calls.
type ParamFlow struct {
	// Sinks are the sink kinds this parameter's taint reaches.
	Sinks SinkKind
	// ToResult reports whether the parameter taints a result value, so a
	// caller passing a tainted argument receives a tainted result.
	ToResult bool
}

// LockUse is one receiver lock a function acquires (directly or through a
// call on the same receiver): the selector path from the receiver to the
// mutex and the read/write mode.
type LockUse struct {
	Path string
	Read bool
}

// Summary is the inter-procedural summary of one declared function.
type Summary struct {
	// Effects are the transitive may-effects.
	Effects Effect

	// RecvFlow is the receiver's taint flow (zero value for non-methods).
	RecvFlow ParamFlow
	// Params are the taint flows of the declared parameters, in order.
	Params []ParamFlow
	// ResultsTainted reports whether a result carries taint with no tainted
	// input — the function derives secret material internally.
	ResultsTainted bool

	// RecvLocks are the receiver locks acquired somewhere inside, including
	// through same-receiver calls.
	RecvLocks []LockUse
}

// ArgFlow maps a call-argument index to the matching parameter flow,
// folding variadic overflow onto the last parameter.
func (s *Summary) ArgFlow(i int) ParamFlow {
	if len(s.Params) == 0 {
		return ParamFlow{}
	}
	if i >= len(s.Params) {
		i = len(s.Params) - 1
	}
	return s.Params[i]
}

// hasRecvLock reports whether path/read is already recorded.
func (s *Summary) hasRecvLock(l LockUse) bool {
	for _, have := range s.RecvLocks {
		if have == l {
			return true
		}
	}
	return false
}

// Node is one declared function in the package call graph.
type Node struct {
	Fn   *types.Func
	Decl *ast.FuncDecl

	// RecvObj is the receiver identifier's object (nil for functions and
	// unnamed receivers).
	RecvObj types.Object

	// Edges are the same-package calls this function makes.
	Edges []Edge

	// CallsFuncValue marks a call through a func value (unresolvable); the
	// summary under-approximates (documented caveat).
	CallsFuncValue bool

	// Sum is the function's summary, valid after Build returns.
	Sum Summary

	// effectTrace explains, per effect bit, the shortest call path to the
	// operation ("flushAll → wire.WriteFrame") for diagnostics.
	effectTrace map[Effect]string

	// ownReturns are the return statements belonging to this function's
	// body directly (not to nested literals).
	ownReturns map[*ast.ReturnStmt]bool

	// paramObjs are receiver (index 0 if present) + parameter objects; used
	// by the taint pass. paramStart is 1 when a receiver occupies slot 0.
	paramObjs  []types.Object
	paramStart int

	// Tarjan bookkeeping.
	index, lowlink int
	onStack        bool
}

// EffectTrace renders the call path to one effect bit for a diagnostic,
// e.g. "flushAll → wire.WriteFrame". Empty when the node lacks the bit.
func (n *Node) EffectTrace(e Effect) string { return n.effectTrace[e] }

// TaintSpec parameterizes the taint half of the summaries; the analyzer
// that owns the source/sink vocabulary (secretflow) provides it. A nil spec
// skips taint computation (lockcheck needs only effects and locks).
type TaintSpec struct {
	// Source reports whether evaluating e introduces taint by itself.
	Source func(e ast.Expr) bool
	// Derivation reports whether fn's results carry taint when called
	// (key-derivation functions).
	Derivation func(fn *types.Func) bool
	// CallSink classifies an out-of-package callee as a sink for tainted
	// arguments (zero: not a sink).
	CallSink func(fn *types.Func) SinkKind
}

// Graph is the package-level call graph with computed summaries.
type Graph struct {
	info *types.Info
	pkg  *types.Package

	// Nodes maps every declared function and method to its node.
	Nodes map[*types.Func]*Node

	// SCCs lists the strongly connected components bottom-up: every
	// component appears after the components it calls into.
	SCCs [][]*Node
}

// maxSCCIterations caps the per-SCC fixpoint as a defensive backstop;
// monotone summaries converge far earlier in practice.
const maxSCCIterations = 32

// Build constructs the call graph for one package and computes the
// summaries bottom-up. spec may be nil to skip the taint half.
func Build(files []*ast.File, info *types.Info, pkg *types.Package, spec *TaintSpec) *Graph {
	g := &Graph{info: info, pkg: pkg, Nodes: make(map[*types.Func]*Node)}
	nonBlocking := NonBlockingSends(files)

	var order []*Node // declaration order, for deterministic iteration
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			n := &Node{Fn: fn, Decl: fd, effectTrace: make(map[Effect]string), index: -1}
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				if names := fd.Recv.List[0].Names; len(names) == 1 {
					n.RecvObj = info.Defs[names[0]]
				}
			}
			n.ownReturns = collectOwnReturns(fd.Body)
			n.collectParams(info)
			g.Nodes[fn] = n
			order = append(order, n)
		}
	}

	for _, n := range order {
		g.buildEdges(n)
	}
	g.computeSCCs(order)
	g.computeEffects(nonBlocking)
	g.computeLocks()
	if spec != nil {
		g.computeTaint(spec)
	}
	return g
}

// Lookup returns the node of fn, or nil for out-of-package or undeclared
// functions.
func (g *Graph) Lookup(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return g.Nodes[fn]
}

func (n *Node) collectParams(info *types.Info) {
	if n.RecvObj != nil {
		n.paramObjs = append(n.paramObjs, n.RecvObj)
		n.paramStart = 1
	}
	sig, _ := n.Fn.Type().(*types.Signature)
	if sig == nil {
		return
	}
	if n.Decl.Type.Params == nil {
		return
	}
	for _, field := range n.Decl.Type.Params.List {
		if len(field.Names) == 0 {
			// Unnamed parameter: unusable inside the body, no flow possible,
			// but keep the slot so indexes line up.
			n.paramObjs = append(n.paramObjs, nil)
			continue
		}
		for _, name := range field.Names {
			n.paramObjs = append(n.paramObjs, info.Defs[name])
		}
	}
}

// Edge is one same-package call.
type Edge struct {
	Site   *ast.CallExpr
	Callee *Node
	// SameRecv marks a method call on this function's own receiver object,
	// the edge kind receiver-lock summaries propagate across.
	SameRecv bool
	// Go marks a call spawned by a go statement: a graph edge, but no
	// effect contribution (the spawn does not block the spawner).
	Go bool
}

// buildEdges resolves the calls in n's body. Function-literal bodies are
// skipped: literals are analyzed where they are written by the dataflow
// engine, and attributing their effects to the enclosing function would
// claim a goroutine's sends for its spawner.
func (g *Graph) buildEdges(n *Node) {
	goCalls := make(map[*ast.CallExpr]bool)
	var walk func(node ast.Node) bool
	walk = func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			goCalls[x.Call] = true
		case *ast.CallExpr:
			g.resolveCall(n, x, goCalls[x])
		}
		return true
	}
	ast.Inspect(n.Decl.Body, walk)
}

func (g *Graph) resolveCall(n *Node, call *ast.CallExpr, isGo bool) {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.Ident:
		switch obj := g.info.Uses[f].(type) {
		case *types.Func:
			g.addEdge(n, call, obj, false, isGo)
		case *types.Var:
			n.CallsFuncValue = true // call through a func-typed variable
		}
	case *ast.SelectorExpr:
		sel := g.info.Selections[f]
		if sel == nil {
			// Qualified identifier (pkg.Func) or package-level selector.
			if fn, ok := g.info.Uses[f.Sel].(*types.Func); ok {
				g.addEdge(n, call, fn, false, isGo)
			} else if _, ok := g.info.Uses[f.Sel].(*types.Var); ok {
				n.CallsFuncValue = true
			}
			return
		}
		fn, ok := sel.Obj().(*types.Func)
		if !ok {
			if _, isVar := sel.Obj().(*types.Var); isVar {
				n.CallsFuncValue = true // func-typed struct field
			}
			return
		}
		recvType := sel.Recv()
		if types.IsInterface(recvType) {
			g.addInterfaceEdges(n, call, recvType, fn.Name(), isGo)
			return
		}
		sameRecv := false
		if n.RecvObj != nil {
			if id, ok := ast.Unparen(f.X).(*ast.Ident); ok {
				obj := g.info.Uses[id]
				if obj == nil {
					obj = g.info.Defs[id]
				}
				sameRecv = obj == n.RecvObj
			}
		}
		g.addEdge(n, call, fn, sameRecv, isGo)
	default:
		// Call of a call result, index expression, etc.: a func value.
		n.CallsFuncValue = true
	}
}

// addEdge records a call to fn if fn is declared in this package.
func (g *Graph) addEdge(n *Node, call *ast.CallExpr, fn *types.Func, sameRecv, isGo bool) {
	callee, ok := g.Nodes[fn]
	if !ok {
		return
	}
	n.Edges = append(n.Edges, Edge{Site: call, Callee: callee, SameRecv: sameRecv, Go: isGo})
}

// addInterfaceEdges resolves an interface method call conservatively: an
// edge to the matching method of every package-local type implementing the
// interface (class-hierarchy approximation).
func (g *Graph) addInterfaceEdges(n *Node, call *ast.CallExpr, iface types.Type, method string, isGo bool) {
	it, ok := iface.Underlying().(*types.Interface)
	if !ok {
		return
	}
	scope := g.pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(named) {
			continue
		}
		var impl types.Type
		switch {
		case types.Implements(named, it):
			impl = named
		case types.Implements(types.NewPointer(named), it):
			impl = types.NewPointer(named)
		default:
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, g.pkg, method)
		if fn, ok := obj.(*types.Func); ok {
			g.addEdge(n, call, fn, false, isGo)
		}
	}
}

// computeSCCs runs Tarjan's algorithm; components are emitted callees-first
// (reverse topological order of the condensation), which is exactly the
// bottom-up order summary computation needs.
func (g *Graph) computeSCCs(order []*Node) {
	var (
		index int
		stack []*Node
	)
	var strongconnect func(n *Node)
	strongconnect = func(n *Node) {
		n.index, n.lowlink = index, index
		index++
		stack = append(stack, n)
		n.onStack = true
		for _, e := range n.Edges {
			c := e.Callee
			if c.index < 0 {
				strongconnect(c)
				if c.lowlink < n.lowlink {
					n.lowlink = c.lowlink
				}
			} else if c.onStack && c.index < n.lowlink {
				n.lowlink = c.index
			}
		}
		if n.lowlink == n.index {
			var scc []*Node
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				m.onStack = false
				scc = append(scc, m)
				if m == n {
					break
				}
			}
			g.SCCs = append(g.SCCs, scc)
		}
	}
	for _, n := range order {
		if n.index < 0 {
			strongconnect(n)
		}
	}
}

// computeEffects seeds each node with its direct effects, then propagates
// callee effects bottom-up over the SCCs (fixpoint within each component).
func (g *Graph) computeEffects(nonBlocking map[ast.Node]bool) {
	for _, scc := range g.SCCs {
		for _, n := range scc {
			g.directEffects(n, nonBlocking)
		}
		for iter := 0; iter < maxSCCIterations; iter++ {
			changed := false
			for _, n := range scc {
				for _, e := range n.Edges {
					if e.Go {
						continue
					}
					for _, bit := range []Effect{EffectSend, EffectIO, EffectECall} {
						if e.Callee.Sum.Effects&bit == 0 || n.Sum.Effects&bit != 0 {
							continue
						}
						n.Sum.Effects |= bit
						n.effectTrace[bit] = e.Callee.Fn.Name() + " → " + e.Callee.effectTrace[bit]
						changed = true
					}
				}
			}
			if !changed {
				break
			}
		}
	}
}

// directEffects records the blocking operations in n's own body
// (function-literal bodies and go-spawned calls excluded).
func (g *Graph) directEffects(n *Node, nonBlocking map[ast.Node]bool) {
	goCalls := make(map[*ast.CallExpr]bool)
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			goCalls[x.Call] = true
		case *ast.SendStmt:
			if !nonBlocking[x] {
				n.addEffect(EffectSend, "channel send")
			}
		case *ast.CallExpr:
			if goCalls[x] {
				return true
			}
			if why, bit := BlockingCall(g.info, x); bit != 0 {
				n.addEffect(bit, why)
			}
		}
		return true
	})
}

func (n *Node) addEffect(bit Effect, why string) {
	if n.Sum.Effects&bit != 0 {
		return
	}
	n.Sum.Effects |= bit
	n.effectTrace[bit] = why
}

// computeLocks records the receiver locks each method acquires, propagated
// across same-receiver edges bottom-up.
func (g *Graph) computeLocks() {
	for _, scc := range g.SCCs {
		for _, n := range scc {
			if n.RecvObj == nil {
				continue
			}
			ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
				if _, ok := node.(*ast.FuncLit); ok {
					return false // a goroutine's locks are its own
				}
				call, ok := node.(*ast.CallExpr)
				if !ok {
					return true
				}
				root, path, op, ok := MutexOp(g.info, call)
				if !ok || root != n.RecvObj {
					return true
				}
				if op == "Lock" || op == "RLock" {
					l := LockUse{Path: path, Read: op == "RLock"}
					if !n.Sum.hasRecvLock(l) {
						n.Sum.RecvLocks = append(n.Sum.RecvLocks, l)
					}
				}
				return true
			})
		}
		for iter := 0; iter < maxSCCIterations; iter++ {
			changed := false
			for _, n := range scc {
				if n.RecvObj == nil {
					continue
				}
				for _, e := range n.Edges {
					if !e.SameRecv || e.Go {
						continue
					}
					for _, l := range e.Callee.Sum.RecvLocks {
						if !n.Sum.hasRecvLock(l) {
							n.Sum.RecvLocks = append(n.Sum.RecvLocks, l)
							changed = true
						}
					}
				}
			}
			if !changed {
				break
			}
		}
	}
}

// computeTaint fills the ParamFlow / ResultsTainted halves of the
// summaries, bottom-up with a per-SCC fixpoint: each iteration reruns the
// dataflow engine over every function in the component — once per parameter
// (seeding only that parameter) and once with no seeds (intrinsic result
// taint) — against the summaries of the previous iteration.
func (g *Graph) computeTaint(spec *TaintSpec) {
	for _, scc := range g.SCCs {
		for _, n := range scc {
			n.Sum.Params = make([]ParamFlow, len(n.paramObjs)-n.paramStart)
		}
		for iter := 0; iter < maxSCCIterations; iter++ {
			changed := false
			for _, n := range scc {
				if g.taintOnce(n, spec) {
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
}

// taintOnce recomputes n's taint summary against current callee summaries
// and reports whether it grew.
func (g *Graph) taintOnce(n *Node, spec *TaintSpec) bool {
	changed := false
	for i, obj := range n.paramObjs {
		if obj == nil {
			continue
		}
		flow := g.paramFlow(n, spec, obj)
		var dst *ParamFlow
		if n.paramStart == 1 && i == 0 {
			dst = &n.Sum.RecvFlow
		} else {
			dst = &n.Sum.Params[i-n.paramStart]
		}
		if flow.Sinks&^dst.Sinks != 0 || (flow.ToResult && !dst.ToResult) {
			dst.Sinks |= flow.Sinks
			dst.ToResult = dst.ToResult || flow.ToResult
			changed = true
		}
	}
	if !n.Sum.ResultsTainted && g.intrinsicResults(n, spec) {
		n.Sum.ResultsTainted = true
		changed = true
	}
	return changed
}

// paramFlow runs the engine over n's body with only obj seeded tainted and
// records which sinks and results the taint reaches.
func (g *Graph) paramFlow(n *Node, spec *TaintSpec, obj types.Object) ParamFlow {
	var flow ParamFlow
	h := &dataflow.Hooks{
		Info: g.info,
		TransferCall: func(call *ast.CallExpr, info dataflow.CallInfo, st *dataflow.State) bool {
			fn := CalleeFunc(g.info, call)
			if fn == nil || fn.Pkg() == nil {
				return false
			}
			if spec.Derivation(fn) {
				// Result derives from the inputs; with only this parameter
				// seeded, the result is param-dependent iff an input was.
				return info.ArgTainted
			}
			res := false
			if callee := g.Nodes[fn]; callee != nil {
				res = applySummary(&callee.Sum, info, func(k SinkKind) { flow.Sinks |= k })
			}
			// CallSink owns the sink vocabulary independently of summaries,
			// so it is consulted for every callee.
			if info.ArgTainted {
				flow.Sinks |= spec.CallSink(fn)
			}
			return res
		},
		OnReturn: func(ret *ast.ReturnStmt, tainted []bool, st *dataflow.State) {
			if !n.ownReturns[ret] {
				return
			}
			for _, t := range tainted {
				if t {
					flow.ToResult = true
				}
			}
		},
	}
	init := dataflow.NewState()
	init.Add(obj)
	dataflow.RunFrom(h, n.Decl.Body, init)
	return flow
}

// intrinsicResults runs the engine with the analyzer's own sources active
// and no parameters seeded, and reports whether a result carries taint —
// the laundering-helper shape (`func key() []byte { return hkdf.Key(...) }`).
func (g *Graph) intrinsicResults(n *Node, spec *TaintSpec) bool {
	tainted := false
	h := &dataflow.Hooks{
		Info:   g.info,
		Source: spec.Source,
		TransferCall: func(call *ast.CallExpr, info dataflow.CallInfo, st *dataflow.State) bool {
			fn := CalleeFunc(g.info, call)
			if fn == nil || fn.Pkg() == nil {
				return false
			}
			if spec.Derivation(fn) {
				return true
			}
			if callee := g.Nodes[fn]; callee != nil {
				return applySummary(&callee.Sum, info, func(SinkKind) {})
			}
			return false
		},
		OnReturn: func(ret *ast.ReturnStmt, ts []bool, st *dataflow.State) {
			if !n.ownReturns[ret] {
				return
			}
			for _, t := range ts {
				if t {
					tainted = true
				}
			}
		},
	}
	dataflow.Run(h, n.Decl.Body)
	return tainted
}

// applySummary folds a callee summary into a call site: sink bits of every
// tainted argument are reported through onSink, and the return value is
// tainted when the callee's results are intrinsically tainted or a tainted
// input flows to a result.
func applySummary(sum *Summary, info dataflow.CallInfo, onSink func(SinkKind)) bool {
	res := sum.ResultsTainted
	if info.RecvTainted {
		onSink(sum.RecvFlow.Sinks)
		res = res || sum.RecvFlow.ToResult
	}
	for i, t := range info.ArgsTainted {
		if !t {
			continue
		}
		f := sum.ArgFlow(i)
		onSink(f.Sinks)
		res = res || f.ToResult
	}
	return res
}

// collectOwnReturns gathers the return statements of body itself, skipping
// nested function literals.
func collectOwnReturns(body *ast.BlockStmt) map[*ast.ReturnStmt]bool {
	out := make(map[*ast.ReturnStmt]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			out[x] = true
		}
		return true
	})
	return out
}

// NonBlockingSends returns the send statements that are comm clauses of a
// select containing a default arm: non-blocking by construction.
func NonBlockingSends(files []*ast.File) map[ast.Node]bool {
	out := make(map[ast.Node]bool)
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectStmt)
			if !ok {
				return true
			}
			hasDefault := false
			for _, cl := range sel.Body.List {
				if comm, ok := cl.(*ast.CommClause); ok && comm.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				return true
			}
			for _, cl := range sel.Body.List {
				if comm, ok := cl.(*ast.CommClause); ok && comm.Comm != nil {
					out[comm.Comm] = true
				}
			}
			return true
		})
	}
	return out
}

// AllocSite classifies one AST node as a direct heap allocation and returns
// a short description. The vocabulary of the allocfree analyzer: make/new, append
// growth, string↔slice conversions, slice/map literals, &composite escapes,
// string concatenation, and closures. Goroutine spawns are handled by the
// walkers (the GoStmt, not a sub-expression, is the site). Plain struct
// composites by value are not flagged (usually stack-allocated), and
// interface conversions are a documented under-approximation.
func AllocSite(info *types.Info, node ast.Node) (string, bool) {
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
		if x.Op.String() == "&" {
			if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
				return "&composite literal (escapes to heap)", true
			}
		}
	case *ast.FuncLit:
		return "function literal (closure)", true
	case *ast.BinaryExpr:
		if x.Op.String() == "+" {
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

// ColdRegions marks every node inside a cold failure block of body: a
// nested block whose last statement is a panic or a return carrying a
// recognizable error construction (fmt.Errorf, errors.New/Join, &FooError{},
// a package-level ErrX). Allocations there serve the failure path only —
// fmt.Errorf in an oversize-frame branch — and are exempt from allocfree,
// matching the happy-path semantics of the 0 allocs/op benchmark gates.
// The function body itself never qualifies (a trailing `return err` is the
// happy path, not a failure exit).
func ColdRegions(info *types.Info, body *ast.BlockStmt) map[ast.Node]bool {
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
		fn := CalleeFunc(info, x)
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
		if x.Op.String() != "&" {
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

// MutexOp recognizes a sync.Mutex / sync.RWMutex method call and returns
// the lock's root object, the selector path from the root to the mutex
// (".state.mu" for c.state.mu), and the operation name.
func MutexOp(info *types.Info, call *ast.CallExpr) (root types.Object, path, op string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, "", "", false
	}
	op = sel.Sel.Name
	switch op {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return nil, "", "", false
	}
	if !isMutexType(info.Types[sel.X].Type) {
		return nil, "", "", false
	}
	root, path, ok = SplitLockExpr(info, sel.X)
	if !ok {
		return nil, "", "", false
	}
	return root, path, op, true
}

// SplitLockExpr splits a lock expression into its root object and selector
// path (c.state.mu -> root c, path ".state.mu").
func SplitLockExpr(info *types.Info, e ast.Expr) (types.Object, string, bool) {
	var parts []string
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := info.Uses[x]
			if obj == nil {
				obj = info.Defs[x]
			}
			if obj == nil {
				return nil, "", false
			}
			path := ""
			for i := len(parts) - 1; i >= 0; i-- {
				path += "." + parts[i]
			}
			return obj, path, true
		case *ast.SelectorExpr:
			parts = append(parts, x.Sel.Name)
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil, "", false
		}
	}
}

func isMutexType(t types.Type) bool {
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
	if named.Obj().Pkg().Path() != "sync" {
		return false
	}
	name := named.Obj().Name()
	return name == "Mutex" || name == "RWMutex"
}

// BlockingCall classifies a call as a potentially indefinitely blocking
// operation, returning a short description and the effect bit (0 if not
// blocking). The vocabulary: net.Conn-shaped I/O, net.Buffers vectored
// writes, internal/wire frame I/O, and enclave ecall transitions.
func BlockingCall(info *types.Info, call *ast.CallExpr) (string, Effect) {
	fn := CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", 0
	}
	sel, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	switch fn.Pkg().Path() {
	case "net":
		switch fn.Name() {
		case "Read", "Write", "Accept", "Close":
			return fmt.Sprintf("net %s call", fn.Name()), EffectIO
		case "WriteTo":
			// net.Buffers.WriteTo: the vectored write behind the ring
			// transport's flush.
			return "net vectored write (Buffers.WriteTo)", EffectIO
		}
		return "", 0
	case modulePath + "/internal/wire":
		if fn.Name() == "ReadFrame" || fn.Name() == "WriteFrame" {
			return fmt.Sprintf("frame I/O (wire.%s)", fn.Name()), EffectIO
		}
		return "", 0
	case modulePath + "/internal/enclave":
		switch fn.Name() {
		case "ECall", "ECallAppend":
			return "ecall transition", EffectECall
		}
		return "", 0
	}
	// Concrete Conn types: a Read/Write/Close method on a value with
	// net.Conn's core shape is treated as conn I/O.
	if sel != nil && isConnLike(info, sel.X) {
		switch fn.Name() {
		case "Read", "Write", "Close":
			return fmt.Sprintf("conn %s call", fn.Name()), EffectIO
		}
	}
	return "", 0
}

// modulePath mirrors analysis.ModulePath without importing the analysis
// package (which would be an import cycle once analysis grows helpers on
// top of interproc); the constant is asserted equal in the unit tests.
const modulePath = "github.com/troxy-bft/troxy"

// isConnLike reports whether e's type has the net.Conn core methods
// (Read/Write/Close plus deadlines) without needing the net package loaded.
func isConnLike(info *types.Info, e ast.Expr) bool {
	t := info.Types[e].Type
	if t == nil {
		return false
	}
	need := map[string]bool{"Read": false, "Write": false, "Close": false, "SetDeadline": false}
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		name := ms.At(i).Obj().Name()
		if _, ok := need[name]; ok {
			need[name] = true
		}
	}
	for _, have := range need {
		if !have {
			return false
		}
	}
	return true
}
