// Package lockcheck enforces mutex discipline in the packages the pipelined
// ordering core made concurrent (tcounter, realnet, legacyclient,
// faultplane): the race detector only catches schedules a test happens to
// run; lockcheck rejects the deadlock- and leak-shaped patterns statically.
//
// Tracking is per function, on the dataflow engine: acquiring sync.Mutex /
// sync.RWMutex locks adds a held-lock fact (keyed by the lock expression's
// root variable and selector path, so c.mu and d.mu are distinct), releasing
// removes it. Within one function the analyzer reports:
//
//   - a blocking operation while holding a lock: a channel send (unless in
//     a select with a default arm — non-blocking by construction), a
//     net.Conn method call or net.Buffers vectored write, frame I/O
//     (internal/wire ReadFrame/WriteFrame), or an ecall transition
//     (internal/enclave ECall) — each can block indefinitely on a peer
//     while every other goroutine piles up on the held lock;
//   - a call, while holding a lock, into a same-package function from which
//     a blocking operation is reachable: the callee's static same-package
//     calls are walked breadth-first to the nearest one, and the report names
//     the call path to it — wrapping wire.WriteFrame in flushAll() does not
//     hide it from the lock scope;
//   - Lock/RLock of a lock this function already holds (self-deadlock);
//   - Unlock/RUnlock of a lock not held on any path reaching it;
//   - a return while a manually-managed lock is still held: an early return
//     that skips the unlock leaks the lock; locks covered by a defer'd
//     unlock anywhere in the function are exempt.
//
// Known limits, by design: the walk stops at the package boundary and at
// calls through func values and interfaces; calls under go, function-literal
// bodies and select-with-default sends add nothing to it, deferred calls do.
// A lock acquired again one call away is not seen. A helper that locks in one
// function and unlocks in another (a lock handoff) is reported at the return
// and needs a //lint:allow with its protocol documented. sync.Locker values
// passed as interfaces are not tracked; RLock/RLock recursion
// (deadlock-prone only with a pending writer) is accepted.
package lockcheck

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"github.com/troxy-bft/troxy/internal/analysis"
	"github.com/troxy-bft/troxy/internal/analysis/dataflow"
)

// Analyzer is the lockcheck analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc:  "locks must not be held across blocking operations, direct or reached through same-package calls, re-acquired, released unheld, or leaked past a return",
	Run:  run,
}

// lockKey identifies one lock within a function: the root variable object,
// the selector path from it to the mutex, and the read/write mode.
type lockKey struct {
	root types.Object
	path string
	read bool
}

func (k lockKey) display() string {
	mode := ""
	if k.read {
		mode = " (read)"
	}
	return k.root.Name() + k.path + mode
}

// Kinds of blocking operation, as the transitive report names them.
const (
	kindSend  = "channel send"
	kindIO    = "socket/frame I/O"
	kindECall = "ecall transition"
)

// checker is one package's run: the callees calls can be followed into, the
// sends that cannot block, and the blocking operation reachable from each
// callee asked about so far.
type checker struct {
	pass        *analysis.Pass
	decls       map[*types.Func]*ast.FuncDecl
	nonBlocking map[ast.Node]bool
	reach       map[*ast.FuncDecl]blocking
}

// blocking is the nearest blocking operation reachable from a function: its
// kind ("" for none) and the call path to it.
type blocking struct{ kind, via string }

func run(pass *analysis.Pass) error {
	if _, ok := analysis.RelPath(pass.Path()); !ok {
		return nil
	}
	c := &checker{
		pass:        pass,
		decls:       analysis.FuncDecls(pass.Files, pass.TypesInfo),
		nonBlocking: nonBlockingSends(pass.Files),
		reach:       make(map[*ast.FuncDecl]blocking),
	}
	for _, f := range pass.Files {
		for _, body := range dataflow.FuncBodies(f) {
			c.checkFunc(body)
		}
	}
	return nil
}

func (c *checker) checkFunc(body *ast.BlockStmt) {
	pass := c.pass
	deferred := collectDeferredUnlocks(pass, body)

	h := &dataflow.Hooks{
		Info: pass.TypesInfo,
		TransferCall: func(call *ast.CallExpr, info dataflow.CallInfo, st *dataflow.State) bool {
			if key, op, ok := lockOp(pass, call); ok {
				switch op {
				case "Lock", "RLock":
					if info.Deferred {
						return false
					}
					write := lockKey{key.root, key.path, false}
					read := lockKey{key.root, key.path, true}
					if st.Has(write) || (op == "Lock" && st.Has(read)) {
						if info.Reporting {
							pass.Reportf(call.Pos(),
								"%s of %s while already holding it; self-deadlock", op, key.root.Name()+key.path)
						}
					}
					// Record the acquire even after a double-lock report so the
					// paired release below doesn't cascade a second diagnostic.
					key.read = op == "RLock"
					st.Add(key)
				case "Unlock", "RUnlock":
					key.read = op == "RUnlock"
					if info.Deferred {
						// Runs at return; checked via the deferred-unlock set.
						return false
					}
					if !st.Has(key) {
						if info.Reporting {
							pass.Reportf(call.Pos(),
								"%s of %s which is not held on this path", op, key.root.Name()+key.path)
						}
						return false
					}
					st.Kill(key)
				}
				return false
			}

			if st.Len() == 0 || info.Deferred || !info.Reporting {
				return false
			}
			if why, _ := blockingCall(pass.TypesInfo, call); why != "" {
				pass.Reportf(call.Pos(),
					"%s while holding %s; a stalled peer blocks every goroutine contending for the lock", why, heldList(st))
				return false
			}
			if fd := c.decls[analysis.CalleeFunc(pass.TypesInfo, call)]; fd != nil {
				if b := c.reachable(fd); b.kind != "" {
					pass.Reportf(call.Pos(),
						"call to %s (transitively: %s, via %s) while holding %s; a stalled peer blocks every goroutine contending for the lock",
						fd.Name.Name, b.kind, b.via, heldList(st))
				}
			}
			return false
		},
		OnNode: func(n ast.Node, st *dataflow.State, deferredCall bool) {
			send, ok := n.(*ast.SendStmt)
			if !ok || st.Len() == 0 || c.nonBlocking[send] {
				return
			}
			pass.Reportf(send.Pos(),
				"channel send while holding %s; a blocked receiver blocks every goroutine contending for the lock", heldList(st))
		},
		OnReturn: func(ret *ast.ReturnStmt, _ []bool, st *dataflow.State) {
			var leaked []string
			st.Each(func(f dataflow.Fact) {
				k := f.(lockKey)
				if !deferred[k] {
					leaked = append(leaked, k.display())
				}
			})
			if len(leaked) == 0 {
				return
			}
			sort.Strings(leaked)
			pass.Reportf(ret.Pos(),
				"return while still holding %s with no deferred unlock; an early return leaks the lock", strings.Join(leaked, ", "))
		},
	}
	dataflow.Run(h, body)
}

// reachable walks fd's static same-package calls breadth-first to the
// nearest blocking operation, so the call path it reports ("flushAll → frame
// I/O (wire.WriteFrame)") is a shortest one.
func (c *checker) reachable(fd *ast.FuncDecl) blocking {
	if b, ok := c.reach[fd]; ok {
		return b
	}
	type visit struct {
		fd   *ast.FuncDecl
		path string
	}
	queue := []visit{{fd, ""}}
	seen := map[*ast.FuncDecl]bool{fd: true}
	var found blocking
	for len(queue) > 0 && found.kind == "" {
		v := queue[0]
		queue = queue[1:]
		kind, why, callees := c.scan(v.fd)
		if kind != "" {
			found = blocking{kind, v.path + why}
		}
		for _, callee := range callees {
			if !seen[callee] {
				seen[callee] = true
				queue = append(queue, visit{callee, v.path + callee.Name.Name + " → "})
			}
		}
	}
	c.reach[fd] = found
	return found
}

// scan returns the first blocking operation in fd's own body, or else the
// same-package functions it calls. Calls under go and function-literal
// bodies are skipped: neither runs before fd returns. Deferred calls do.
func (c *checker) scan(fd *ast.FuncDecl) (kind, why string, callees []*ast.FuncDecl) {
	spawned := make(map[*ast.CallExpr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if kind != "" {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			spawned[x.Call] = true
		case *ast.SendStmt:
			if !c.nonBlocking[x] {
				kind, why = kindSend, kindSend
			}
		case *ast.CallExpr:
			if spawned[x] {
				return true
			}
			if why, kind = blockingCall(c.pass.TypesInfo, x); kind == "" {
				if callee := c.decls[analysis.CalleeFunc(c.pass.TypesInfo, x)]; callee != nil {
					callees = append(callees, callee)
				}
			}
		}
		return true
	})
	return kind, why, callees
}

// lockOp recognizes a mutex method call and returns the lock key (write mode)
// and the operation name.
func lockOp(pass *analysis.Pass, call *ast.CallExpr) (lockKey, string, bool) {
	root, path, op, ok := mutexOp(pass.TypesInfo, call)
	return lockKey{root: root, path: path}, op, ok
}

// collectDeferredUnlocks gathers the locks released by defer statements
// anywhere in body: those are legitimately still held at return.
func collectDeferredUnlocks(pass *analysis.Pass, body *ast.BlockStmt) map[lockKey]bool {
	out := make(map[lockKey]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		key, op, ok := lockOp(pass, d.Call)
		if !ok {
			return true
		}
		switch op {
		case "Unlock":
			out[lockKey{key.root, key.path, false}] = true
		case "RUnlock":
			out[lockKey{key.root, key.path, true}] = true
		}
		return true
	})
	return out
}

func heldList(st *dataflow.State) string {
	var names []string
	st.Each(func(f dataflow.Fact) {
		names = append(names, f.(lockKey).display())
	})
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// nonBlockingSends returns the send statements that are comm clauses of a
// select containing a default arm: non-blocking by construction.
func nonBlockingSends(files []*ast.File) map[ast.Node]bool {
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

// mutexOp recognizes a sync.Mutex / sync.RWMutex method call and returns
// the lock's root object, the selector path from the root to the mutex
// (".state.mu" for c.state.mu), and the operation name.
func mutexOp(info *types.Info, call *ast.CallExpr) (root types.Object, path, op string, ok bool) {
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
	root, path, ok = splitLockExpr(info, sel.X)
	if !ok {
		return nil, "", "", false
	}
	return root, path, op, true
}

// splitLockExpr splits a lock expression into its root object and selector
// path (c.state.mu -> root c, path ".state.mu").
func splitLockExpr(info *types.Info, e ast.Expr) (types.Object, string, bool) {
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

// blockingCall classifies a call as a potentially indefinitely blocking
// operation, returning a short description and its kind ("" if not
// blocking). The vocabulary: net.Conn-shaped I/O, net.Buffers vectored
// writes, internal/wire frame I/O, and enclave ecall transitions.
func blockingCall(info *types.Info, call *ast.CallExpr) (why, kind string) {
	fn := analysis.CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", ""
	}
	switch fn.Pkg().Path() {
	case "net":
		switch fn.Name() {
		case "Read", "Write", "Accept", "Close":
			return fmt.Sprintf("net %s call", fn.Name()), kindIO
		case "WriteTo":
			// net.Buffers.WriteTo: the vectored write behind the ring
			// transport's flush.
			return "net vectored write (Buffers.WriteTo)", kindIO
		}
		return "", ""
	case analysis.ModulePath + "/internal/wire":
		if fn.Name() == "ReadFrame" || fn.Name() == "WriteFrame" {
			return fmt.Sprintf("frame I/O (wire.%s)", fn.Name()), kindIO
		}
		return "", ""
	case analysis.ModulePath + "/internal/enclave":
		switch fn.Name() {
		case "ECall", "ECallAppend":
			return "ecall transition", kindECall
		}
		return "", ""
	}
	// Concrete Conn types: a Read/Write/Close method on a value with
	// net.Conn's core shape is treated as conn I/O.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && isConnLike(info, sel.X) {
		switch fn.Name() {
		case "Read", "Write", "Close":
			return fmt.Sprintf("conn %s call", fn.Name()), kindIO
		}
	}
	return "", ""
}

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
