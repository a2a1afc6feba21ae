// Package lockcheck enforces mutex discipline in the packages the pipelined
// ordering core made concurrent (tcounter, realnet, securechannel,
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
//   - a call into a same-package function whose *transitive* may-effect
//     summary (internal/analysis/interproc: call graph + bottom-up SCC
//     fixpoint) includes a blocking channel send, socket/frame I/O, or an
//     ecall — closing the helper-function blind spot: wrapping
//     wire.WriteFrame in flushAll() no longer hides it from the lock scope;
//   - a call back into a same-package function that acquires a lock this
//     function already holds (the self-deadlock shape), using the
//     inter-procedural receiver-lock summaries, which propagate through
//     same-receiver helper chains;
//   - Unlock/RUnlock of a lock not held on any path reaching it;
//   - a return while a manually-managed lock is still held: an early return
//     that skips the unlock leaks the lock; locks covered by a defer'd
//     unlock anywhere in the function are exempt.
//
// Known limits, by design: the summaries stop at the package boundary — a
// helper that locks in one function and unlocks in another (a lock handoff)
// is reported at the return and needs a //lint:allow with its protocol
// documented; reports for transitive effects are placed at the call site
// inside the lock scope (the natural allow position). Calls through func
// values and interface implementations outside the package are invisible to
// the summaries. sync.Locker values passed as interfaces are not tracked;
// RLock/RLock recursion (deadlock-prone only with a pending writer) is
// accepted.
package lockcheck

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"github.com/troxy-bft/troxy/internal/analysis"
	"github.com/troxy-bft/troxy/internal/analysis/dataflow"
	"github.com/troxy-bft/troxy/internal/analysis/interproc"
)

// Analyzer is the lockcheck analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc:  "locks must not be held across blocking operations, re-acquired through same-package calls, released unheld, or leaked past a return",
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

func run(pass *analysis.Pass) error {
	if _, ok := analysis.RelPath(pass.Path()); !ok {
		return nil
	}

	graph := interproc.Build(pass.Files, pass.TypesInfo, pass.Pkg, nil)
	nonBlocking := interproc.NonBlockingSends(pass.Files)

	for _, f := range pass.Files {
		for _, body := range dataflow.FuncBodies(f) {
			checkFunc(pass, body, graph, nonBlocking)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt, graph *interproc.Graph, nonBlocking map[ast.Node]bool) {
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

			if st.Len() == 0 || info.Deferred {
				return false
			}
			if why, _ := interproc.BlockingCall(pass.TypesInfo, call); why != "" {
				if info.Reporting {
					pass.Reportf(call.Pos(),
						"%s while holding %s; a stalled peer blocks every goroutine contending for the lock", why, heldList(st))
				}
				return false
			}
			if reportTransitiveEffect(pass, call, st, graph, info.Reporting) {
				return false
			}
			reportSelfDeadlock(pass, call, st, graph, info.Reporting)
			return false
		},
		OnNode: func(n ast.Node, st *dataflow.State, deferredCall bool) {
			send, ok := n.(*ast.SendStmt)
			if !ok || st.Len() == 0 || nonBlocking[send] {
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

// lockOp recognizes a mutex method call and returns the lock key (write mode)
// and the operation name.
func lockOp(pass *analysis.Pass, call *ast.CallExpr) (lockKey, string, bool) {
	root, path, op, ok := interproc.MutexOp(pass.TypesInfo, call)
	return lockKey{root: root, path: path}, op, ok
}

// reportTransitiveEffect flags a call into a same-package function whose
// transitive summary includes a blocking effect, while a lock is held. The
// report is placed at the call site — the line a //lint:allow must cover —
// with the call path to the operation in the message. Reports whether a
// diagnostic applies at this call.
func reportTransitiveEffect(pass *analysis.Pass, call *ast.CallExpr, st *dataflow.State, graph *interproc.Graph, reporting bool) bool {
	node := graph.Lookup(interproc.CalleeFunc(pass.TypesInfo, call))
	if node == nil || node.Sum.Effects == 0 {
		return false
	}
	if reporting {
		bit := interproc.EffectSend
		for _, b := range []interproc.Effect{interproc.EffectIO, interproc.EffectECall, interproc.EffectSend} {
			if node.Sum.Effects&b != 0 {
				bit = b
				break
			}
		}
		pass.Reportf(call.Pos(),
			"call to %s (transitively: %s, via %s) while holding %s; a stalled peer blocks every goroutine contending for the lock",
			node.Fn.Name(), bit, node.EffectTrace(bit), heldList(st))
	}
	return true
}

// reportSelfDeadlock flags a call to a same-package method that acquires —
// directly or through same-receiver helper calls — a receiver lock the
// caller already holds on the same object.
func reportSelfDeadlock(pass *analysis.Pass, call *ast.CallExpr, st *dataflow.State, graph *interproc.Graph, reporting bool) {
	sel, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if sel == nil || !reporting {
		return
	}
	node := graph.Lookup(interproc.CalleeFunc(pass.TypesInfo, call))
	if node == nil || len(node.Sum.RecvLocks) == 0 {
		return
	}
	root, _, ok := interproc.SplitLockExpr(pass.TypesInfo, sel.X)
	if !ok {
		return
	}
	for _, l := range node.Sum.RecvLocks {
		held := lockKey{root, l.Path, false}
		heldR := lockKey{root, l.Path, true}
		// Write acquire conflicts with anything held; read acquire conflicts
		// with a held write lock.
		if st.Has(held) || (!l.Read && st.Has(heldR)) {
			pass.Reportf(call.Pos(),
				"call to %s.%s re-acquires %s already held here; self-deadlock", root.Name(), node.Fn.Name(), root.Name()+l.Path)
			return
		}
	}
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
