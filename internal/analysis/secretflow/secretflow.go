// Package secretflow tracks where secret values flow (paper Section V: the
// trusted Troxy subsystem keeps client session keys, counter-certification
// keys, and sealed state inside the enclave; the untrusted host only ever
// sees ciphertext). TestTrustedComputingBase in internal/troxy pins down
// *which packages* are compiled into the enclave; secretflow pins down *where
// the secret bytes go* within each function, using the intra-procedural
// dataflow engine.
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
//     it encrypts or seals them first, host code may not.
//
// Taint also follows same-package calls, on demand: at a call with tainted
// arguments the analyzer runs the same hooks over the callee's body with the
// matching parameters seeded, and reports at the call site the sinks they
// reach there (or in anything the callee calls in turn); when they reach a
// result, the call's results are tainted. A second run over the callee with
// no seeds and the sources active says whether it returns secret material
// of its own (the laundering shape, `func key() []byte { return hkdf.Key(...) }`).
// Runs are memoized per callee and argument mask; a callee already on the
// stack counts as clean, and a result computed under that assumption is kept
// only while the callee it assumed clean is still running.
//
// Known limits, by design: the walk stops at the package boundary — an
// out-of-package call with tainted arguments still declassifies by default
// (Seal, Encrypt, Sign, mac.Sum legitimately transform secrets into
// publishable bytes), and the discipline stays compositional: the other
// package's bodies face the same analyzer. Calls through func values and
// interfaces are not followed, and recursion is cut where it closes. Error
// values never carry taint: errors are built for display, and wrapping one
// that came out of a derivation call is not a leak.
package secretflow

import (
	"go/ast"
	"go/types"
	"math"
	"slices"
	"strings"

	"github.com/troxy-bft/troxy/internal/analysis"
	"github.com/troxy-bft/troxy/internal/analysis/dataflow"
)

// Analyzer is the secretflow analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "secretflow",
	Doc:  "secret key material must not reach logs or host-side wire encoders, directly or through same-package calls",
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

// sinkKind is a set of sinks tainted values reach.
type sinkKind uint8

const (
	sinkLog sinkKind = 1 << iota
	sinkWire
)

// flow is what one run over a callee found: the sinks its seeded
// parameters reach, and whether taint reaches a result.
type flow struct {
	sinks  sinkKind
	result bool
}

// runKey names one run over a callee: mask is the set of seeded parameters
// (bit 0 the receiver, bit i+1 parameter i), zero for the intrinsic run.
type runKey struct {
	fd   *ast.FuncDecl
	mask uint64
}

// memoEntry is a finished run. assumed is the depth of the shallowest run in
// progress it took to be clean (math.MaxInt for none): the entry is dropped
// when that run ends.
type memoEntry struct {
	f       flow
	assumed int
}

// checker is one package's run. It owns the one definition of what a source
// and a sink are, for the package's own bodies and for the callee runs.
type checker struct {
	pass      *analysis.Pass
	trusted   bool
	annotated map[types.Object]bool
	decls     map[*types.Func]*ast.FuncDecl

	memo    map[runKey]memoEntry
	onStack map[runKey]int // depth of each run in progress
	// assumedAt lists, per depth of a run in progress, the memo entries
	// that assumed it clean.
	assumedAt [][]runKey
	// cut is the shallowest depth of a run in progress that the innermost
	// one has so far relied on being clean.
	cut int

	returns map[*ast.FuncDecl]map[*ast.ReturnStmt]bool
}

func run(pass *analysis.Pass) error {
	rel, ok := analysis.RelPath(pass.Path())
	if !ok {
		return nil
	}
	c := &checker{
		pass:      pass,
		trusted:   analysis.Trusted(rel),
		annotated: collectAnnotated(pass),
		decls:     analysis.FuncDecls(pass.Files, pass.TypesInfo),
		memo:      make(map[runKey]memoEntry),
		onStack:   make(map[runKey]int),
		cut:       math.MaxInt,
		returns:   make(map[*ast.FuncDecl]map[*ast.ReturnStmt]bool),
	}
	h := &dataflow.Hooks{
		Info:   pass.TypesInfo,
		Source: c.source,
		TransferCall: func(call *ast.CallExpr, info dataflow.CallInfo, st *dataflow.State) bool {
			return c.transfer(call, info, true, func(fn *types.Func, k sinkKind, inCallee bool) {
				if info.Reporting {
					c.report(call, fn, k, inCallee)
				}
			})
		},
	}
	for _, f := range pass.Files {
		for _, body := range dataflow.FuncBodies(f) {
			dataflow.Run(h, body)
		}
	}
	return nil
}

// source reports whether evaluating e introduces taint by itself.
func (c *checker) source(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		if obj := identObj(c.pass, x); obj != nil && c.annotated[obj] {
			return true
		}
	case *ast.SelectorExpr:
		if obj := c.pass.TypesInfo.Uses[x.Sel]; obj != nil && c.annotated[obj] {
			return true
		}
	}
	tv, ok := c.pass.TypesInfo.Types[e]
	return ok && tv.IsValue() && isSecretType(tv.Type)
}

// transfer decides a call's result taint and hands sink each sink its
// tainted arguments reach: directly for an out-of-package callee, inside the
// callee (inCallee) for a same-package one. sources is false in a seeded
// run, where only the parameters' taint counts.
func (c *checker) transfer(call *ast.CallExpr, info dataflow.CallInfo, sources bool, sink func(fn *types.Func, k sinkKind, inCallee bool)) bool {
	fn := analysis.CalleeFunc(c.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if isDerivation(fn) {
		return sources || info.ArgTainted
	}
	if fd := c.decls[fn]; fd != nil {
		res := sources && c.run(fd, 0).result
		if mask := argMask(info); mask != 0 {
			f := c.run(fd, mask)
			if f.sinks != 0 {
				sink(fn, f.sinks, true)
			}
			res = res || f.result
		}
		return res
	}
	if !info.ArgTainted {
		return false
	}
	var k sinkKind
	if sinkPkgs[fn.Pkg().Path()] {
		k |= sinkLog
	}
	if !c.trusted && fn.Pkg().Path() == wirePkg {
		k |= sinkWire
	}
	if k != 0 {
		sink(fn, k, false)
	}
	return false
}

func (c *checker) report(call *ast.CallExpr, fn *types.Func, k sinkKind, inCallee bool) {
	pass := c.pass
	switch {
	case inCallee && k&sinkLog != 0:
		pass.Reportf(call.Pos(),
			"secret-tainted argument to %s reaches a formatting/logging sink inside the callee; key material must never be formatted or logged", fn.Name())
	case k&sinkLog != 0:
		pass.Reportf(call.Pos(),
			"secret-tainted value reaches %s.%s; key material must never be formatted or logged", pkgBase(fn.Pkg().Path()), fn.Name())
	}
	switch {
	case inCallee && k&sinkWire != 0:
		pass.Reportf(call.Pos(),
			"secret-tainted argument to %s reaches a wire encoder inside the callee; only ciphertext may leave the trusted packages", fn.Name())
	case k&sinkWire != 0:
		pass.Reportf(call.Pos(),
			"secret-tainted value written to the wire via %s.%s outside the enclave surface; only ciphertext may leave the trusted packages", pkgBase(fn.Pkg().Path()), fn.Name())
	}
}

// argMask is the set of a call's tainted arguments, as runKey numbers them.
// Variadic overflow folds onto the last parameter when the callee is run.
func argMask(info dataflow.CallInfo) uint64 {
	var mask uint64
	if info.RecvTainted {
		mask = 1
	}
	for i, t := range info.ArgsTainted {
		if t {
			mask |= 1 << min(i+1, 63)
		}
	}
	return mask
}

// run runs the hooks over fd's body: with the parameters in mask seeded and
// no sources, or (mask zero) with no seeds and the sources active.
func (c *checker) run(fd *ast.FuncDecl, mask uint64) flow {
	key := runKey{fd, mask}
	if e, ok := c.memo[key]; ok {
		c.cut = min(c.cut, e.assumed)
		return e.f
	}
	if depth, ok := c.onStack[key]; ok {
		c.cut = min(c.cut, depth)
		return flow{}
	}
	depth := len(c.onStack)
	c.onStack[key] = depth
	c.assumedAt = append(c.assumedAt, nil)
	outer := c.cut
	c.cut = math.MaxInt

	var f flow
	own := c.ownReturns(fd)
	h := &dataflow.Hooks{
		Info: c.pass.TypesInfo,
		TransferCall: func(call *ast.CallExpr, info dataflow.CallInfo, st *dataflow.State) bool {
			return c.transfer(call, info, mask == 0, func(_ *types.Func, k sinkKind, _ bool) { f.sinks |= k })
		},
		OnReturn: func(ret *ast.ReturnStmt, tainted []bool, st *dataflow.State) {
			if own[ret] && slices.Contains(tainted, true) {
				f.result = true
			}
		},
	}
	init := dataflow.NewState()
	if mask == 0 {
		h.Source = c.source
	}
	params := paramObjs(c.pass.TypesInfo, fd)
	for i, obj := range params {
		if obj != nil && mask&(1<<i) != 0 {
			init.Add(obj)
		}
	}
	if last := len(params) - 1; last > 0 && params[last] != nil && mask>>last != 0 {
		init.Add(params[last]) // variadic overflow
	}
	dataflow.RunFrom(h, fd.Body, init)

	delete(c.onStack, key)
	for _, k := range c.assumedAt[depth] {
		delete(c.memo, k)
	}
	c.assumedAt = c.assumedAt[:depth]
	if c.cut >= depth {
		c.cut = math.MaxInt // what it assumed of itself ends with it
	} else {
		c.assumedAt[c.cut] = append(c.assumedAt[c.cut], key)
	}
	c.memo[key] = memoEntry{f, c.cut}
	c.cut = min(outer, c.cut)
	return f
}

// paramObjs lists fd's receiver (nil for a function or an unnamed receiver)
// and then its parameters (nil where unnamed), in runKey's numbering.
func paramObjs(info *types.Info, fd *ast.FuncDecl) []types.Object {
	objs := []types.Object{nil}
	if fd.Recv != nil && len(fd.Recv.List[0].Names) == 1 {
		objs[0] = info.Defs[fd.Recv.List[0].Names[0]]
	}
	for _, field := range fd.Type.Params.List {
		if len(field.Names) == 0 {
			objs = append(objs, nil)
		}
		for _, name := range field.Names {
			objs = append(objs, info.Defs[name])
		}
	}
	return objs
}

// ownReturns gathers the return statements of fd itself, not those of the
// function literals inside it.
func (c *checker) ownReturns(fd *ast.FuncDecl) map[*ast.ReturnStmt]bool {
	if out, ok := c.returns[fd]; ok {
		return out
	}
	out := make(map[*ast.ReturnStmt]bool)
	c.returns[fd] = out
	ast.Inspect(fd.Body, func(n ast.Node) bool {
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
