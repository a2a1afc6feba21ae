package interproc

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"github.com/troxy-bft/troxy/internal/analysis"
)

// The harness typechecks one import-free snippet (the prelude declares the
// marker functions) and builds the call graph over it. The markers mirror
// secretflow's vocabulary:
//
//	source()  — evaluating its call introduces taint (TaintSpec.Source)
//	derive()  — results carry taint by fiat (TaintSpec.Derivation)
//	sink()    — tainted arguments reach a log sink (TaintSpec.CallSink)
//	wiresink() — tainted arguments reach a wire sink
const prelude = `package p

func source() []byte { return nil }
func derive() []byte { return nil }
func sink(args ...any) {}
func wiresink(args ...any) {}
`

func compile(t *testing.T, body string) (*ast.File, *types.Info, *types.Package) {
	t.Helper()
	src := prelude + body
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "snippet.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v\nsource:\n%s", err, numbered(src))
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.Default(), Error: func(err error) {}}
	pkg, err := conf.Check("p", fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatalf("typecheck: %v\nsource:\n%s", err, numbered(src))
	}
	return file, info, pkg
}

func numbered(src string) string {
	out := ""
	line := 1
	start := 0
	for i := 0; i <= len(src); i++ {
		if i == len(src) || src[i] == '\n' {
			out += fmt.Sprintf("%3d| %s\n", line, src[start:i])
			line++
			start = i + 1
		}
	}
	return out
}

func testSpec() *TaintSpec {
	return &TaintSpec{
		Source: func(e ast.Expr) bool {
			call, ok := e.(*ast.CallExpr)
			if !ok {
				return false
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			return ok && id.Name == "source"
		},
		Derivation: func(fn *types.Func) bool { return fn.Name() == "derive" },
		CallSink: func(fn *types.Func) SinkKind {
			switch fn.Name() {
			case "sink":
				return SinkLog
			case "wiresink":
				return SinkWire
			}
			return 0
		},
	}
}

func build(t *testing.T, body string, spec *TaintSpec) *Graph {
	t.Helper()
	file, info, pkg := compile(t, body)
	return Build([]*ast.File{file}, info, pkg, spec)
}

func nodeByName(t *testing.T, g *Graph, name string) *Node {
	t.Helper()
	for fn, n := range g.Nodes {
		if fn.Name() == name {
			return n
		}
	}
	t.Fatalf("no node named %s", name)
	return nil
}

// TestModulePathMatchesDriver pins the package-local copy of the module path
// (kept local to avoid an import cycle in production code) to the driver's
// canonical constant.
func TestModulePathMatchesDriver(t *testing.T) {
	if modulePath != analysis.ModulePath {
		t.Fatalf("interproc.modulePath = %q, analysis.ModulePath = %q; keep them identical", modulePath, analysis.ModulePath)
	}
}

func TestCallGraphEdges(t *testing.T) {
	g := build(t, `
type T struct{ n int }

func (t *T) a(o *T) {
	t.b()
	helper()
	go t.c()
	o.b()
}
func (t *T) b() {}
func (t *T) c() {}
func helper() {
	f := func() {}
	f()
}
`, nil)

	a := nodeByName(t, g, "a")
	want := []struct {
		callee   string
		sameRecv bool
		goCall   bool
	}{
		{"b", true, false},
		{"helper", false, false},
		{"c", true, true},
		{"b", false, false}, // o.b(): same method, different receiver object
	}
	if len(a.Edges) != len(want) {
		t.Fatalf("a has %d edges, want %d", len(a.Edges), len(want))
	}
	for i, w := range want {
		e := a.Edges[i]
		if e.Callee.Fn.Name() != w.callee || e.SameRecv != w.sameRecv || e.Go != w.goCall {
			t.Errorf("edge %d = %s (sameRecv=%v go=%v), want %s (sameRecv=%v go=%v)",
				i, e.Callee.Fn.Name(), e.SameRecv, e.Go, w.callee, w.sameRecv, w.goCall)
		}
	}

	if h := nodeByName(t, g, "helper"); !h.CallsFuncValue {
		t.Errorf("helper calls through a func value; CallsFuncValue should be set")
	}
	if a.CallsFuncValue {
		t.Errorf("a resolves every call; CallsFuncValue should be clear")
	}
}

func TestSCCBottomUpOrder(t *testing.T) {
	g := build(t, `
func a() { b() }
func b() { c(); d(0) }
func c() {}
func d(n int) { e(n) }
func e(n int) { d(n) }
`, nil)

	pos := make(map[string]int)
	for i, scc := range g.SCCs {
		for _, n := range scc {
			pos[n.Fn.Name()] = i
		}
	}
	if pos["d"] != pos["e"] {
		t.Errorf("d and e are mutually recursive; want one SCC, got %d and %d", pos["d"], pos["e"])
	}
	for _, edge := range [][2]string{{"c", "b"}, {"d", "b"}, {"b", "a"}} {
		if pos[edge[0]] >= pos[edge[1]] {
			t.Errorf("SCC order not bottom-up: %s (component %d) should precede its caller %s (component %d)",
				edge[0], pos[edge[0]], edge[1], pos[edge[1]])
		}
	}
}

func TestEffectPropagation(t *testing.T) {
	g := build(t, `
type S struct{ ch chan int }

func (s *S) send()    { s.ch <- 1 }
func (s *S) mid()     { s.send() }
func (s *S) top()     { s.mid() }
func (s *S) spawn()   { go s.send() }
func (s *S) deferred() { defer s.send() }
func (s *S) trySend() {
	select {
	case s.ch <- 1:
	default:
	}
}
func (s *S) makeWork() func() {
	return func() { s.ch <- 1 }
}
func (s *S) pingA() { s.pingB() }
func (s *S) pingB() { s.pingA(); s.ch <- 1 }
`, nil)

	effects := func(name string) Effect { return nodeByName(t, g, name).Sum.Effects }

	if effects("send")&EffectSend == 0 {
		t.Errorf("send performs a direct channel send; EffectSend missing")
	}
	if effects("top")&EffectSend == 0 {
		t.Errorf("top reaches the send through mid; EffectSend missing")
	}
	if trace := nodeByName(t, g, "top").EffectTrace(EffectSend); trace != "mid → send → channel send" {
		t.Errorf("top send trace = %q, want %q", trace, "mid → send → channel send")
	}
	for _, name := range []string{"spawn", "trySend", "makeWork"} {
		if e := effects(name); e != 0 {
			t.Errorf("%s must have no blocking effects (go spawn / select-default / func literal), got %v", name, e)
		}
	}
	if effects("deferred")&EffectSend == 0 {
		t.Errorf("deferred runs the send before returning; EffectSend missing")
	}
	// Recursive SCC: both members converge on the send effect.
	if effects("pingA")&EffectSend == 0 || effects("pingB")&EffectSend == 0 {
		t.Errorf("pingA/pingB SCC fixpoint lost the send effect: A=%v B=%v", effects("pingA"), effects("pingB"))
	}
}

func TestTaintSummaries(t *testing.T) {
	g := build(t, `
func logIt(v []byte)  { sink(v) }
func clone(v []byte) []byte { return v }
func wrap(v []byte)   { logIt(v) }
func passThru(v []byte) []byte { return clone(v) }
func ship(v []byte)   { wiresink(clone(v)) }
func gen() []byte     { return source() }
func indirect() []byte { return gen() }
func useDerive() []byte { return derive() }
func clean(v []byte) int { return len(v) }
func ping(v []byte, n int) {
	if n > 0 {
		pong(v, n-1)
	}
}
func pong(v []byte, n int) {
	if n > 0 {
		ping(v, n-1)
	}
	sink(v)
}
`, testSpec())

	flow := func(name string, i int) ParamFlow { return nodeByName(t, g, name).Sum.ArgFlow(i) }

	if f := flow("logIt", 0); f.Sinks&SinkLog == 0 {
		t.Errorf("logIt passes its parameter to sink; SinkLog missing (got %v)", f.Sinks)
	}
	if f := flow("clone", 0); !f.ToResult {
		t.Errorf("clone returns its parameter; ToResult missing")
	}
	if f := flow("wrap", 0); f.Sinks&SinkLog == 0 {
		t.Errorf("wrap reaches sink through logIt's summary; SinkLog missing (got %v)", f.Sinks)
	}
	if f := flow("passThru", 0); !f.ToResult {
		t.Errorf("passThru returns clone(v); transitive ToResult missing")
	}
	if f := flow("ship", 0); f.Sinks&SinkWire == 0 {
		t.Errorf("ship wires clone(v); SinkWire through a ToResult helper missing (got %v)", f.Sinks)
	}
	for _, name := range []string{"gen", "indirect", "useDerive"} {
		if !nodeByName(t, g, name).Sum.ResultsTainted {
			t.Errorf("%s returns secret material; ResultsTainted missing", name)
		}
	}
	if f := flow("clean", 0); f.Sinks != 0 || f.ToResult {
		t.Errorf("clean has no flow; got %+v", f)
	}
	// Recursive SCC fixpoint: the sink in pong must surface on ping's
	// parameter too (ping only reaches it through the cycle).
	if f := flow("ping", 0); f.Sinks&SinkLog == 0 {
		t.Errorf("ping's parameter reaches sink through the ping/pong cycle; SinkLog missing (got %v)", f.Sinks)
	}
	if f := flow("pong", 0); f.Sinks&SinkLog == 0 {
		t.Errorf("pong's parameter reaches sink directly; SinkLog missing (got %v)", f.Sinks)
	}
	// The int counter parameter never touches a sink.
	if f := flow("ping", 1); f.Sinks != 0 {
		t.Errorf("ping's counter parameter is clean; got %v", f.Sinks)
	}
}
