package dataflow

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"testing"
)

// The harness typechecks one snippet (import-free, so no importer machinery
// is needed) declaring a function f plus three markers:
//
//	source() — its result is tainted (seeded through TransferCall)
//	sink(x)  — records the line when any argument evaluates tainted
//	pass(x)  — propagates argument taint to its result
//
// Each case lists the lines (within f, 1-based from the snippet top) where
// sink must receive taint; any extra or missing hit fails.
const prelude = `package p

func source() []byte { return nil }
func sink(args ...any) {}
func pass(x any) any { return x }
func scrub(x any) any { return nil }
`

func compile(t *testing.T, body string) (*ast.File, *types.Info, *token.FileSet) {
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
	if _, err := conf.Check("p", fset, []*ast.File{file}, info); err != nil {
		t.Fatalf("typecheck: %v\nsource:\n%s", err, numbered(src))
	}
	return file, info, fset
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

// taintedSinkLines runs the engine over every function named f/g/h in the
// snippet and returns the sorted source lines (relative to the body string,
// 1-based) at which sink() saw a tainted argument.
func taintedSinkLines(t *testing.T, body string) []int {
	t.Helper()
	file, info, fset := compile(t, body)
	preludeLines := 0
	for _, c := range prelude {
		if c == '\n' {
			preludeLines++
		}
	}

	var hits []int
	calleeName := func(call *ast.CallExpr) string {
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return ""
		}
		return id.Name
	}
	h := &Hooks{
		Info: info,
		TransferCall: func(call *ast.CallExpr, info CallInfo) bool {
			switch calleeName(call) {
			case "source":
				return true
			case "sink":
				if info.ArgTainted && info.Reporting {
					hits = append(hits, fset.Position(call.Pos()).Line-preludeLines)
				}
				return false
			case "pass":
				return info.ArgTainted
			case "scrub":
				return false
			}
			return false
		},
	}

	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		switch fd.Name.Name {
		case "f", "g", "h":
			Run(h, fd.Body)
		}
	}
	sort.Ints(hits)
	return hits
}

func TestTaintPropagation(t *testing.T) {
	cases := []struct {
		name string
		body string
		want []int // lines within body (1-based) where sink sees taint
	}{
		{
			name: "direct flow",
			body: `func f() {
	s := source()
	sink(s)
	clean := 1
	sink(clean)
}`,
			want: []int{3},
		},
		{
			name: "reassignment kills",
			body: `func f() {
	s := source()
	sink(s)
	s = nil
	sink(s)
}`,
			want: []int{3},
		},
		{
			name: "taint through pass-through call and conversion",
			body: `func f() {
	s := source()
	v := pass(s)
	sink(v)
	w := string(s)
	sink(w)
	u := scrub(s)
	sink(u)
}`,
			want: []int{4, 6},
		},
		{
			name: "branch join: taint from either arm survives",
			body: `func f(c bool) {
	var s any
	if c {
		s = source()
	} else {
		s = 1
	}
	sink(s)
}`,
			want: []int{8},
		},
		{
			name: "branch kill on one arm does not clear the join",
			body: `func f(c bool) {
	s := any(source())
	if c {
		s = nil
	}
	sink(s)
}`,
			want: []int{6},
		},
		{
			name: "kill on both arms clears the join",
			body: `func f(c bool) {
	s := any(source())
	if c {
		s = nil
	} else {
		s = 2
	}
	sink(s)
}`,
			want: nil,
		},
		{
			name: "return path does not leak into join",
			body: `func f(c bool) {
	var s any = 1
	if c {
		s = source()
		sink(s)
		return
	}
	sink(s)
}`,
			want: []int{5},
		},
		{
			name: "loop fixpoint: taint introduced in iteration reaches loop head",
			body: `func f(n int) {
	var s any = 1
	for i := 0; i < n; i++ {
		sink(s)
		s = source()
	}
}`,
			want: []int{4},
		},
		{
			name: "loop kill does not erase pre-loop taint on zero-iteration exit",
			body: `func f(n int) {
	s := any(source())
	for i := 0; i < n; i++ {
		s = nil
	}
	sink(s)
}`,
			want: []int{6},
		},
		{
			name: "range over tainted slice taints element vars",
			body: `func f() {
	xs := []any{source()}
	for _, v := range xs {
		sink(v)
	}
	for i := range xs {
		sink(i)
	}
}`,
			want: []int{4, 7},
		},
		{
			name: "composite literal carries element taint",
			body: `func f() {
	s := source()
	box := struct{ k []byte }{k: s}
	sink(box)
	arr := []any{1, s}
	sink(arr)
	clean := []any{1, 2}
	sink(clean)
}`,
			want: []int{4, 6},
		},
		{
			name: "map element store weakly taints the map",
			body: `func f() {
	m := map[string]any{}
	sink(m)
	m["k"] = source()
	sink(m)
	sink(m["k"])
}`,
			want: []int{5, 6},
		},
		{
			name: "slice element store weakly taints the slice",
			body: `func f() {
	xs := make([]any, 2)
	xs[0] = source()
	sink(xs)
	sink(xs[1])
}`,
			want: []int{4, 5},
		},
		{
			name: "field store weakly taints the struct",
			body: `func f() {
	var box struct{ k []byte }
	box.k = source()
	sink(box)
	sink(box.k)
}`,
			want: []int{4, 5},
		},
		{
			name: "append and copy propagate",
			body: `func f() {
	s := source()
	xs := append([]byte(nil), s...)
	sink(xs)
	dst := make([]byte, 8)
	copy(dst, s)
	sink(dst)
	n := len(s)
	sink(n)
}`,
			want: []int{4, 7},
		},
		{
			name: "multi-assign from one rhs taints all lhs",
			body: `func f(m map[string]any) {
	m["k"] = source()
	v, ok := m["k"]
	sink(v)
	sink(ok)
}`,
			want: []int{4, 5},
		},
		{
			name: "switch: taint from any case joins, dead default respected",
			body: `func f(n int) {
	var s any = 1
	switch n {
	case 0:
		s = source()
	case 1:
		s = 2
	}
	sink(s)
}`,
			want: []int{9},
		},
		{
			name: "type switch binds taint to clause var",
			body: `func f() {
	var v any = source()
	switch x := v.(type) {
	case []byte:
		sink(x)
	case string:
		sink(x)
	}
}`,
			want: []int{5, 7},
		},
		{
			name: "select joins clause states",
			body: `func f(ch chan any) {
	var s any = 1
	select {
	case s = <-ch:
		s = source()
	default:
	}
	sink(s)
}`,
			want: []int{8},
		},
		{
			name: "binary and unary expressions propagate",
			body: `func f() {
	s := source()
	cat := string(s) + "x"
	sink(cat)
	p := &s
	sink(p)
	sink(*p)
}`,
			want: []int{4, 6, 7},
		},
		{
			name: "defer arguments evaluated",
			body: `func f() {
	s := source()
	defer sink(s)
	s = nil
	sink(s)
}`,
			want: []int{3},
		},
		{
			name: "function literal analyzed with fresh state",
			body: `func f() {
	s := source()
	_ = s
	fn := func() {
		t := source()
		sink(t)
		u := 1
		sink(u)
	}
	fn()
}`,
			want: []int{6},
		},
		{
			name: "break carries state out of infinite loop",
			body: `func f(c bool) {
	var s any = 1
	for {
		if c {
			s = source()
			break
		}
		s = nil
	}
	sink(s)
}`,
			want: []int{10},
		},
		{
			name: "continue re-joins at loop head",
			body: `func f(n int) {
	var s any = 1
	for i := 0; i < n; i++ {
		if i == 0 {
			s = source()
			continue
		}
		sink(s)
	}
}`,
			want: []int{8},
		},
		{
			name: "slice expression keeps base taint",
			body: `func f() {
	s := source()
	sink(s[1:])
	sink(s[0])
}`,
			want: []int{3, 4},
		},
		{
			name: "var decl with tainted initializer",
			body: `func f() {
	var s = source()
	sink(s)
	var t []byte
	sink(t)
}`,
			want: []int{3},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := taintedSinkLines(t, tc.body)
			if !equalInts(got, tc.want) {
				t.Errorf("tainted sink lines = %v, want %v\nbody:\n%s", got, tc.want, numbered(tc.body))
			}
		})
	}
}

// TestErrorResultsNeverTainted pins the engine rule that an error-typed
// binding never carries taint: fmt.Errorf-style wrapping of an error that
// came out of a key-derivation call must not propagate.
func TestErrorResultsNeverTainted(t *testing.T) {
	body := `func deriveKey() ([]byte, error) { return source(), nil }

func f() {
	key, err := deriveKey()
	sink(key)
	sink(err)
}`
	file, info, fset := compile(t, body)
	preludeLines := 0
	for _, c := range prelude {
		if c == '\n' {
			preludeLines++
		}
	}
	var hits []int
	h := &Hooks{
		Info: info,
		TransferCall: func(call *ast.CallExpr, info CallInfo) bool {
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok {
				return false
			}
			switch id.Name {
			case "deriveKey", "source":
				return true
			case "sink":
				if info.ArgTainted && info.Reporting {
					hits = append(hits, fset.Position(call.Pos()).Line-preludeLines)
				}
			}
			return false
		},
	}
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == "f" {
			Run(h, fd.Body)
		}
	}
	sort.Ints(hits)
	if want := []int{5}; !equalInts(hits, want) {
		t.Errorf("tainted sink lines = %v, want %v (err must stay clean)", hits, want)
	}
}

// TestReportPassOnce checks that TransferCall sees each call exactly once
// with Reporting set, loop fixpointing and defer included, and that OnReturn
// fires only in that pass.
func TestReportPassOnce(t *testing.T) {
	body := `func f(n int) int {
	s := source()
	for i := 0; i < n; i++ {
		sink(s)
		for j := 0; j < n; j++ {
			if j == i {
				return 0
			}
		}
	}
	defer sink(s)
	return 1
}`
	file, info, fset := compile(t, body)
	counts := make(map[int]int)
	returns := 0
	h := &Hooks{
		Info: info,
		TransferCall: func(call *ast.CallExpr, info CallInfo) bool {
			if info.Reporting {
				counts[fset.Position(call.Pos()).Line]++
			}
			id, _ := ast.Unparen(call.Fun).(*ast.Ident)
			return id != nil && id.Name == "source"
		},
		OnReturn: func(*ast.ReturnStmt, []bool) { returns++ },
	}
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == "f" {
			Run(h, fd.Body)
		}
	}
	if len(counts) != 3 {
		t.Errorf("reported calls on %d lines, want 3 (source, sink in the loop, deferred sink)", len(counts))
	}
	for line, c := range counts {
		if c != 1 {
			t.Errorf("call at line %d seen %d times in the report pass, want exactly 1", line, c)
		}
	}
	if returns != 2 {
		t.Errorf("OnReturn fired %d times, want 2", returns)
	}
}

// TestStateOps covers the set semantics directly.
func TestStateOps(t *testing.T) {
	a := types.NewVar(0, nil, "a", types.Typ[types.Int])
	b := types.NewVar(0, nil, "b", types.Typ[types.Int])
	s := newState()
	if s.has(a) {
		t.Fatal("fresh state has facts")
	}
	s.add(a)
	s.add(b)
	if !s.has(a) || !s.has(b) {
		t.Fatal("add failed")
	}
	s.kill(a)
	if s.has(a) || !s.has(b) {
		t.Fatal("kill failed")
	}
	d := deadState()
	if d.join(s); d.dead || !d.has(b) || d.has(a) {
		t.Fatal("a live state joined into a dead one is not adopted")
	}
	if s.join(deadState()) {
		t.Fatal("joining a dead state changed a live one")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
