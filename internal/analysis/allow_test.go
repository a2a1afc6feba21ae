package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// loadSrc typechecks one in-memory file into a Package ready for Analyze.
func loadSrc(t *testing.T, filename, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := NewInfo()
	conf := types.Config{}
	path := ModulePath + "/internal/realnet/fixture"
	tpkg, err := conf.Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{
		Fset:  fset,
		Files: []*ast.File{f},
		Types: tpkg,
		Info:  info,
		Path:  path,
	}
}

func TestAllowAudit(t *testing.T) {
	cases := []struct {
		name     string
		filename string
		src      string
		want     []string // substrings of expected allowaudit diagnostics, in order
	}{
		{
			name:     "valid allow passes",
			filename: "a.go",
			src: `package fixture

func f() {
	_ = 1 //lint:allow lockcheck readMu serializes readers around this frame read
}
`,
			want: nil,
		},
		{
			name:     "unknown analyzer name fails",
			filename: "a.go",
			src: `package fixture

func f() {
	_ = 1 //lint:allow lockchek readMu serializes readers around this frame read
}
`,
			want: []string{`unknown analyzer "lockchek"`},
		},
		{
			name:     "missing reason fails",
			filename: "a.go",
			src: `package fixture

func f() {
	_ = 1 //lint:allow lockcheck
}
`,
			want: []string{"has no reason"},
		},
		{
			name:     "bare allow fails",
			filename: "a.go",
			src: `package fixture

func f() {
	_ = 1 //lint:allow
}
`,
			want: []string{"without an analyzer name"},
		},
		{
			name:     "multi-name allow audits each name",
			filename: "a.go",
			src: `package fixture

func f() {
	_ = 1 //lint:allow lockcheck,secretflow serialized read; see DESIGN.md
}
`,
			want: nil,
		},
		{
			name:     "multi-name allow with one stale name fails",
			filename: "a.go",
			src: `package fixture

func f() {
	_ = 1 //lint:allow lockcheck,oldcheck serialized read
}
`,
			want: []string{`unknown analyzer "oldcheck"`},
		},
		{
			name:     "allow in test file is dead",
			filename: "a_test.go",
			src: `package fixture

func f() {
	_ = 1 //lint:allow lockcheck never reported here anyway
}
`,
			want: []string{"in a test file is dead"},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pkg := loadSrc(t, tc.filename, tc.src)
			diags := Analyze(pkg, nil)
			if len(diags) != len(tc.want) {
				t.Fatalf("got %d diagnostics %v, want %d", len(diags), diags, len(tc.want))
			}
			for i, d := range diags {
				if d.Analyzer != "allowaudit" {
					t.Errorf("diagnostic %d has analyzer %q, want allowaudit", i, d.Analyzer)
				}
				if !strings.Contains(d.Message, tc.want[i]) {
					t.Errorf("diagnostic %d = %q, want substring %q", i, d.Message, tc.want[i])
				}
			}
		})
	}
}

// TestAuditUnsuppressable pins that allowaudit diagnostics cannot themselves
// be silenced with another //lint:allow.
func TestAuditUnsuppressable(t *testing.T) {
	pkg := loadSrc(t, "a.go", `package fixture

func f() {
	//lint:allow allowaudit trying to silence the auditor
	_ = 1 //lint:allow lockchek stale name
}
`)
	diags := Analyze(pkg, nil)
	var msgs []string
	for _, d := range diags {
		msgs = append(msgs, d.Message)
	}
	joined := strings.Join(msgs, "\n")
	if !strings.Contains(joined, `unknown analyzer "lockchek"`) {
		t.Errorf("stale-name diagnostic was suppressed: %v", msgs)
	}
	if !strings.Contains(joined, `unknown analyzer "allowaudit"`) {
		t.Errorf("the allowaudit pseudo-name should itself audit as unknown: %v", msgs)
	}
}

func TestCheckRegistry(t *testing.T) {
	full := func() []*Analyzer {
		var as []*Analyzer
		for name := range KnownAnalyzerNames {
			as = append(as, &Analyzer{Name: name})
		}
		return as
	}

	if err := checkRegistry(full()); err != nil {
		t.Errorf("full registration should pass: %v", err)
	}
	if err := checkRegistry(full()[1:]); err == nil {
		t.Error("missing analyzer should fail registration check")
	}
	if err := checkRegistry(append(full(), &Analyzer{Name: "mystery"})); err == nil {
		t.Error("unknown analyzer should fail registration check")
	}
}
