package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// The driver loads whole package patterns in one process through Load.
// `make lint` and CI invoke it as `troxy-lint ./...`.

// Main is the entry point of cmd/troxy-lint: it checks the analyzer
// registry, then analyzes the package patterns on the command line and
// exits with Standalone's status.
func Main(analyzers ...*Analyzer) {
	log.SetFlags(0)
	log.SetPrefix("troxy-lint: ")
	if err := checkRegistry(analyzers); err != nil {
		log.Fatal(err)
	}
	args := os.Args[1:]
	for _, a := range args {
		if a == "-help" || a == "--help" || a == "-h" {
			usage(analyzers)
			return
		}
	}
	if len(args) == 0 {
		usage(analyzers)
		os.Exit(2)
	}
	os.Exit(Standalone(args, analyzers))
}

// checkRegistry verifies the driver registers exactly the analyzers in
// KnownAnalyzerNames: a new analyzer must be added to both the registry (so
// //lint:allow can reference it) and cmd/troxy-lint (so it actually runs),
// and this check makes forgetting either a startup failure instead of a
// silent gap.
func checkRegistry(analyzers []*Analyzer) error {
	registered := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		if !KnownAnalyzerNames[a.Name] {
			return fmt.Errorf("analyzer %q is not in KnownAnalyzerNames; add it to the registry in internal/analysis", a.Name)
		}
		registered[a.Name] = true
	}
	for name := range KnownAnalyzerNames {
		if !registered[name] {
			return fmt.Errorf("analyzer %q is in KnownAnalyzerNames but not registered with the driver; add it in cmd/troxy-lint", name)
		}
	}
	return nil
}

func usage(analyzers []*Analyzer) {
	fmt.Fprintf(os.Stderr, "troxy-lint: static enforcement of Troxy's trust boundary\n\n")
	fmt.Fprintf(os.Stderr, "usage:\n")
	fmt.Fprintf(os.Stderr, "  troxy-lint <packages>          analyze package patterns (e.g. ./...)\n\n")
	fmt.Fprintf(os.Stderr, "analyzers:\n")
	for _, a := range analyzers {
		doc := a.Doc
		if i := strings.IndexByte(doc, '\n'); i >= 0 {
			doc = doc[:i]
		}
		fmt.Fprintf(os.Stderr, "  %-16s %s\n", a.Name, doc)
	}
}

// listPackage is the subset of `go list -json` output the loader consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	Error      *struct{ Err string }
}

// Load runs `go list -e -export -deps` over patterns in dir ("" for the
// current directory) and returns the module's packages among those the
// patterns match, parsed and type-checked, with every import resolved from
// the gc export data the listing left in the build cache. Dependencies and
// packages outside ModulePath are listed but not returned.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json=ImportPath,Dir,Export,Standard,DepOnly,GoFiles,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v", err)
	}
	var targets []listPackage
	exports := make(map[string]string) // import path -> export data file
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if _, ok := RelPath(p.ImportPath); ok && !p.DepOnly && !p.Standard {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	pkgs := make([]*Package, 0, len(targets))
	for _, p := range targets {
		pkg := &Package{Fset: fset, Info: NewInfo(), Path: p.ImportPath}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil,
				parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("parse: %v", err)
			}
			pkg.Files = append(pkg.Files, f)
		}
		tcfg := types.Config{Importer: imp}
		if pkg.Types, err = tcfg.Check(p.ImportPath, fset, pkg.Files, pkg.Info); err != nil {
			return nil, fmt.Errorf("typecheck %s: %v", p.ImportPath, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// Standalone analyzes the packages matched by patterns. Exit status: 0
// clean, 1 operational error, 2 findings.
func Standalone(patterns []string, analyzers []*Analyzer) int {
	pkgs, err := Load("", patterns...)
	if err != nil {
		log.Print(err)
		return 1
	}
	status := 0
	for _, p := range pkgs {
		diags := Analyze(p, analyzers)
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, d)
		}
		if len(diags) > 0 {
			status = 2
		}
	}
	return status
}
