// Command troxy-mutate scores the repository's safety net. It copies the tree
// it is started in (the module root) to a temporary directory, checks that
// the copy passes every gate, and then applies the mutants of internal/mutate
// to the copy one at a time — never to the tree itself — and runs each
// through the gates in cost order:
//
//	go build ./...        a mutant that does not compile is a catalogue error
//	troxy-lint ./...      every analyzer that reports is recorded
//	go vet ./...
//	go test ./...         every failing test is recorded (tier 1), and its
//	                      last 15 output lines logged, except
//	                      internal/mutate's own, which hold the catalogue
//	                      to the unmutated tree
//
// and, for a mutant that neither vet nor tier 1 killed, the gates CI runs
// beside them: make bench-quick, make chaos, make soak-quick (each holds
// wall-clock assertions, so it kills only when it fails twice running).
//
// One line per mutant goes to standard output, then for every analyzer the
// behavioural mutants it alone killed: DESIGN.md §9.5 is that output, and the
// rule it feeds is there too. `make mutate` runs the whole catalogue (about
// 70 s a mutant on two vCPUs); arguments select mutants by ID.
package main

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strings"

	"github.com/troxy-bft/troxy/internal/mutate"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("troxy-mutate: ")
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(ids []string) error {
	mutants := slices.DeleteFunc(slices.Clone(mutate.Catalogue), func(m mutate.Mutant) bool {
		return len(ids) > 0 && !slices.Contains(ids, m.ID)
	})
	if len(ids) > 0 && len(mutants) != len(ids) {
		return fmt.Errorf("unknown mutant among %v", ids)
	}

	tmp, err := os.MkdirTemp("", "troxy-mutate-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	if err := mutate.CopyTree(".", tmp); err != nil {
		return err
	}
	t := &tree{dir: tmp}
	if out, err := t.run("go", "build", "-o", "bin/troxy-lint", "./cmd/troxy-lint"); err != nil {
		return fmt.Errorf("build troxy-lint: %v\n%s", err, out)
	}
	if base := t.gates(true); base.killed() {
		return fmt.Errorf("the unmutated tree does not pass its gates: %s", base)
	}

	soleKills := make(map[string][]string) // analyzer -> behavioural mutants only it killed
	var broken, analyzers []string         // analyzers: every one a mutant aims at or that killed one alone
	for _, m := range mutants {
		analyzers = append(analyzers, m.Aims...)
		restore, err := m.Apply(tmp)
		if err != nil {
			return err
		}
		res := t.gates(false)
		if err := restore(); err != nil {
			return err
		}
		class := "behavioural"
		if m.Equivalent != "" {
			class = "equivalent"
		}
		fmt.Printf("%s | %s | aims: %s | %s\n", m.ID, class, list(m.Aims), res)
		if res.broken {
			broken = append(broken, m.ID)
		}
		if m.Equivalent == "" && len(res.lint) == 1 && !res.vet && len(res.tests) == 0 && len(res.late) == 0 {
			soleKills[res.lint[0]] = append(soleKills[res.lint[0]], m.ID)
			analyzers = append(analyzers, res.lint[0])
		}
	}
	fmt.Println()
	slices.Sort(analyzers)
	for _, a := range slices.Compact(analyzers) {
		fmt.Printf("%s | sole killer of: %s\n", a, list(soleKills[a]))
	}
	if len(broken) > 0 {
		return fmt.Errorf("catalogue entries that no gate could judge: %s", list(broken))
	}
	return nil
}

func list(s []string) string {
	if len(s) == 0 {
		return "-"
	}
	return strings.Join(s, ", ")
}

// tree is the temporary copy the gates run in.
type tree struct{ dir string }

func (t *tree) run(name string, args ...string) ([]byte, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = t.dir
	return cmd.CombinedOutput()
}

// result is what the gates said about one state of the tree.
type result struct {
	broken bool     // does not compile, or a gate could not run
	lint   []string // analyzers that reported
	vet    bool
	tests  []string // failing tier-1 tests, package-qualified
	late   []string // of bench-quick, chaos, soak-quick: those that failed
	note   string
}

func (r result) killed() bool {
	return r.broken || len(r.lint) > 0 || r.vet || len(r.tests) > 0 || len(r.late) > 0
}

func (r result) String() string {
	if r.broken {
		return "BROKEN: " + r.note
	}
	vet := "-"
	if r.vet {
		vet = "fails"
	}
	s := fmt.Sprintf("lint: %s | vet: %s | tier-1: %s | late: %s", list(r.lint), vet, list(r.tests), list(r.late))
	if !r.killed() {
		s += " | SURVIVES"
	}
	return s
}

var lintLine = regexp.MustCompile(`\[([a-z]+)\]$`)

// gates runs the tree through every gate. The late gates run when vet and
// tier 1 let the tree through — a lint finding does not spare them, or "only
// an analyzer kills it" would be unproven — and always for the baseline.
func (t *tree) gates(baseline bool) result {
	var r result
	if out, err := t.run("go", "build", "./..."); err != nil {
		return result{broken: true, note: "does not compile: " + firstLine(out)}
	}

	out, err := t.run("bin/troxy-lint", "./...")
	if exit, ok := err.(*exec.ExitError); err != nil && (!ok || exit.ExitCode() != 2) {
		return result{broken: true, note: "troxy-lint: " + firstLine(out)}
	}
	for _, line := range strings.Split(string(out), "\n") {
		if m := lintLine.FindStringSubmatch(line); m != nil {
			r.lint = append(r.lint, m[1])
		}
	}
	slices.Sort(r.lint)
	r.lint = slices.Compact(r.lint)

	if _, err := t.run("go", "vet", "./..."); err != nil {
		r.vet = true
	}

	out, err = t.run("go", "list", "./...")
	if err != nil {
		return result{broken: true, note: "go list: " + firstLine(out)}
	}
	pkgs := slices.DeleteFunc(strings.Fields(string(out)), func(p string) bool { return strings.HasSuffix(p, "/internal/mutate") })
	out, _ = t.run("go", append([]string{"test", "-json", "-timeout", "5m"}, pkgs...)...)
	var said map[string][]string
	r.tests, said = failedTests(out)
	for _, name := range r.tests {
		log.Printf("%s:\n%s", name, strings.Join(said[name], ""))
	}

	if baseline || (!r.vet && len(r.tests) == 0) {
		for _, target := range []string{"bench-quick", "chaos", "soak-quick"} {
			if t.fails(target) && t.fails(target) {
				r.late = append(r.late, target)
			}
		}
	}
	return r
}

// fails runs one late gate and says what it said if it failed. The late gates
// hold wall-clock assertions (a checkpoint twice as slow, a chaos deadline), so
// one failure on a busy machine is not a kill: gates asks twice.
func (t *tree) fails(target string) bool {
	out, err := t.run("make", target)
	if err == nil {
		return false
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	log.Printf("make %s: %v\n%s", target, err, strings.Join(tail(lines), "\n"))
	return true
}

// tail is the last 15 of lines: what a failure said last.
func tail(lines []string) []string { return lines[max(0, len(lines)-15):] }

// failedTests extracts the failing tests from `go test -json` output: the
// top-level test names, and the package alone where it failed outside any test
// (a panic, a timeout, a build failure of the test binary). said holds, for
// each, the last lines it printed, its subtests' included.
func failedTests(out []byte) (names []string, said map[string][]string) {
	printed := make(map[string][]string)
	inPkg := make(map[string]bool)
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var ev struct{ Action, Package, Test, Output string }
		if json.Unmarshal(sc.Bytes(), &ev) != nil {
			continue
		}
		pkg := cmp.Or(strings.TrimPrefix(strings.TrimPrefix(ev.Package, "github.com/troxy-bft/troxy"), "/"), ".")
		top, _, _ := strings.Cut(cmp.Or(ev.Test, "(package)"), "/")
		name := pkg + ":" + top
		switch {
		case ev.Action == "output":
			printed[name] = append(printed[name], ev.Output)
		case ev.Action == "fail" && ev.Test != "": // a subtest's failure names its top-level test
			names = append(names, name)
			inPkg[pkg] = true
		case ev.Action == "fail" && !inPkg[pkg]:
			names = append(names, name)
		}
	}
	slices.Sort(names)
	said = make(map[string][]string)
	for _, name := range names {
		said[name] = tail(printed[name])
	}
	return slices.Compact(names), said
}

func firstLine(b []byte) string {
	line, _, _ := strings.Cut(strings.TrimSpace(string(b)), "\n")
	return line
}
