package troxy

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// A pointer into the documents names a section: the EXPERIMENTS.md file name
// followed by a quoted heading prefix, optionally inside a parenthesis, or
// the DESIGN.md file name followed by a section sign and a number, "N" or
// "N.M". CHANGES.md and ROADMAP.md are not scanned: history and plans may
// name sections that are gone.
var (
	experimentsPointer = regexp.MustCompile(`EXPERIMENTS\.md\s+\(?"([^"]+)"`)
	designPointer      = regexp.MustCompile(`DESIGN\.md\s+§(\d+)(?:\.(\d+))?`)

	mdHeading       = regexp.MustCompile(`^#{2,3} (.+)$`)
	designSection   = regexp.MustCompile(`^## (\d+)\.`)
	designSubhead   = regexp.MustCompile(`^### (\d+\.\d+) `)
	designListEntry = regexp.MustCompile(`^(\d+)\. `)
)

// TestDocPointersResolve checks that every pointer into EXPERIMENTS.md or
// DESIGN.md, in the README, the two documents themselves, the Makefile and
// every Go file outside bench/ and testdata, names a section that exists.
// A "§N.M" resolves to a "### N.M" heading or to item M of the numbered
// list directly under "## N." (the key design decisions of section 5, the
// modelling decisions of section 7).
func TestDocPointersResolve(t *testing.T) {
	headings := experimentsHeadings(t)
	sections := designSections(t)

	files := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "Makefile"}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path == "bench" || name == "testdata" || (path != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var experiments, design int
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		for _, m := range experimentsPointer.FindAllStringSubmatchIndex(text, -1) {
			experiments++
			name := text[m[2]:m[3]]
			if !startsAHeading(headings, name) {
				t.Errorf("%s:%d: EXPERIMENTS.md %q matches no section heading", f, lineOf(text, m[0]), name)
			}
		}
		for _, m := range designPointer.FindAllStringSubmatchIndex(text, -1) {
			design++
			ref := text[m[2]:m[3]]
			if m[4] >= 0 {
				ref += "." + text[m[4]:m[5]]
			}
			if !sections[ref] {
				t.Errorf("%s:%d: DESIGN.md §%s matches no section, subsection or numbered item", f, lineOf(text, m[0]), ref)
			}
		}
	}
	if experiments == 0 || design == 0 {
		t.Fatalf("found %d EXPERIMENTS.md and %d DESIGN.md pointers; the scan is broken", experiments, design)
	}
}

func experimentsHeadings(t *testing.T) []string {
	data, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(string(data), "\n") {
		if m := mdHeading.FindStringSubmatch(line); m != nil {
			out = append(out, m[1])
		}
	}
	return out
}

func startsAHeading(headings []string, name string) bool {
	for _, h := range headings {
		if strings.HasPrefix(h, name) {
			return true
		}
	}
	return false
}

// designSections returns the names DESIGN.md can be pointed at: "N" for each
// "## N." heading, "N.M" for each "### N.M" heading and for item M of the
// numbered list under "## N.".
func designSections(t *testing.T) map[string]bool {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]bool)
	current := ""
	for _, line := range strings.Split(string(data), "\n") {
		if m := designSection.FindStringSubmatch(line); m != nil {
			current = m[1]
			out[current] = true
			continue
		}
		if strings.HasPrefix(line, "## ") {
			current = ""
			continue
		}
		if m := designSubhead.FindStringSubmatch(line); m != nil {
			out[m[1]] = true
			continue
		}
		if m := designListEntry.FindStringSubmatch(line); m != nil && current != "" {
			out[current+"."+m[1]] = true
		}
	}
	return out
}

func lineOf(text string, offset int) int {
	return strings.Count(text[:offset], "\n") + 1
}
