// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VI) on the deterministic simulator: the same protocol
// code as the deployable library, driven under a virtual clock with the
// calibrated cost model, the paper's LAN topology, and its emulated WAN
// (100±20 ms on client links).
//
// Each experiment prints the rows/series the paper reports. Absolute numbers
// depend on the cost-model calibration; the claims under reproduction are
// the *relationships* — who wins, by roughly what factor, and where the
// crossovers lie. EXPERIMENTS.md records paper-vs-measured for each.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Options control experiment scale.
type Options struct {
	// Seed drives all randomness.
	Seed int64

	// Quick shrinks workloads for smoke tests and `go test -bench`.
	Quick bool

	// Out receives progress lines (nil: silent).
	Out io.Writer
}

func (o Options) progress(format string, args ...any) {
	if o.Out != nil {
		fmt.Fprintf(o.Out, format+"\n", args...)
	}
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 42
	}
	return o.Seed
}

// measureDurations returns (warmup, measure) phase lengths.
func (o Options) measureDurations(wan bool) (time.Duration, time.Duration) {
	if o.Quick {
		if wan {
			return time.Second, 3 * time.Second
		}
		return 300 * time.Millisecond, 700 * time.Millisecond
	}
	if wan {
		return 2 * time.Second, 5 * time.Second
	}
	return 500 * time.Millisecond, 2 * time.Second
}

// Table is one experiment's output.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "\n== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	printRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// Experiment is a named, runnable reproduction target.
type Experiment struct {
	Name  string
	Brief string
	Run   func(Options) []*Table
}

// All returns the registry in presentation order.
func All() []Experiment {
	return []Experiment{
		{"table1", "read-optimization properties of BL / Prophecy / Troxy", Table1},
		{"fig6", "ordered writes, local network (BL vs ctroxy vs etroxy)", Fig6},
		{"fig7", "ordered writes, 100±20 ms WAN on client links", Fig7},
		{"fig8", "read-only requests, local network (fast-read cache)", Fig8},
		{"fig9", "read-only requests, WAN", Fig9},
		{"fig10", "1% writes: conflicts, reference and optimized modes", Fig10},
		{"fig11", "HTTP service latency: Jetty / BL / Prophecy / Troxy", Fig11},
		{"ablation", "design-choice ablations (cache, monitor, client protocol)", Ablation},
		{"batching", "leader batching sweep (counter-certification amortization)", Batching},
		{"commitlevel", "tunable commit levels: crash-commit fast path vs durable tier", CommitLevel},
	}
}

// ByName finds an experiment.
func ByName(name string) (Experiment, bool) {
	for _, e := range All() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Names lists all experiment names.
func Names() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.Name)
	}
	sort.Strings(out)
	return out
}

// formatting helpers

func kops(opsPerSec float64) string {
	return fmt.Sprintf("%.1f", opsPerSec/1000)
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond))
}

func pct(x float64) string {
	return fmt.Sprintf("%.0f%%", 100*x)
}

func ratio(a, b float64) string {
	if b == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.0f%%", 100*(a-b)/b)
}

func sizeLabel(n int) string {
	switch {
	case n >= 1024 && n%1024 == 0:
		return fmt.Sprintf("%d KiB", n/1024)
	default:
		return fmt.Sprintf("%d B", n)
	}
}
