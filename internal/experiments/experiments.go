// Package experiments contains one runnable experiment per figure and per
// qualitative claim of the paper, indexed by the registry below and run with
// cmd/modaloop. Each runner assembles the simulated substrates and autonomy
// loops, executes a deterministic scenario, and returns a Result whose table
// is the reproduction artifact; the seed-1 tables are pinned byte for byte
// in testdata/*.golden.
package experiments

import (
	"fmt"
	"strings"
)

// Result is one experiment's output: a labeled table plus free-form notes.
type Result struct {
	ID    string
	Title string
	// Claim quotes or paraphrases what the paper asserts; the table is the
	// measured counterpart.
	Claim   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row, formatting each cell with %v.
func (r *Result) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = trimFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	r.Rows = append(r.Rows, row)
}

// AddNote appends a formatted note.
func (r *Result) AddNote(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.3f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

// Table renders the result as an aligned text table.
func (r *Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.ID, r.Title)
	if r.Claim != "" {
		fmt.Fprintf(&b, "paper: %s\n", r.Claim)
	}
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Columns)
	sep := make([]string, len(r.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (cells containing commas
// are quoted).
func (r *Result) CSV() string {
	var b strings.Builder
	writeCSV := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				cell = `"` + strings.ReplaceAll(cell, `"`, `""`) + `"`
			}
			b.WriteString(cell)
		}
		b.WriteByte('\n')
	}
	writeCSV(r.Columns)
	for _, row := range r.Rows {
		writeCSV(row)
	}
	return b.String()
}

// Options configures an experiment run.
type Options struct {
	// Seed makes the run reproducible.
	Seed int64
	// Quick shrinks the scenario for benchmarks and smoke tests.
	Quick bool
}

// registry lists every experiment in ID order.
var registry = []struct {
	id, title string
	run       func(Options) *Result
}{
	{"EXP-A1", "Knowledge ablation: historical run data and learned corrections (§III Analyze)", runA1},
	{"EXP-A2", "Confidence gating: action threshold sweep (§IV)", runA2},
	{"EXP-A3", "Human-in/on/off-the-loop response latency and outcomes (§IV)", runA3},
	{"EXP-A4", "Continual vs static models under workload drift (§IV lifelong AI)", runA4},
	{"EXP-C1", "Concurrent fleet coordination with cross-loop conflict arbitration", runC1},
	{"EXP-F1", "Holistic monitoring and ODA across all four domains (Fig. 1)", runF1},
	{"EXP-F2a", "MAPE-K pattern scalability: decision latency vs managed-system count (Fig. 2)", runF2a},
	{"EXP-F2b", "MAPE-K pattern stability: decentralized planning on a shared resource (Fig. 2)", runF2b},
	{"EXP-F2c", "MAPE-K pattern robustness: control coverage under controller failures (Fig. 2)", runF2c},
	{"EXP-F3", "Scheduler use case: walltime-extension autonomy loop vs baselines (Fig. 3)", runF3},
	{"EXP-F3b", "Scheduler-case trust metrics: extension accuracy, guardrails, backfill impact (§III(iv))", runF3b},
	{"EXP-S1", "Scenario engine: chaos-diverse facility runs scored for MTTR, FP rate, and efficiency (§V at scale)", runS1},
	{"EXP-U1", "Maintenance use case: checkpoint-before-maintenance vs kill (§III case 1)", runU1},
	{"EXP-U2", "I/O QoS use case: adaptive hierarchical QoS vs static vs none (§III case 2)", runU2},
	{"EXP-U3", "OST use case: avoid a degraded OST by close/reopen (§III case 3)", runU3},
	{"EXP-U4", "Misconfiguration use case: detection and response quality (§III case 4)", runU4},
	{"EXP-X1", "Power/energy control loop with confidence gating (§IV extension)", runX1},
}

// IDs returns all registered experiment IDs in order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

// Title returns an experiment's one-line description.
func Title(id string) (string, bool) {
	for _, e := range registry {
		if e.id == id {
			return e.title, true
		}
	}
	return "", false
}

// Run executes the experiment with the given options; the result carries
// the experiment's ID.
func Run(id string, opt Options) (*Result, error) {
	for _, e := range registry {
		if e.id != id {
			continue
		}
		if opt.Seed == 0 {
			opt.Seed = 1
		}
		res := e.run(opt)
		res.ID = e.id
		return res, nil
	}
	return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
}

// RunAll executes every experiment in ID order.
func RunAll(opt Options) []*Result {
	var out []*Result
	for _, id := range IDs() {
		res, err := Run(id, opt)
		if err == nil {
			out = append(out, res)
		}
	}
	return out
}

// pct formats a ratio as a percentage string.
func pct(num, den float64) string {
	if den == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*num/den)
}
