// Command bench is the loop-latency ledger: one harness that runs four named
// workloads through the real stack from outside, prints every end-to-end
// metric by name with unit and sample count, checks the outputs against
// frozen oracles, and — in a separate traced pass — records spans around the
// calls into each layer's public functions to say which layer spent the
// time. See README.md in this directory.
//
//	go run ./bench                          all four workloads, tracing off
//	go run ./bench --trace 1                also the per-layer ledger
//	go run ./bench --workload stress10k --seed 7 --seconds 20
//	go run ./bench --compare a.json b.json  hold b to a within the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: how long one workload
// keeps starting new iterations.
const defaultSeconds = 26

// lateLimit fails a query answered this long after it was due.
const lateLimit = time.Second

// extraSetups is how many times a workload is set up and torn down after
// measuring, so setup_s summarizes many even when few iterations fit.
const extraSetups = 30

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "workload seed; iteration i runs document seed seed+i")
	name := fs.String("workload", "", "run one workload (default: all of "+strings.Join(workloadNames, ", ")+")")
	trace := fs.Int("trace", 0, "1 adds the traced pass and reports the per-layer metrics")
	seconds := fs.Float64("seconds", defaultSeconds, "keep starting iterations of a workload for this long")
	out := fs.String("out", "", "write the JSON result here (and the span file beside it when tracing)")
	compare := fs.Bool("compare", false, "compare two result files: --compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: --compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	names := workloadNames
	if *name != "" {
		if !slices.Contains(workloadNames, *name) {
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames, ", "))
			return 2
		}
		names = []string{*name}
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: --trace takes 0 or 1")
		return 2
	}

	tw := tweak{scratch: ".bench_build", beyond: tailFloor, lateLimit: lateLimit}
	if err := os.MkdirAll(tw.scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	file := resultFile{Seed: *seed, Seconds: *seconds, Trace: *trace == 1}
	for _, w := range names {
		wr, spans := runWorkload(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, tw)
		printWorkload(stdout, wr)
		file.Workloads = append(file.Workloads, *wr)
		if *out != "" && spans != nil {
			if err := writeJSON(spanPath(*out, w), spans, false); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
	}
	if *out != "" {
		if err := writeJSON(*out, &file, true); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	line, ok := summaryLine(&file)
	fmt.Fprintln(stdout, line)
	if !ok {
		return 1
	}
	return 0
}

// workloadResult is one workload's row group in the result file.
type workloadResult struct {
	Name       string   `json:"name"`
	Ops        int      `json:"ops"`
	Failed     int      `json:"failed"`
	Iterations int      `json:"iterations"`
	Failures   []string `json:"failures,omitempty"`
	// Refused lists per-layer percentiles left out for want of samples.
	Refused []string         `json:"refused,omitempty"`
	Metrics map[string]value `json:"metrics"`
	// Table is the first iteration's score table and loop counters: what to
	// freeze under golden/ after an intended behaviour change.
	Table string `json:"table"`
}

type resultFile struct {
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Trace     bool             `json:"trace"`
	Workloads []workloadResult `json:"workloads"`
}

// runOne runs one iteration: set up, drive, check, tear down.
func runOne(workload string, seed int64, rec *recorder, tw tweak) *iterResult {
	res := newIterResult()
	it := &iter{tw: tw, workload: workload, seed: seed, rec: rec, res: res}
	rg := newRig(it)
	defer rg.close()
	t0 := time.Now()
	err := rg.setup()
	res.setup = time.Since(t0)
	if err == nil {
		rg.run()
		err = rg.finish()
	}
	res.check(err == nil, "%s seed %d: %v", workload, seed, err)
	if rec != nil {
		res.spans = rec.merge()
		layersFromSpans(res, len(rec.spans))
	}
	return res
}

// runWorkload keeps running iterations of one workload until the time is up
// (and the reaction rows have their samples) and folds them into one result. With tracing on every iteration runs
// twice, untraced then traced, on the same document seed; the two must
// print the same table.
func runWorkload(workload string, seed int64, d time.Duration, traced bool, tw tweak) (*workloadResult, []span) {
	a := newAggregate(workload, tw.beyond)
	start := time.Now()
	var firstSpans []span
	for i := 0; ; i++ {
		docSeed := seed + int64(i)
		plain := runOne(workload, docSeed, nil, tw)
		if docSeed == 1 {
			golden, err := goldenTable(tw, workload)
			plain.check(err == nil && plain.table == golden,
				"%s: table at document seed 1 differs from golden/%s-seed1.txt (%v)", workload, workload, err)
		}
		a.addPlain(plain)
		if traced {
			tr := runOne(workload, docSeed, newRecorder(), tw)
			tr.check(tr.table == plain.table, "%s seed %d: traced table differs from untraced", workload, docSeed)
			tr.check(tr.points == plain.points, "%s seed %d: traced run gathered %d points, untraced %d",
				workload, docSeed, tr.points, plain.points)
			a.addTraced(tr, plain)
			if firstSpans == nil {
				firstSpans = tr.spans
			}
		}
		// Time-boxed, but a machine slow enough to fit fewer iterations than
		// react_ms_p90 needs rounds gets up to as long again to supply them.
		// A traced run, with half the iterations, goes without the row.
		if el := time.Since(start); el >= d && (traced || a.reactSupportsTail() || el >= 2*d) {
			break
		}
	}
	// After the measured iterations, so the repetitions' garbage cannot
	// disturb the heap the iterations run on.
	if !traced {
		for k := 0; k < extraSetups; k++ {
			a.addSetup(setupOnly(workload, seed+int64(k), tw))
		}
	}
	return a.result(traced), firstSpans
}

// setupOnly stands a workload up and tears it down, returning how long the
// standing up took.
func setupOnly(workload string, seed int64, tw tweak) (time.Duration, error) {
	rg := newRig(&iter{tw: tw, workload: workload, seed: seed, res: newIterResult()})
	defer rg.close()
	runtime.GC() // every repetition starts from the same heap
	t0 := time.Now()
	err := rg.setup()
	return time.Since(t0), err
}

func printWorkload(w io.Writer, wr *workloadResult) {
	fmt.Fprintf(w, "== %s: %d iterations, %d ops, %d failed\n", wr.Name, wr.Iterations, wr.Ops, wr.Failed)
	for _, d := range metricDefs {
		if v, ok := wr.Metrics[d.name]; ok {
			fmt.Fprintf(w, "%-14s %-30s %16.6g %-9s n=%d\n", wr.Name, d.name, v.Value, v.Unit, v.N)
		}
	}
	for _, f := range wr.Refused {
		fmt.Fprintf(w, "%-14s refused: %s\n", wr.Name, f)
	}
	for _, f := range wr.Failures {
		fmt.Fprintf(w, "%-14s FAILED: %s\n", wr.Name, f)
	}
}

// summaryLine is the last line of standard output: one JSON object saying
// whether every check held, how many operations were attempted and failed,
// and the metrics — the end-to-end rows with tracing off, the per-layer rows
// (a row the workload does not exercise reads 0) with it on. A single
// workload's metrics are keyed by name; several are keyed workload/name.
func summaryLine(f *resultFile) (string, bool) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	sum := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, wr := range f.Workloads {
		sum.Attempted += wr.Ops
		sum.Failed += wr.Failed
		prefix := ""
		if len(f.Workloads) > 1 {
			prefix = wr.Name + "/"
		}
		for _, d := range metricDefs {
			if (d.kind == kindE2E) == f.Trace {
				continue
			}
			v, ok := wr.Metrics[d.name]
			if !ok && d.kind == kindE2E {
				sum.Failed++ // every workload owes every end-to-end row
			}
			sum.Metrics[prefix+d.name] = metric{Value: v.Value, Unit: d.unit}
		}
	}
	sum.Correct = sum.Failed == 0
	line, err := json.Marshal(sum)
	if err != nil {
		return err.Error(), false
	}
	return string(line), sum.Correct
}

// spanPath names a workload's span file beside the result file:
// result.json gives result.stress10k.spans.json.
func spanPath(out, workload string) string {
	return strings.TrimSuffix(out, filepath.Ext(out)) + "." + workload + ".spans.json"
}

func writeJSON(path string, v interface{}, indent bool) error {
	var data []byte
	var err error
	if indent {
		data, err = json.MarshalIndent(v, "", "  ")
	} else {
		data, err = json.Marshal(v)
	}
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
