package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// worsening is how much worse b is than a, as a share of a, in the metric's
// own direction; negative means b is better.
func worsening(d *metricDef, a, b float64) float64 {
	if a == b {
		return 0
	}
	if a == 0 {
		a = 1e-12 // a zero baseline has no share; any move the wrong way breaches
	}
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles holds result file b (the change) to result file a (the
// baseline): one row per bounded metric and workload with both values, the
// delta, the bound and the better direction, a mark on every breach and on
// every rise in failed operations, and a non-zero exit if there is any.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	fa, err := readResult(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fb, err := readResult(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if !compareResults(fa, fb, stdout) {
		return 1
	}
	return 0
}

func compareResults(fa, fb *resultFile, w io.Writer) (ok bool) {
	ok = true
	byName := map[string]*workloadResult{}
	for i := range fb.Workloads {
		byName[fb.Workloads[i].Name] = &fb.Workloads[i]
	}
	fmt.Fprintf(w, "%-14s %-24s %14s %14s %9s %7s %-6s\n", "workload", "metric", "a", "b", "delta", "bound", "better")
	for i := range fa.Workloads {
		wa := &fa.Workloads[i]
		wb := byName[wa.Name]
		if wb == nil {
			fmt.Fprintf(w, "%-14s missing from the second file  BREACH\n", wa.Name)
			ok = false
			continue
		}
		for di := range metricDefs {
			d := &metricDefs[di]
			if d.kind == kindLayer {
				continue
			}
			va, inA := wa.Metrics[d.name]
			vb, inB := wb.Metrics[d.name]
			if !inA && !inB {
				continue
			}
			mark := ""
			if inA != inB {
				mark = "  BREACH (row missing on one side)"
				ok = false
			}
			delta := worsening(d, va.Value, vb.Value)
			if delta > d.bound+1e-12 {
				mark = "  BREACH"
				ok = false
			}
			fmt.Fprintf(w, "%-14s %-24s %14.6g %14.6g %+8.2f%% %6.1f%% %-6s%s\n",
				wa.Name, d.name, va.Value, vb.Value, 100*signed(d, delta), 100*d.bound, d.better, mark)
		}
		mark := ""
		if wb.Failed > wa.Failed {
			mark = "  BREACH"
			ok = false
		}
		fmt.Fprintf(w, "%-14s %-24s %14s %14s%s\n", wa.Name, "failed/ops",
			fmt.Sprintf("%d/%d", wa.Failed, wa.Ops), fmt.Sprintf("%d/%d", wb.Failed, wb.Ops), mark)
	}
	return ok
}

// signed turns a worsening back into the raw direction of travel for
// printing: +3% means the value rose 3%.
func signed(d *metricDef, worse float64) float64 {
	if d.better == "higher" {
		return -worse
	}
	return worse
}
