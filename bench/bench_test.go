package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"autoloop/internal/tsdb"
)

// The smoke test's cut-down horizons: long enough that every workload
// executes actions and answers queries, short enough to stay inside tier-1.
var smokeHorizon = map[string]time.Duration{
	wStress:  3 * time.Minute,
	wFleet:   10 * time.Minute,
	wDurable: 30 * time.Minute,
	wCluster: 30 * time.Minute,
}

func smokeTweak(t *testing.T, workload string) tweak {
	// beyond 0: a cut-down run has a handful of samples, and the smoke test
	// checks that rows exist, not what they read.
	// lateLimit a minute: the race detector slows the stack tenfold.
	return tweak{horizon: smokeHorizon[workload], scratch: t.TempDir(), beyond: 0, lateLimit: time.Minute}
}

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return &b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesTable holds BENCHMARK.json to metricDefs: same
// names, units, directions and bounds, nothing extra on either side.
func TestBenchmarkJSONMatchesTable(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", b.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, harness runs %v", names, workloadNames)
	}
	seen := map[string]bool{}
	check := func(name, unit, better string) *metricDef {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q is not a valid name", name)
		}
		if seen[name] {
			t.Errorf("metric %q listed twice", name)
		}
		seen[name] = true
		d := findMetric(name)
		if d == nil {
			t.Errorf("BENCHMARK.json lists %q, which the harness never emits", name)
			return nil
		}
		if d.unit != unit || d.better != better {
			t.Errorf("%s: BENCHMARK.json says %s/%s, harness %s/%s", name, unit, better, d.unit, d.better)
		}
		return d
	}
	for _, m := range b.EndToEnd {
		if d := check(m.Name, m.Unit, m.Better); d != nil && (d.kind != kindE2E || d.bound != m.Bound) {
			t.Errorf("%s: end_to_end with bound %g, harness kind %d bound %g", m.Name, m.Bound, d.kind, d.bound)
		}
	}
	for _, m := range b.PerLayer {
		if d := check(m.Name, m.Unit, m.Better); d != nil && d.kind == kindE2E {
			t.Errorf("%s: listed per_layer, but every workload emits it end to end", m.Name)
		}
	}
	for _, d := range metricDefs {
		if !seen[d.name] {
			t.Errorf("harness emits %q, missing from BENCHMARK.json", d.name)
		}
	}
}

// summaryKeys runs summaryLine over one workload result and returns the
// metric names it printed.
func summaryKeys(t *testing.T, wr *workloadResult, traced bool) map[string]float64 {
	t.Helper()
	line, _ := summaryLine(&resultFile{Trace: traced, Workloads: []workloadResult{*wr}})
	var sum struct {
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(line), &sum); err != nil {
		t.Fatalf("summary line is not JSON: %v\n%s", err, line)
	}
	out := map[string]float64{}
	for k, v := range sum.Metrics {
		out[k] = v.Value
	}
	return out
}

func sortedKeys(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}

// TestSmoke runs every workload, untraced and traced, at a cut-down horizon:
// no check may fail, the names printed must be BENCHMARK.json's exactly, and
// the span tree must be well formed.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	wantE2E, wantLayer := map[string]float64{}, map[string]float64{}
	for _, m := range b.EndToEnd {
		wantE2E[m.Name] = 0
	}
	for _, m := range b.PerLayer {
		wantLayer[m.Name] = 0
	}
	for _, w := range workloadNames {
		w := w
		t.Run(w, func(t *testing.T) {
			// Seed 2: the golden tables are for the full horizon.
			wr, spans := runWorkload(w, 2, 0, true, smokeTweak(t, w))
			for _, f := range wr.Failures {
				t.Errorf("failed: %s", f)
			}
			if wr.Ops < 1 {
				t.Errorf("ops %d", wr.Ops)
			}
			e2e := summaryKeys(t, wr, false)
			if sortedKeys(e2e) != sortedKeys(wantE2E) {
				t.Errorf("end-to-end names\n got %s\nwant %s", sortedKeys(e2e), sortedKeys(wantE2E))
			}
			for name, v := range e2e {
				if v == 0 {
					t.Errorf("end-to-end metric %s is 0", name)
				}
			}
			if layer := summaryKeys(t, wr, true); sortedKeys(layer) != sortedKeys(wantLayer) {
				t.Errorf("per-layer names\n got %s\nwant %s", sortedKeys(layer), sortedKeys(wantLayer))
			}
			for name := range wr.Metrics {
				if d := findMetric(name); d == nil || !d.appliesTo(w) {
					t.Errorf("%s emitted %s, which it does not exercise", w, name)
				}
			}

			if len(spans) == 0 {
				t.Fatal("traced pass recorded no spans")
			}
			for i, s := range spans {
				if int(s.ID) != i {
					t.Fatalf("span %d has id %d", i, s.ID)
				}
				if s.Parent != -1 && (s.Parent < 0 || int(s.Parent) >= len(spans)) {
					t.Fatalf("span %d (%s) has parent %d, neither a span nor a root", i, s.Name, s.Parent)
				}
				if s.End < s.Start {
					t.Fatalf("span %d (%s) ends before it starts", i, s.Name)
				}
			}
			for i, self := range selfTimes(spans) {
				if self < 0 {
					t.Fatalf("span %d (%s) has negative self time", i, spans[i].Name)
				}
			}
		})
	}
}

// TestGoldenTableIsChecked freezes a table, sees the run pass against it,
// corrupts one byte, and sees the run fail.
func TestGoldenTableIsChecked(t *testing.T) {
	tw := smokeTweak(t, wFleet)
	tw.golden = map[string]string{wFleet: "not the table\n"}
	wr, _ := runWorkload(wFleet, 1, 0, false, tw)
	if wr.Failed == 0 {
		t.Fatal("a wrong golden table did not fail the run")
	}
	tw.golden[wFleet] = wr.Table
	if wr, _ = runWorkload(wFleet, 1, 0, false, tw); wr.Failed != 0 {
		t.Fatalf("the run's own table as golden still fails: %v", wr.Failures)
	}
	corrupt := []byte(wr.Table)
	i := strings.Index(wr.Table, "findings ")
	corrupt[i+len("findings ")]++
	tw.golden[wFleet] = string(corrupt)
	if wr, _ = runWorkload(wFleet, 1, 0, false, tw); wr.Failed == 0 {
		t.Fatal("a golden table with one digit changed did not fail the run")
	}
}

// dropEvery forwards journal appends but acknowledges and loses one in
// every n. (Which single record would be enough depends on where the last
// snapshot fell: a record the snapshot covers is never replayed.)
type dropEvery struct {
	inner tsdb.Journaler
	n, i  int
}

func (d *dropEvery) Append(kind uint8, payload []byte) (uint64, error) {
	if d.i++; d.i%d.n == 0 {
		return 0, nil
	}
	return d.inner.Append(kind, payload)
}

// TestDroppedWALRecordIsCaught loses acknowledged WAL records and expects
// the recovery oracle to notice the recovered store is short.
func TestDroppedWALRecordIsCaught(t *testing.T) {
	tw := smokeTweak(t, wDurable)
	tw.wrapJournal = func(j tsdb.Journaler) tsdb.Journaler { return &dropEvery{inner: j, n: 1000} }
	wr, _ := runWorkload(wDurable, 2, 0, false, tw)
	caught := false
	for _, f := range wr.Failures {
		if strings.Contains(f, "recovered store differs") {
			caught = true
		}
	}
	if !caught {
		t.Fatalf("dropping a WAL record went unnoticed; failures: %v", wr.Failures)
	}
}

// TestQuantileRefusesThinTails is the sample-count discipline: a percentile
// without ten samples beyond it is an error.
func TestQuantileRefusesThinTails(t *testing.T) {
	s := make([]float64, 99)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if _, err := quantile(s, 0.90, tailFloor); err == nil {
		t.Error("p90 of 99 samples accepted")
	}
	s = append(s, 100)
	if v, err := quantile(s, 0.90, tailFloor); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := quantile(nil, 0.5, 0); err == nil {
		t.Error("median of nothing accepted")
	}
}

// TestUndisturbedQuartile pins the timing summary: a quarter of the way in
// from the better end, whichever end that is, and the best of four or fewer.
func TestUndisturbedQuartile(t *testing.T) {
	vals := []float64{9, 3, 7, 1, 5, 8, 2, 6, 4} // 1..9
	if v := undisturbed(vals, "lower"); v != 3 {
		t.Errorf("lower-is-better quartile of 1..9 = %v, want 3", v)
	}
	if v := undisturbed(vals, "higher"); v != 7 {
		t.Errorf("higher-is-better quartile of 1..9 = %v, want 7", v)
	}
	if v := undisturbed(vals[:4], "lower"); v != 1 {
		t.Errorf("quartile of four = %v, want the best, 1", v)
	}
}

// TestCompareFlagsBreaches feeds --compare a regression past its bound, a
// rise in failed operations, and an unchanged file.
func TestCompareFlagsBreaches(t *testing.T) {
	base := &resultFile{Workloads: []workloadResult{{
		Name: wStress, Ops: 100, Metrics: map[string]value{
			"points_per_s": {Value: 1000, Unit: "points/s"},
			"fp_rate":      {Value: 0.1, Unit: "ratio"},
		},
	}}}
	clone := func(mut func(*workloadResult)) *resultFile {
		w := base.Workloads[0]
		w.Metrics = map[string]value{}
		for k, v := range base.Workloads[0].Metrics {
			w.Metrics[k] = v
		}
		mut(&w)
		return &resultFile{Workloads: []workloadResult{w}}
	}
	var sb strings.Builder
	if !compareResults(base, clone(func(*workloadResult) {}), &sb) {
		t.Errorf("identical files breach:\n%s", sb.String())
	}
	bound := findMetric("points_per_s").bound
	slower := func(share float64) *resultFile {
		return clone(func(w *workloadResult) { w.Metrics["points_per_s"] = value{Value: 1000 * (1 - share)} })
	}
	if !compareResults(base, slower(bound/2), &sb) {
		t.Error("a drop of half the bound breaches")
	}
	if compareResults(base, slower(bound*1.5), &sb) {
		t.Error("a drop of one and a half times the bound passes")
	}
	if compareResults(base, clone(func(w *workloadResult) { w.Metrics["fp_rate"] = value{Value: 0.11} }), &sb) {
		t.Error("a worse fp_rate (bound 0) passes")
	}
	if compareResults(base, clone(func(w *workloadResult) { w.Failed = 1 }), &sb) {
		t.Error("a rise in failed operations passes")
	}
}
