package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Workload names, in the order the harness runs them.
const (
	wStress  = "stress10k"
	wFleet   = "fleet-dense"
	wDurable = "durable-serve"
	wCluster = "cluster3"
)

var workloadNames = []string{wStress, wFleet, wDurable, wCluster}

// metricKind says where a metric is measured and how it is judged.
type metricKind int

const (
	// kindE2E rows are measured with tracing off on every workload, are
	// never zero, and are BENCHMARK.json's end_to_end list.
	kindE2E metricKind = iota
	// kindScoped rows are end-to-end rows too — measured with tracing off
	// and bounded by --compare — but BENCHMARK.json lists them under
	// per_layer: only some workloads exercise them (its end_to_end rows every
	// workload must emit), or, for react_ms_p90, runs of one commit on a
	// shared host do not repeat within the largest bound it allows.
	kindScoped
	// kindLayer rows come from the traced pass and have no bound.
	kindLayer
)

// metricDef is one row of the ledger. bound is the share of the baseline by
// which the row may get worse before --compare flags it.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	kind   metricKind
	on     []string // workloads that exercise it; nil means all
}

var (
	onQuality = []string{wStress, wFleet}
	onServe   = []string{wDurable, wCluster}
	onDurable = []string{wDurable}
	onCluster = []string{wCluster}
)

// metricDefs is the one table of every metric name the harness emits; the
// smoke test holds BENCHMARK.json to it.
var metricDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25, kindE2E, nil},
	{"points_per_s", "points/s", "higher", 0.25, kindE2E, nil},
	{"react_ms_p50", "ms", "lower", 0.25, kindE2E, nil},
	{"react_ms_p90", "ms", "lower", 0.25, kindScoped, nil}, // the p50's tail, so beside it
	{"cpu_s_per_mpoint", "s", "lower", 0.25, kindE2E, nil},
	{"alloc_bytes_per_point", "B", "lower", 0.10, kindE2E, nil},
	{"heap_live_mb", "MB", "lower", 0.05, kindE2E, nil},

	{"query_ms_p50", "ms", "lower", 0.25, kindScoped, onServe},
	{"recover_s", "s", "lower", 0.10, kindScoped, onDurable},
	{"disk_bytes_per_point", "B", "lower", 0.01, kindScoped, onDurable},
	{"fp_rate", "ratio", "lower", 0, kindScoped, onQuality},
	{"mttr_virtual_s", "s", "lower", 0, kindScoped, onQuality},
	{"detected_ratio", "ratio", "higher", 0, kindScoped, onQuality},

	{"sim.substrate_s", "s", "lower", 0, kindLayer, nil},
	{"sim.events", "count", "lower", 0, kindLayer, nil},
	{"telemetry.gather_s", "s", "lower", 0, kindLayer, nil},
	{"telemetry.gather_ns_per_point", "ns", "lower", 0, kindLayer, nil},
	{"hw.collect_s", "s", "lower", 0, kindLayer, nil},
	{"facility.collect_s", "s", "lower", 0, kindLayer, nil},
	{"pfs.collect_s", "s", "lower", 0, kindLayer, nil},
	{"telemetry.samples", "count", "higher", 0, kindLayer, nil},
	{"telemetry.points", "count", "higher", 0, kindLayer, nil},
	{"telemetry.sample_self_s", "s", "lower", 0, kindLayer, nil},
	{"bus.published", "count", "lower", 0, kindLayer, nil},
	{"bus.delivered", "count", "lower", 0, kindLayer, nil},
	{"bus.fanout_ratio", "ratio", "lower", 0, kindLayer, nil},
	{"tsdb.append_s", "s", "lower", 0, kindLayer, nil},
	{"tsdb.append_ns_per_point", "ns", "lower", 0, kindLayer, nil},
	{"tsdb.journal_self_s", "s", "lower", 0, kindLayer, nil},
	{"tsdb.series", "count", "lower", 0, kindLayer, nil},
	{"tsdb.append_errs", "count", "lower", 0, kindLayer, nil},
	{"wal.append_s", "s", "lower", 0, kindLayer, onDurable},
	{"wal.records", "count", "lower", 0, kindLayer, onDurable},
	{"wal.bytes", "B", "lower", 0, kindLayer, onDurable},
	{"wal.bytes_per_point", "B", "lower", 0, kindLayer, onDurable},
	{"wal.fsyncs", "count", "lower", 0, kindLayer, onDurable},
	{"wal.sync_s", "s", "lower", 0, kindLayer, onDurable},
	{"wal.snapshot_s", "s", "lower", 0, kindLayer, onDurable},
	{"wal.snapshot_bytes", "B", "lower", 0, kindLayer, onDurable},
	{"wal.compacted_segments", "count", "higher", 0, kindLayer, onDurable},
	{"wal.replay_s", "s", "lower", 0, kindLayer, onDurable},
	{"wal.replay_records", "count", "lower", 0, kindLayer, onDurable},
	{"tsdb.restore_s", "s", "lower", 0, kindLayer, onDurable},
	{"tsdb.applywal_ns_per_point", "ns", "lower", 0, kindLayer, onDurable},
	{"core.observe_s", "s", "lower", 0, kindLayer, nil},
	{"core.analyze_s", "s", "lower", 0, kindLayer, nil},
	{"core.plan_s", "s", "lower", 0, kindLayer, nil},
	{"core.execute_s", "s", "lower", 0, kindLayer, nil},
	{"core.ticks", "count", "higher", 0, kindLayer, nil},
	{"core.findings", "count", "lower", 0, kindLayer, nil},
	{"core.actions_planned", "count", "lower", 0, kindLayer, nil},
	{"core.actions_executed", "count", "lower", 0, kindLayer, nil},
	{"core.actions_vetoed", "count", "lower", 0, kindLayer, nil},
	{"core.errors", "count", "lower", 0, kindLayer, nil},
	{"fleet.tick_s", "s", "lower", 0, kindLayer, nil},
	{"fleet.tick_self_s", "s", "lower", 0, kindLayer, nil},
	{"fleet.rounds", "count", "higher", 0, kindLayer, nil},
	{"fleet.conflicts", "count", "lower", 0, kindLayer, nil},
	{"fleet.arbitrated_ratio", "ratio", "lower", 0, kindLayer, nil},
	{"fleet.plan_parallelism", "ratio", "higher", 0, kindLayer, nil},
	{"pipeline.round_ms_p50", "ms", "lower", 0, kindLayer, nil},
	{"pipeline.round_ms_p90", "ms", "lower", 0, kindLayer, nil},
	{"analytics.step_ns", "ns", "lower", 0, kindLayer, nil},
	{"gateway.handler_ms_p50", "ms", "lower", 0, kindLayer, onServe},
	{"gateway.handler_ms_p95", "ms", "lower", 0, kindLayer, onServe},
	{"gateway.query_ms_p95", "ms", "lower", 0, kindLayer, onServe},
	{"gateway.bytes_per_query", "B", "lower", 0, kindLayer, onServe},
	{"gateway.gzipped_ratio", "ratio", "higher", 0, kindLayer, onServe},
	{"gateway.coalesced", "count", "higher", 0, kindLayer, onServe},
	{"gateway.errors", "count", "lower", 0, kindLayer, onServe},
	{"gateway.sse_events", "count", "higher", 0, kindLayer, onDurable},
	{"gateway.sse_dropped", "count", "lower", 0, kindLayer, onDurable},
	{"tsdb.query_s", "s", "lower", 0, kindLayer, onDurable},
	{"gen.late_ms_p90", "ms", "lower", 0, kindLayer, onServe},
	{"cluster.arb_rtt_ms_p50", "ms", "lower", 0, kindLayer, onCluster},
	{"cluster.arb_rtt_ms_p90", "ms", "lower", 0, kindLayer, onCluster},
	{"cluster.digests", "count", "lower", 0, kindLayer, onCluster},
	{"cluster.denied", "count", "lower", 0, kindLayer, onCluster},
	{"cluster.degraded_rounds", "count", "lower", 0, kindLayer, onCluster},
	{"cluster.fanouts", "count", "lower", 0, kindLayer, onCluster},
	{"cluster.scatter_partials", "count", "lower", 0, kindLayer, onCluster},
	{"cluster.placed", "count", "higher", 0, kindLayer, onCluster},
	{"scenario.assemble_s", "s", "lower", 0, kindLayer, nil},
	{"control.spawn_s", "s", "lower", 0, kindLayer, nil},
	{"scenario.score_s", "s", "lower", 0, kindLayer, nil},
	{"runtime.gc_cycles", "count", "lower", 0, kindLayer, nil},
	{"runtime.gc_pause_ms", "ms", "lower", 0, kindLayer, nil},
	{"runtime.mallocs_per_point", "count", "lower", 0, kindLayer, nil},
	{"trace.overhead_ratio", "ratio", "lower", 0, kindLayer, nil},
	{"trace.self_sum_ratio", "ratio", "higher", 0, kindLayer, nil},
}

func (d *metricDef) appliesTo(workload string) bool {
	return d.on == nil || slices.Contains(d.on, workload)
}

func findMetric(name string) *metricDef {
	for i := range metricDefs {
		if metricDefs[i].name == name {
			return &metricDefs[i]
		}
	}
	return nil
}

// value is one reported metric: n is how many samples (for a percentile) or
// iterations (for a row summarized over iterations) stand behind it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// tailFloor is how many samples must lie beyond a reported percentile.
const tailFloor = 10

// enough refuses a percentile of n samples unless at least beyond of them
// lie past it, so a p90 of 30 samples cannot be printed as if it meant
// something.
func enough(n int, q float64, beyond int) error {
	if past := int(math.Floor(float64(n)*(1-q) + 1e-9)); n == 0 || past < beyond {
		return fmt.Errorf("p%g of %d samples has fewer than %d beyond it", q*100, n, beyond)
	}
	return nil
}

// quantile returns the q-quantile of samples (nearest rank), or the refusal
// — an error, never a NaN — of enough.
func quantile(samples []float64, q float64, beyond int) (float64, error) {
	n := len(samples)
	if err := enough(n, q, beyond); err != nil {
		return 0, err
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], nil
}

// tail reports a latency percentile over several iterations' sample sets:
// the percentile of each iteration, then the undisturbed quartile of those.
// The sample floor applies to the iterations together. n is the total
// sample count.
func tail(iters [][]float64, q float64, beyond int) (v float64, n int, err error) {
	var each []float64
	for _, samples := range iters {
		n += len(samples)
		if p, err := quantile(samples, q, 0); err == nil {
			each = append(each, p)
		}
	}
	if err := enough(n, q, beyond); err != nil {
		return 0, n, err
	}
	return undisturbed(each, "lower"), n, nil
}

// undisturbed summarizes one timing per iteration as the value a quarter of
// the way in from the better end (nearest rank). A shared host only ever
// slows an iteration down, and for seconds to minutes at a time: the middle
// of a run's iterations moves with how busy the neighbours were, the better
// quartile is the program on the machine it was given.
func undisturbed(vals []float64, better string) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if better == "higher" {
		slices.Reverse(s)
	}
	return s[(len(s)+3)/4-1]
}

// median is the middle of a handful of per-iteration sizes or counts; it has
// no sample floor because each value already summarizes a whole iteration.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}
