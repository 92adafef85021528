package main

import (
	"fmt"
	"time"

	"autoloop/internal/scenario"
)

// aggregate folds a workload's iterations into its reported rows. Every row
// is computed per iteration — a rate, a size, or a latency percentile alike —
// and summarized over iterations: sizes by their median, timings by their
// undisturbed quartile, so iterations that ran beside a burst of someone
// else's work cannot move it.
type aggregate struct {
	workload string
	beyond   int

	setups []float64

	iterations int
	ops        int
	failures   []string
	table      string

	pointsPerS, cpuPerMpoint, allocPerPoint, heapMB []float64
	recoverS, diskPerPoint                          []float64
	quality                                         []scenario.Scores // the first iteration's, one per runtime
	react, query, late                              [][]float64       // one sample set per iteration

	layers map[string][]float64   // one value per traced iteration
	dists  map[string][][]float64 // one sample set per traced iteration
}

func newAggregate(workload string, beyond int) *aggregate {
	return &aggregate{
		workload: workload, beyond: beyond,
		layers: map[string][]float64{}, dists: map[string][][]float64{},
	}
}

func (a *aggregate) addSetup(d time.Duration, err error) {
	a.ops++
	if err != nil {
		a.failures = append(a.failures, fmt.Sprintf("%s: set-up: %v", a.workload, err))
		return
	}
	a.setups = append(a.setups, d.Seconds())
}

func (a *aggregate) fold(r *iterResult) {
	a.ops += r.ops
	a.failures = append(a.failures, r.failures...)
}

func (a *aggregate) addPlain(r *iterResult) {
	a.fold(r)
	a.iterations++
	if a.table == "" {
		a.table = r.table
	}
	if len(r.failures) > 0 || r.points == 0 || r.run <= 0 {
		return // a broken iteration's numbers mean nothing
	}
	a.setups = append(a.setups, r.setup.Seconds())
	pts := float64(r.points)
	a.pointsPerS = append(a.pointsPerS, pts/r.run.Seconds())
	a.cpuPerMpoint = append(a.cpuPerMpoint, r.cpu.Seconds()/(pts/1e6))
	a.allocPerPoint = append(a.allocPerPoint, float64(r.alloc)/pts)
	a.heapMB = append(a.heapMB, float64(r.heapLive)/1e6)
	a.react = append(a.react, r.react)
	a.query = append(a.query, r.query)
	a.late = append(a.late, r.late)
	if r.recover > 0 {
		a.recoverS = append(a.recoverS, r.recover.Seconds())
		a.diskPerPoint = append(a.diskPerPoint, float64(r.diskBytes)/pts)
	}
	// Runs are time-boxed, so only the first iteration (document seed =
	// --seed) is certain to run; the quality rows come from it alone and so
	// repeat exactly however many iterations fit.
	if a.quality == nil {
		a.quality = r.scores
	}
}

// reactSupportsTail reports whether the iterations so far hold enough
// reaction samples for the highest percentile reported of them.
func (a *aggregate) reactSupportsTail() bool {
	n := 0
	for _, samples := range a.react {
		n += len(samples)
	}
	return enough(n, 0.90, a.beyond) == nil
}

// addTraced folds a traced iteration: only its checks and its per-layer
// rows count, never its end-to-end numbers.
func (a *aggregate) addTraced(tr, plain *iterResult) {
	a.fold(tr)
	if len(tr.failures) > 0 || len(plain.failures) > 0 || tr.points == 0 {
		return
	}
	l := tr.layers
	pts := float64(tr.points)
	ratio := func(name string, num, den float64) {
		if den > 0 {
			l[name] = num / den
		}
	}
	ratio("telemetry.gather_ns_per_point", l["telemetry.gather_s"]*1e9, pts)
	ratio("tsdb.append_ns_per_point", l["tsdb.append_s"]*1e9, pts)
	ratio("bus.fanout_ratio", l["bus.delivered"], l["bus.published"])
	ratio("fleet.arbitrated_ratio", l["fleet.arbitrated"], l["fleet.planned"])
	ratio("fleet.plan_parallelism",
		l["core.observe_s"]+l["core.analyze_s"]+l["core.plan_s"]+l["core.execute_s"], l["fleet.tick_s"])
	ratio("analytics.step_ns", l["analytics.step_total_ns"], l["analytics.step_n"])
	ratio("wal.bytes_per_point", l["wal.bytes"], pts)
	ratio("tsdb.applywal_ns_per_point", l["tsdb.applywal_ns"], l["tsdb.applywal_points"])
	ratio("gateway.bytes_per_query", l["gateway.bytes"], l["gateway.queries"])
	ratio("gateway.gzipped_ratio", l["gateway.gzipped"], l["gateway.queries"])
	ratio("runtime.mallocs_per_point", l["runtime.mallocs"], pts)
	ratio("trace.overhead_ratio", tr.run.Seconds(), plain.run.Seconds())
	for name, v := range l {
		a.layers[name] = append(a.layers[name], v)
	}
	for name, samples := range tr.dists {
		a.dists[name] = append(a.dists[name], samples)
	}
}

// layersFromSpans turns a traced iteration's spans into the summed-seconds
// rows, and checks that the ledger reconciles: walking the run goroutine's
// tree, self times plus the wall-clock cover of each tick's parallel plan
// phases must add back up to the run's wall time. mainSpans is how many of
// the spans the run goroutine recorded itself (they come first).
func layersFromSpans(r *iterResult, mainSpans int) {
	self := selfTimes(r.spans)
	l := r.layers
	var tree int64
	negative := 0
	for i, s := range r.spans {
		dur := s.End - s.Start
		sec, selfSec := float64(dur)/1e9, float64(self[i])/1e9
		switch s.Name {
		case spanRun:
			l["sim.substrate_s"] += selfSec
		case spanSample:
			l["telemetry.sample_self_s"] += selfSec
		case spanAppend:
			l["tsdb.append_s"] += sec
			l["tsdb.journal_self_s"] += selfSec
		case spanTick:
			l["fleet.tick_s"] += sec
			l["fleet.tick_self_s"] += selfSec
			tree += dur - self[i] // the loops' phases, counted once however many ran at a time
		case spanHandle:
			// client-facing; reported as gateway.handler_ms percentiles
		default:
			l[s.Name+"_s"] += sec
		}
		if i < mainSpans {
			tree += self[i]
		}
		if self[i] < 0 {
			negative++
		}
	}
	r.check(negative == 0, "%d spans have negative self time", negative)
	if r.run > 0 {
		ratio := float64(tree) / float64(r.run)
		l["trace.self_sum_ratio"] = ratio
		r.check(ratio > 0.95 && ratio < 1.05, "run-tree self times sum to %.3f of the run's wall time", ratio)
	}
}

// result renders the reported rows. An end-to-end row whose samples cannot
// support it is a failure, not a number; a per-layer diagnostic in the same
// position — or any row of a traced run, whose iterations are half as many —
// is left out and the refusal printed.
func (a *aggregate) result(traced bool) *workloadResult {
	wr := &workloadResult{
		Name: a.workload, Iterations: a.iterations, Table: a.table, Metrics: map[string]value{},
	}
	put := func(name string, v float64, n int) {
		d := findMetric(name)
		if d == nil {
			panic("bench: metric " + name + " is not in metricDefs")
		}
		if d.appliesTo(a.workload) {
			wr.Metrics[name] = value{Value: v, Unit: d.unit, N: n}
		}
	}
	med := func(name string, vals []float64) {
		if len(vals) > 0 {
			put(name, median(vals), len(vals))
		}
	}
	timing := func(name string, vals []float64) {
		if len(vals) > 0 {
			put(name, undisturbed(vals, findMetric(name).better), len(vals))
		}
	}
	pct := func(name string, iters [][]float64, q float64) {
		d := findMetric(name)
		if d == nil || !d.appliesTo(a.workload) {
			return
		}
		v, n, err := tail(iters, q, a.beyond)
		switch {
		case err == nil:
			put(name, v, n)
		case d.kind == kindLayer || traced:
			wr.Refused = append(wr.Refused, fmt.Sprintf("%s: %v", name, err))
		default:
			a.ops++
			a.failures = append(a.failures, fmt.Sprintf("%s: %s: %v", a.workload, name, err))
		}
	}

	timing("setup_s", a.setups)
	timing("points_per_s", a.pointsPerS)
	timing("cpu_s_per_mpoint", a.cpuPerMpoint)
	med("alloc_bytes_per_point", a.allocPerPoint)
	med("heap_live_mb", a.heapMB)
	pct("react_ms_p50", a.react, 0.50)
	pct("react_ms_p90", a.react, 0.90)
	pct("query_ms_p50", a.query, 0.50)
	timing("recover_s", a.recoverS)
	med("disk_bytes_per_point", a.diskPerPoint)
	var fp, mttr []float64
	windows, detected := 0, 0
	for _, s := range a.quality {
		fp = append(fp, s.FPRate())
		mttr = append(mttr, s.MeanMTTR.Seconds())
		windows += s.Windows
		detected += s.Detected
	}
	if windows > 0 {
		put("fp_rate", mean(fp), len(fp))
		put("mttr_virtual_s", mean(mttr), len(mttr))
		put("detected_ratio", float64(detected)/float64(windows), windows)
	}

	// How late the open-loop generator ran is printed beside the latencies
	// it produced, traced or not.
	pct("gateway.query_ms_p95", a.query, 0.95)
	pct("gen.late_ms_p90", a.late, 0.90)

	if traced {
		for _, d := range metricDefs {
			if vals, ok := a.layers[d.name]; ok && d.kind == kindLayer {
				put(d.name, median(vals), len(vals))
			}
		}
		pct("pipeline.round_ms_p50", a.dists["pipeline.round_ms"], 0.50)
		pct("pipeline.round_ms_p90", a.dists["pipeline.round_ms"], 0.90)
		pct("gateway.handler_ms_p50", a.dists["gateway.handler_ms"], 0.50)
		pct("gateway.handler_ms_p95", a.dists["gateway.handler_ms"], 0.95)
		pct("cluster.arb_rtt_ms_p50", a.dists["cluster.arb_rtt_ms"], 0.50)
		pct("cluster.arb_rtt_ms_p90", a.dists["cluster.arb_rtt_ms"], 0.90)
	}
	wr.Ops = a.ops
	wr.Failed = len(a.failures)
	wr.Failures = a.failures
	return wr
}
