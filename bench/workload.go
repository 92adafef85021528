package main

import (
	"embed"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"autoloop/internal/analytics"
	"autoloop/internal/bus"
	"autoloop/internal/cases"
	"autoloop/internal/control"
	"autoloop/internal/core"
	"autoloop/internal/fleet"
	"autoloop/internal/scenario"
	"autoloop/internal/telemetry"
	"autoloop/internal/tsdb"
)

// The frozen inputs: one scenario document per workload and the score table
// each produces at document seed 1. The program under test only ever sees
// these documents (with the seed field replaced) and generated requests.
//
//go:embed workloads/*.json golden/*.txt
var frozen embed.FS

// tweak is what the smoke test changes; the command line cannot.
type tweak struct {
	// horizon, when positive, cuts every document's horizon down.
	horizon time.Duration
	// golden, when non-nil, replaces the embedded golden tables.
	golden map[string]string
	// scratch is where durable-serve keeps its WAL directories.
	scratch string
	// beyond is the percentile sample floor (tailFloor outside the test).
	beyond int
	// lateLimit is how late past its due time a query answer still counts
	// (lateLimit outside the test, which must also pass under -race).
	lateLimit time.Duration
	// wrapJournal, when set, sits between the tsdb and the WAL so the test
	// can drop a record and watch the recovery oracle catch it.
	wrapJournal func(tsdb.Journaler) tsdb.Journaler
}

// iterResult is everything one iteration of one workload measured.
type iterResult struct {
	setup    time.Duration
	run      time.Duration
	points   uint64
	cpu      time.Duration
	alloc    uint64
	heapLive uint64

	react []float64 // ms, one per sampling round that actuated: stamp to its last loop.<name>.execute envelope
	query []float64 // ms from due time, one per validated /v1/query
	late  []float64 // ms the open-loop generator ran behind schedule

	recover   time.Duration
	diskBytes uint64
	scores    []scenario.Scores // one per assembled runtime

	table string // score table plus per-loop counters: the determinism oracle

	ops      int
	failures []string

	// Traced iterations only.
	layers map[string]float64   // per-layer sums, counts and ratios
	dists  map[string][]float64 // per-layer latency samples, pooled across iterations
	spans  []span
}

func newIterResult() *iterResult {
	return &iterResult{layers: map[string]float64{}, dists: map[string][]float64{}}
}

func (r *iterResult) failf(format string, args ...interface{}) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// check counts one correctness check as an attempted operation.
func (r *iterResult) check(ok bool, format string, args ...interface{}) {
	r.ops++
	if !ok {
		r.failf(format, args...)
	}
}

// iter is one iteration's context.
type iter struct {
	tw       tweak
	workload string
	seed     int64     // the document seed: --seed plus the iteration index
	rec      *recorder // nil when tracing is off
	res      *iterResult
}

// rig is one workload's way of standing the stack up, driving it, and
// checking it. setup is timed as setup_s; run is the measured phase; finish
// scores, recovers and checks outside it; close releases ports, goroutines
// and files.
type rig interface {
	setup() error
	run()
	finish() error
	close()
}

func newRig(it *iter) rig {
	switch it.workload {
	case wDurable:
		return &durableRig{it: it}
	case wCluster:
		return &clusterRig{it: it}
	}
	return &scenarioRig{it: it}
}

// loadSpec decodes a workload's frozen document through the product's own
// strict decoder and stamps the iteration's seed on it.
func loadSpec(it *iter) (*scenario.Spec, error) {
	data, err := frozen.ReadFile("workloads/" + it.workload + ".json")
	if err != nil {
		return nil, err
	}
	spec, err := scenario.Decode(data)
	if err != nil {
		return nil, err
	}
	spec.Seed = it.seed
	if it.tw.horizon > 0 {
		cutHorizon(spec, it.tw.horizon)
	}
	return spec, nil
}

// cutHorizon shortens a document for the smoke test, dropping what would
// fall past the new horizon.
func cutHorizon(spec *scenario.Spec, horizon time.Duration) {
	spec.Horizon = control.Duration(horizon)
	keep := spec.Injections[:0]
	for _, inj := range spec.Injections {
		if inj.At.D() <= horizon {
			keep = append(keep, inj)
		}
	}
	spec.Injections = keep
	wins := spec.Maintenance[:0]
	for _, w := range spec.Maintenance {
		if w.At.D() < horizon {
			wins = append(wins, w)
		}
	}
	spec.Maintenance = wins
}

// cadence repeats scenario.Assemble's defaulting of the sampling period and
// the control-round divisor; the traced pipeline must drive the fleet on the
// same rounds the stock one would.
func cadence(spec *scenario.Spec) (sample time.Duration, everyN int) {
	sample = spec.SampleEvery.D()
	if sample <= 0 {
		sample = 30 * time.Second
	}
	round := spec.RoundEvery.D()
	if round <= 0 {
		round = time.Minute
		if round < sample {
			round = sample
		}
	}
	if everyN = int(round / sample); everyN < 1 {
		everyN = 1
	}
	return sample, everyN
}

// node is one assembled runtime under measurement: the stack scenario.Assemble
// built plus the harness's outside view of it.
type node struct {
	it   *iter
	spec *scenario.Spec
	rt   *scenario.Runtime

	stamp  time.Time    // wall time just before the current sampling round
	vnow   atomic.Int64 // virtual time of that round, for the query generators
	rounds int
	acted  float64 // ms from stamp to the current round's latest execute envelope; 0 until it actuates
	react  []float64

	// Traced only.
	sink       *timedSink
	ticker     *timedTicker
	sampleSpan int32
}

// assemble builds the stack from the document and attaches the probes.
// publish, when set, also fans every sampled batch out on the bus under that
// source, as modad does.
func assemble(it *iter, spec *scenario.Spec, publish string) (*node, error) {
	rt, err := scenario.Assemble(spec, cases.NewRegistry())
	if err != nil {
		return nil, err
	}
	n := &node{it: it, spec: spec, rt: rt, sampleSpan: -1}
	sample, everyN := cadence(spec)
	horizon := spec.Horizon.D()

	if rec := it.rec; rec != nil {
		n.traceRuntime(rec, everyN, publish)
	} else if publish != "" {
		rt.Pipe.PublishTo(rt.Bus, publish)
	}

	// The untraced probes: one event just before each sampling round, and a
	// subscription that wall-stamps each action the loops execute. A round
	// that actuates is one reaction sample, timed to its last action: rounds
	// weigh the same however many actions they carry.
	rt.Engine.Every(sample-1, sample, func() bool {
		n.closeRound()
		if rt.Engine.Now() >= horizon {
			return false // no sampling round follows
		}
		n.stamp = time.Now()
		n.vnow.Store(int64(rt.Engine.Now()))
		n.rounds++
		if rec := it.rec; rec != nil {
			rec.round++
			n.sampleSpan = rec.begin(spanSample)
		}
		return true
	})
	rt.Bus.Subscribe("loop.*", func(env bus.Envelope) {
		if strings.HasSuffix(env.Topic, ".execute") {
			n.acted = float64(time.Since(n.stamp)) / 1e6
		}
	})
	if rec := it.rec; rec != nil {
		// Scheduled after the sampling event, so at each round's timestamp
		// it runs once Pipeline.Sample has returned.
		rt.Engine.Every(sample, sample, func() bool {
			if n.sampleSpan >= 0 {
				rec.end(n.sampleSpan)
				n.sampleSpan = -1
			}
			return rt.Engine.Now() < horizon
		})
	}
	return n, nil
}

// closeRound files the finished round's reaction time, if it actuated.
func (n *node) closeRound() {
	if n.acted > 0 {
		n.react = append(n.react, n.acted)
		n.acted = 0
	}
}

// traceRuntime swaps the runtime's pipeline for one built over timing
// decorators. The sampling cadence reads rt.Pipe at call time, and the
// scorer reads its Stats, so the swap is complete.
func (n *node) traceRuntime(rec *recorder, everyN int, publish string) {
	rt := n.rt
	type named struct {
		c    telemetry.Collector
		name string
	}
	cs := []named{{rt.Cluster.Collector(), "hw.collect"}}
	if rt.Plant != nil {
		cs = append(cs, named{rt.Plant.Collector(), "facility.collect"})
	}
	cs = append(cs, named{rt.FS.Collector(), "pfs.collect"})
	reg := telemetry.NewRegistry()
	gather := new(int32)
	for i, c := range cs {
		reg.Register(&timedCollector{
			rec: rec, inner: c.c, name: c.name,
			first: i == 0, last: i == len(cs)-1, gather: gather,
		})
	}
	n.sink = &timedSink{rec: rec, inner: rt.DB}
	n.ticker = &timedTicker{rec: rec, inner: rt.Ctl, stamp: &n.stamp}
	pipe := telemetry.NewPipeline(reg, n.sink).Drive(n.ticker, everyN)
	if publish != "" {
		pipe.PublishTo(rt.Bus, publish)
	}
	rt.Pipe = pipe
	rec.wrapLoops(rt.Ctl.Coordinator().Loops())
}

// counters renders the loops' and the fleet's deterministic counters. They
// extend the score table so the traced-equals-untraced and golden checks
// also cover every loop's tick, finding and action counts.
func counters(loops []*core.Loop, fm fleet.Metrics) string {
	var b strings.Builder
	for _, l := range loops {
		m := l.Metrics()
		fmt.Fprintf(&b, "loop %s: ticks %d findings %d planned %d executed %d honored %d vetoed %d arbitrated %d errors %d\n",
			l.Name, m.Ticks, m.Findings, m.PlannedActions, m.ExecutedActions, m.HonoredActions,
			m.VetoedActions, m.ArbitratedActions, m.Errors)
	}
	fmt.Fprintf(&b, "fleet: rounds %d planned %d arbitrated %d conflicts %d remote %d\n",
		fm.Rounds, fm.Planned, fm.Arbitrated, fm.Conflicts, fm.Remote)
	return b.String()
}

// score finishes the scenario (rt.Run finds the engine already at the
// horizon, so all it adds is the scoring pass) and folds the runtime's
// outcome into the iteration result.
func (n *node) score() {
	res := n.it.res
	t0 := time.Now()
	rep, err := n.rt.Run()
	if err != nil {
		res.check(false, "%s: %v", n.spec.Name, err)
		return
	}
	scoreS := time.Since(t0).Seconds()
	loops := n.rt.Ctl.Coordinator().Loops()
	fm := n.rt.Ctl.Coordinator().Metrics()
	res.table += rep.Table() + counters(loops, fm)
	res.points += rep.Points
	res.scores = append(res.scores, rep.Scores)
	n.closeRound()
	res.react = append(res.react, n.react...)

	// Attempted: every sampling round and every loop tick. Failed: rounds
	// whose sink refused the batch, ticks whose phase errored.
	_, _, sinkErrs := n.rt.Pipe.Stats()
	ticks, loopErrs := 0, 0
	var lm core.Metrics
	for _, l := range loops {
		m := l.Metrics()
		ticks += m.Ticks
		loopErrs += m.Errors
		lm.Findings += m.Findings
		lm.PlannedActions += m.PlannedActions
		lm.ExecutedActions += m.ExecutedActions
		lm.VetoedActions += m.VetoedActions
	}
	res.ops += int(rep.Samples) + ticks
	if sinkErrs > 0 {
		res.failf("%s: %d sampling rounds hit a sink error: %v", n.spec.Name, sinkErrs, n.rt.Pipe.Err())
	}
	if loopErrs > 0 {
		res.failf("%s: %d loop phase errors", n.spec.Name, loopErrs)
	}

	if n.it.rec != nil {
		res.check(n.sink.points == rep.Points, "%s: report counts %d points, the sink saw %d",
			n.spec.Name, rep.Points, n.sink.points)
		l := res.layers
		l["scenario.score_s"] += scoreS
		l["sim.events"] += float64(n.rt.Engine.Executed()) - 2*float64(n.rounds) // less the harness's own stamps
		l["telemetry.samples"] += float64(rep.Samples)
		l["telemetry.points"] += float64(rep.Points)
		l["tsdb.series"] += float64(n.rt.DB.NumSeries())
		l["tsdb.append_errs"] += float64(n.sink.errs)
		pub, del := n.rt.Bus.Stats()
		l["bus.published"] += float64(pub)
		l["bus.delivered"] += float64(del)
		l["core.ticks"] += float64(ticks)
		l["core.findings"] += float64(lm.Findings)
		l["core.actions_planned"] += float64(lm.PlannedActions)
		l["core.actions_executed"] += float64(lm.ExecutedActions)
		l["core.actions_vetoed"] += float64(lm.VetoedActions)
		l["core.errors"] += float64(loopErrs)
		l["fleet.rounds"] += float64(fm.Rounds)
		l["fleet.conflicts"] += float64(fm.Conflicts)
		l["fleet.planned"] += float64(fm.Planned)
		l["fleet.arbitrated"] += float64(fm.Arbitrated)
		res.dists["pipeline.round_ms"] = append(res.dists["pipeline.round_ms"], n.ticker.roundMS...)
		steps, ns := detectorProbe(n.rt.DB, n.spec.Horizon.D())
		l["analytics.step_n"] += steps
		l["analytics.step_total_ns"] += ns
	}
}

// detectorProbe steps the streaming detectors over the run's own
// temperature and OST-latency series and returns (steps, total ns) — the
// per-reading cost an Analyze phase built on them would pay.
func detectorProbe(db *tsdb.DB, horizon time.Duration) (steps, ns float64) {
	for _, metric := range []string{"node.temp.celsius", "pfs.ost.lat_ms"} {
		db.QueryVisit(metric, nil, 0, horizon, func(_ telemetry.Labels, samples []telemetry.Sample) {
			if steps >= 1<<20 {
				return // a million steps is plenty; stress10k has 600k temperature readings alone
			}
			dets := []analytics.Detector{
				analytics.NewZScore(32, 3, 8), analytics.NewMAD(32, 4, 8), analytics.NewCUSUM(8, 0.5, 5),
			}
			t0 := time.Now()
			for _, s := range samples {
				for _, d := range dets {
					d.Step(s.Value)
				}
			}
			ns += float64(time.Since(t0))
			steps += float64(len(samples) * len(dets))
		})
	}
	return steps, ns
}

// usage is a resource reading bracketing the run phase.
type usage struct {
	cpu time.Duration
	mem runtime.MemStats
}

func readUsage() usage {
	var u usage
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	runtime.ReadMemStats(&u.mem)
	return u
}

// measure runs fn as the iteration's run phase, bracketing it with wall,
// CPU and allocator readings.
func (it *iter) measure(fn func()) {
	res := it.res
	runtime.GC() // start every run phase from a collected heap
	before := readUsage()
	var root int32
	if it.rec != nil {
		root = it.rec.begin(spanRun)
	}
	t0 := time.Now()
	fn()
	res.run = time.Since(t0)
	if it.rec != nil {
		it.rec.end(root)
	}
	after := readUsage()
	res.cpu = after.cpu - before.cpu
	res.alloc = after.mem.TotalAlloc - before.mem.TotalAlloc
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	res.heapLive = live.HeapAlloc
	if it.rec != nil {
		res.layers["runtime.gc_cycles"] = float64(after.mem.NumGC - before.mem.NumGC)
		res.layers["runtime.gc_pause_ms"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6
		res.layers["runtime.mallocs"] = float64(after.mem.Mallocs - before.mem.Mallocs)
	}
}

// spawnCost reports how much of Assemble is spawning the fleet: the same
// document assembled once more without its loops, and the difference.
func spawnCost(it *iter, spec *scenario.Spec, full time.Duration) {
	bare := *spec
	bare.Loops = nil
	t0 := time.Now()
	_, err := scenario.Assemble(&bare, cases.NewRegistry())
	d := time.Since(t0)
	if err != nil || d > full {
		d = full
	}
	it.res.layers["scenario.assemble_s"] += full.Seconds()
	it.res.layers["control.spawn_s"] += (full - d).Seconds()
}

// scenarioRig runs one document in memory on virtual time, flat out:
// stress10k and fleet-dense.
type scenarioRig struct {
	it *iter
	n  *node
}

func (r *scenarioRig) setup() error {
	spec, err := loadSpec(r.it)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if r.n, err = assemble(r.it, spec, ""); err != nil {
		return err
	}
	if r.it.rec != nil {
		spawnCost(r.it, spec, time.Since(t0))
	}
	return nil
}

func (r *scenarioRig) run() {
	r.it.measure(func() { r.n.rt.Engine.RunUntil(r.n.spec.Horizon.D()) })
}

func (r *scenarioRig) finish() error {
	r.n.score()
	return nil
}

func (r *scenarioRig) close() {}

// goldenTable returns the frozen table for a workload at document seed 1.
func goldenTable(tw tweak, workload string) (string, error) {
	if tw.golden != nil {
		t, ok := tw.golden[workload]
		if !ok {
			return "", fmt.Errorf("no golden table for %s", workload)
		}
		return t, nil
	}
	data, err := frozen.ReadFile("golden/" + workload + "-seed1.txt")
	return string(data), err
}
