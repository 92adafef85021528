package main

import (
	"net/http"
	"sort"
	"sync"
	"time"

	"autoloop/internal/core"
	"autoloop/internal/gateway"
	"autoloop/internal/telemetry"
	"autoloop/internal/tsdb"
)

// Span names. A span's layer is the part before the dot.
const (
	spanRun      = "run"
	spanSample   = "telemetry.sample"
	spanGather   = "telemetry.gather"
	spanAppend   = "tsdb.append"
	spanWALApp   = "wal.append"
	spanSnapshot = "wal.snapshot"
	spanTick     = "fleet.tick"
	spanObserve  = "core.observe"
	spanAnalyze  = "core.analyze"
	spanPlan     = "core.plan"
	spanExecute  = "core.execute"
	spanHandle   = "gateway.handle"
	spanQuery    = "tsdb.query"
)

// span is one timed call into a layer. Parent is -1 for a root; Round is the
// sampling round it belongs to (-1 outside any round). Times are nanoseconds
// since the recorder's epoch.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Round  int32  `json:"round"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps one traced iteration's spans in memory. The run goroutine
// (the simulator thread that samples, appends, ticks, and executes) records
// through begin/end on a stack. Loop plan phases run on the fleet's worker
// goroutines, so each loop records into its own leafBuf under the open tick
// span; gateway handlers run on server goroutines and record into side under
// its mutex. merge folds the three into one id space.
type recorder struct {
	epoch time.Time

	spans []span
	stack []int32
	round int32

	// tick is the open fleet.tick span id, written on the run goroutine
	// before the fleet fans out (the go statement orders it for workers).
	tick int32

	leaves []*leafBuf

	sideMu  sync.Mutex
	side    []span
	sideCur int32 // index in side of the open handler span, -1 when none
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), round: -1, tick: -1, sideCur: -1}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span under the innermost open span on the run goroutine.
func (r *recorder) begin(name string) int32 {
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Round: r.round, Start: r.now()})
	r.stack = append(r.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (r *recorder) end(id int32) {
	if n := len(r.stack); n == 0 || r.stack[n-1] != id {
		panic("bench: span closed out of order")
	}
	r.spans[id].End = r.now()
	r.stack = r.stack[:len(r.stack)-1]
}

// leafBuf holds one loop's phase spans. A loop is planned by exactly one
// worker per round and executed on the run goroutine after the barrier, so
// the buffer is never written concurrently.
type leafBuf struct {
	rec   *recorder
	spans []span
}

func (r *recorder) newLeaf() *leafBuf {
	lb := &leafBuf{rec: r}
	r.leaves = append(r.leaves, lb)
	return lb
}

func (lb *leafBuf) add(name string, start int64) {
	lb.spans = append(lb.spans, span{
		Name: name, Parent: lb.rec.tick, Round: lb.rec.round, Start: start, End: lb.rec.now(),
	})
}

// merge returns every span in one id space: run-goroutine spans keep their
// ids, leaf and side spans are numbered after them.
func (r *recorder) merge() []span {
	out := append([]span(nil), r.spans...)
	for _, lb := range r.leaves {
		for _, s := range lb.spans {
			s.ID = int32(len(out))
			out = append(out, s)
		}
	}
	r.sideMu.Lock()
	base := int32(len(out))
	for i, s := range r.side {
		s.ID = base + int32(i)
		if s.Parent >= 0 {
			s.Parent += base
		}
		out = append(out, s)
	}
	r.sideMu.Unlock()
	return out
}

// selfTimes returns each span's duration minus the part of it its children
// cover. Children may overlap (parallel plan phases under one tick), so the
// covered part is the union of their intervals, clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		p := &spans[i]
		self[i] = p.End - p.Start
		kids := children[p.ID]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), p.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > p.End {
				hi = p.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// timedCollector records one substrate's Collect as a child of the round's
// gather span. telemetry.Registry calls its collectors back to back, so the
// first opens the gather span and the last closes it.
type timedCollector struct {
	rec         *recorder
	inner       telemetry.Collector
	name        string
	first, last bool
	gather      *int32 // the open gather span, shared by one registry's collectors
}

func (c *timedCollector) Collect(now time.Duration) []telemetry.Point {
	if c.first {
		*c.gather = c.rec.begin(spanGather)
	}
	id := c.rec.begin(c.name)
	pts := c.inner.Collect(now)
	c.rec.end(id)
	if c.last {
		c.rec.end(*c.gather)
	}
	return pts
}

// timedSink records AppendBatch and counts what the sink was handed, which
// the correctness oracle compares against Report.Points.
type timedSink struct {
	rec    *recorder
	inner  telemetry.Sink
	points uint64
	errs   uint64
}

func (s *timedSink) AppendBatch(pts []telemetry.Point) error {
	id := s.rec.begin(spanAppend)
	err := s.inner.AppendBatch(pts)
	s.rec.end(id)
	s.points += uint64(len(pts))
	if err != nil {
		s.errs++
	}
	return err
}

// timedTicker records the control round and its stamp-to-return time.
type timedTicker struct {
	rec     *recorder
	inner   telemetry.Ticker
	stamp   *time.Time // the round's pre-sample stamp
	roundMS []float64
}

func (t *timedTicker) Tick(now time.Duration) {
	id := t.rec.begin(spanTick)
	t.rec.tick = id
	t.inner.Tick(now)
	t.rec.end(id)
	t.rec.tick = -1
	t.roundMS = append(t.roundMS, float64(time.Since(*t.stamp))/1e6)
}

// The four loop-phase decorators wrap core.Loop's exported M/A/P/E fields.

type timedMonitor struct {
	lb    *leafBuf
	inner core.Monitor
}

func (m timedMonitor) Observe(now time.Duration) (core.Observation, error) {
	start := m.lb.rec.now()
	obs, err := m.inner.Observe(now)
	m.lb.add(spanObserve, start)
	return obs, err
}

type timedAnalyzer struct {
	lb    *leafBuf
	inner core.Analyzer
}

func (a timedAnalyzer) Analyze(now time.Duration, obs core.Observation) (core.Symptoms, error) {
	start := a.lb.rec.now()
	sym, err := a.inner.Analyze(now, obs)
	a.lb.add(spanAnalyze, start)
	return sym, err
}

type timedPlanner struct {
	lb    *leafBuf
	inner core.Planner
}

func (p timedPlanner) Plan(now time.Duration, sym core.Symptoms) (core.Plan, error) {
	start := p.lb.rec.now()
	plan, err := p.inner.Plan(now, sym)
	p.lb.add(spanPlan, start)
	return plan, err
}

type timedExecutor struct {
	lb    *leafBuf
	inner core.Executor
}

func (e timedExecutor) Execute(now time.Duration, a core.Action) (core.ActionResult, error) {
	start := e.lb.rec.now()
	res, err := e.inner.Execute(now, a)
	e.lb.add(spanExecute, start)
	return res, err
}

// wrapLoops decorates every loop's four phases.
func (r *recorder) wrapLoops(loops []*core.Loop) {
	for _, l := range loops {
		lb := r.newLeaf()
		l.M = timedMonitor{lb, l.M}
		l.A = timedAnalyzer{lb, l.A}
		l.P = timedPlanner{lb, l.P}
		l.E = timedExecutor{lb, l.E}
	}
}

// timedJournal records the WAL append the tsdb makes under its shard lock.
// Every journaled append happens on the run goroutine.
type timedJournal struct {
	rec   *recorder
	inner tsdb.Journaler
}

func (j *timedJournal) Append(kind uint8, payload []byte) (uint64, error) {
	id := j.rec.begin(spanWALApp)
	seq, err := j.inner.Append(kind, payload)
	j.rec.end(id)
	return seq, err
}

// sideSpan records one span from a server goroutine. A store read nests
// under the open handler span: the workloads use one query connection, so at
// most one query handler is open at a time.
func (r *recorder) sideBegin(name string, handler bool) int32 {
	r.sideMu.Lock()
	defer r.sideMu.Unlock()
	idx := int32(len(r.side))
	parent := int32(-1)
	if !handler {
		parent = r.sideCur
	}
	r.side = append(r.side, span{Name: name, Parent: parent, Round: -1, Start: r.now()})
	if handler {
		r.sideCur = idx
	}
	return idx
}

func (r *recorder) sideEnd(idx int32, handler bool) {
	r.sideMu.Lock()
	r.side[idx].End = r.now()
	if handler && r.sideCur == idx {
		r.sideCur = -1
	}
	r.sideMu.Unlock()
}

// timedStore times the store reads the gateway's query plane makes; the
// other Querier methods pass through the embedded store.
type timedStore struct {
	gateway.Store
	rec *recorder
}

func (s timedStore) QueryVisit(name string, m telemetry.Labels, from, to time.Duration, visit telemetry.SeriesVisitor) {
	idx := s.rec.sideBegin(spanQuery, false)
	s.Store.QueryVisit(name, m, from, to, visit)
	s.rec.sideEnd(idx, false)
}

func (s timedStore) LatestInto(buf []telemetry.Point, name string, m telemetry.Labels) []telemetry.Point {
	idx := s.rec.sideBegin(spanQuery, false)
	buf = s.Store.LatestInto(buf, name, m)
	s.rec.sideEnd(idx, false)
	return buf
}

func (s timedStore) QueryRollup(metric string, m telemetry.Labels, step time.Duration, agg tsdb.Agg, from, to time.Duration) ([]telemetry.Series, bool) {
	idx := s.rec.sideBegin(spanQuery, false)
	out, ok := s.Store.QueryRollup(metric, m, step, agg, from, to)
	s.rec.sideEnd(idx, false)
	return out, ok
}

// timedHandler times the gateway's query endpoint from outside its mux and
// counts response bytes on the wire.
type timedHandler struct {
	rec   *recorder
	inner http.Handler

	mu        sync.Mutex
	handlerMS []float64
	bytes     int64
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/query" {
		h.inner.ServeHTTP(w, r) // the SSE stream needs the bare Flusher
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	idx := h.rec.sideBegin(spanHandle, true)
	start := time.Now()
	h.inner.ServeHTTP(cw, r)
	ms := float64(time.Since(start)) / 1e6
	h.rec.sideEnd(idx, true)
	h.mu.Lock()
	h.handlerMS = append(h.handlerMS, ms)
	h.bytes += cw.n
	h.mu.Unlock()
}
