package control

import (
	"sync"
	"sync/atomic"
	"time"

	"autoloop/internal/telemetry"
)

// roundView is the telemetry.Querier a Service hands the loops it spawns,
// and the memo of its control rounds: a round reading (see Reading) is
// computed at most once per round per distinct key, by the first loop that
// asks for it, and every other loop that asks in that round gets the same
// value. The metrics case factories declare as Inputs are readings too,
// keyed by metric name: a LatestInto, or a LatestValue through a handle, of
// a declared metric with an empty matcher answers from the round's one store
// walk of it. Every other read (any matcher, any QueryVisit window, any
// undeclared metric) goes to the store unchanged; a handle read there uses
// the handle's memo. A reading no loop asks for in a round costs nothing in
// it.
//
// Freshness: Service.Tick opens a round under the service mutex, after the
// approval queue settles and before the plan fan-out, and closes it once the
// round is over; a reading is never served across rounds, and outside a
// round every read goes to the store and every Reading computes privately.
// Within the round a reading equals what each loop would have computed
// directly, because the pipeline appends and then ticks on one goroutine
// and plan phases only read: nothing appends between a round's first
// reading and its last plan. The first plan worker to ask computes a
// reading under its cell's mutex while the others wait; the value is then
// only read until the next round.
type roundView struct {
	store telemetry.Querier
	// open numbers the round in progress, zero between rounds; opened
	// counts the rounds so far.
	open, opened uint64
	// cells holds one shared reading per distinct key, inputs the declared
	// metrics' readings by name. Both are written only at spawn, under the
	// service mutex.
	cells  map[ReadingKey]*readingCell
	inputs map[string]*readingCell
	// private makes every read of the round go to the store and every
	// Reading compute on its own, as it would outside a Service (set only by
	// tests that compare the two).
	private bool
}

func newRoundView(store telemetry.Querier) *roundView {
	return &roundView{
		store:  store,
		cells:  make(map[ReadingKey]*readingCell),
		inputs: make(map[string]*readingCell),
	}
}

// latest is the key of a declared input's reading: every series' newest
// point of one metric, in label-key order.
type latest string

// New implements ReadingKey.
func (m latest) New() ReadingValue { return &latestPoints{metric: string(m)} }

// latestPoints is a declared input's reading.
type latestPoints struct {
	metric string
	pts    []telemetry.Point
}

// Read implements ReadingValue.
func (l *latestPoints) Read(q telemetry.Querier, _ time.Duration) {
	l.pts = q.LatestInto(l.pts[:0], l.metric, nil)
}

// declare registers metrics as readings, resolved on first read in a round.
func (v *roundView) declare(metrics []string) {
	for _, m := range metrics {
		if _, ok := v.inputs[m]; !ok {
			v.inputs[m] = v.cell(latest(m))
		}
	}
}

// begin opens a round; end closes it.
func (v *roundView) begin() {
	v.opened++
	v.open = v.opened
}

func (v *roundView) end() { v.open = 0 }

// round returns the number of the round open for shared readings, or zero.
func (v *roundView) round() uint64 {
	if v.private {
		return 0
	}
	return v.open
}

// resolved returns the round's reading of name, when the read it serves is
// a declared metric's newest points with an empty matcher.
func (v *roundView) resolved(name string, matcher telemetry.Labels) ([]telemetry.Point, bool) {
	round := v.round()
	if round == 0 || len(matcher) > 0 {
		return nil, false
	}
	c, ok := v.inputs[name]
	if !ok {
		return nil, false
	}
	return c.get(round, v.store, 0).(*latestPoints).pts, true
}

// LatestValue implements telemetry.Querier.
func (v *roundView) LatestValue(h *telemetry.Handle) (float64, bool) {
	if pts, ok := v.resolved(h.Name, h.Matcher); ok {
		if len(pts) == 0 {
			return 0, false
		}
		return pts[len(pts)-1].Value, true
	}
	return v.store.LatestValue(h)
}

// LatestInto implements telemetry.Querier.
func (v *roundView) LatestInto(buf []telemetry.Point, name string, matcher telemetry.Labels) []telemetry.Point {
	if pts, ok := v.resolved(name, matcher); ok {
		return append(buf, pts...)
	}
	return v.store.LatestInto(buf, name, matcher)
}

// QueryVisit implements telemetry.Querier; windows always read the store.
func (v *roundView) QueryVisit(name string, matcher telemetry.Labels, from, to time.Duration, visit telemetry.SeriesVisitor) {
	v.store.QueryVisit(name, matcher, from, to, visit)
}

// ReadingKey names a round reading. A key is a comparable value that
// carries every parameter its reading's computation uses besides the
// Querier and the time, so that two loops whose keys are equal may share one
// value: a case whose reading depends on a config field puts that field in
// its key.
type ReadingKey interface {
	// New returns an empty value that computes the reading, for the key's
	// parameters.
	New() ReadingValue
}

// ReadingValue is a round reading's value, and its computation.
type ReadingValue interface {
	// Read recomputes the value at now through q, reusing its buffers.
	Read(q telemetry.Querier, now time.Duration)
}

// Reading is one loop's handle on a round reading, declared at Build time
// like a telemetry.Handle. Built over a Service's round view, it serves the
// round's shared value; built over any other Querier (a loop constructed
// without a Service), or read outside a round, it computes a value of its
// own from the same key.
type Reading struct {
	q    telemetry.Querier
	view *roundView   // nil unless q is a Service's round view
	cell *readingCell // the view's cell for the key
	own  ReadingValue
}

// NewReading declares the reading key names over q. It panics if key is not
// comparable.
func NewReading(q telemetry.Querier, key ReadingKey) *Reading {
	r := &Reading{q: q, own: key.New()}
	if v, ok := q.(*roundView); ok {
		r.view, r.cell = v, v.cell(key)
	}
	return r
}

// Get returns the reading at now, as the value its key's New returns. The
// value is read-only, and valid only until the calling loop's tick ends:
// the next round reuses its buffers.
func (r *Reading) Get(now time.Duration) ReadingValue {
	if r.view != nil {
		if round := r.view.round(); round != 0 {
			return r.cell.get(round, r.q, now)
		}
	}
	r.own.Read(r.q, now)
	return r.own
}

// readingCell is one shared reading: the round its value was computed in,
// and the value.
type readingCell struct {
	mu    sync.Mutex
	round atomic.Uint64
	val   ReadingValue
}

// cell returns v's cell for key, making it on first declaration.
func (v *roundView) cell(key ReadingKey) *readingCell {
	c, ok := v.cells[key]
	if !ok {
		c = &readingCell{val: key.New()}
		v.cells[key] = c
	}
	return c
}

// get returns the cell's value for round, computing it through q if this is
// the round's first read; a concurrent first read waits for it.
func (c *readingCell) get(round uint64, q telemetry.Querier, now time.Duration) ReadingValue {
	if c.round.Load() != round {
		c.mu.Lock()
		if c.round.Load() != round {
			c.val.Read(q, now)
			c.round.Store(round)
		}
		c.mu.Unlock()
	}
	return c.val
}
