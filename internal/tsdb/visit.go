package tsdb

import (
	"slices"
	"strings"
	"sync"
	"time"

	"autoloop/internal/telemetry"
)

// This file is the store's read side below Query/QueryRollup: the one
// ordering helper every label-key-ordered result goes through, and the
// visitor/fill-buffer calls (QueryVisit, WindowInto, LatestInto) that hand
// out samples without materializing series.

// keyed pairs one matching series' contribution to a result with the
// series' label key. Matches are visited in map or posting order; every call
// that promises label-key order collects keyed entries and runs them
// through sortByKey.
type keyed[T any] struct {
	key string
	v   T
}

func sortByKey[T any](items []keyed[T]) {
	slices.SortFunc(items, func(a, b keyed[T]) int { return strings.Compare(a.key, b.key) })
}

// span is where one series' values landed in WindowInto's output buffer.
type span struct{ off, n int }

// visitScratch is the pooled per-call ordering state of WindowInto and
// LatestInto.
type visitScratch struct {
	spans []keyed[span]
	vals  []float64
	pts   []keyed[telemetry.Point]
}

var visitPool = sync.Pool{New: func() interface{} { return new(visitScratch) }}

// QueryVisit implements telemetry.Querier: it calls visit for every series
// matching (name, matcher) that has at least one sample in [from, to],
// passing the live sample window without copying it. The callback runs under
// the store's read lock: the samples and labels alias store memory, are
// valid only during the call, and must not be retained or mutated; and it
// must not call back into the DB (see telemetry.SeriesVisitor). Visit order
// is unspecified.
func (db *DB) QueryVisit(name string, matcher telemetry.Labels, from, to time.Duration, visit telemetry.SeriesVisitor) {
	db.forEachMatch(name, matcher, func(s *memSeries) {
		live := s.live()
		lo, hi := rangeBounds(live, from, to)
		if lo >= hi {
			return
		}
		visit(s.labels, live[lo:hi])
	})
}

// WindowInto implements telemetry.Querier: it appends the values of every
// matching series in [from, to] to buf, concatenated in label-key order (the
// same values, in the same order, that concatenating Query results would
// yield), and returns the extended buffer. Values are copied out under the
// read lock; once buf has capacity the call performs no allocations.
func (db *DB) WindowInto(buf []float64, name string, matcher telemetry.Labels, from, to time.Duration) []float64 {
	sc := visitPool.Get().(*visitScratch)
	sc.spans = sc.spans[:0]
	start := len(buf)
	sorted := true
	db.forEachMatch(name, matcher, func(s *memSeries) {
		live := s.live()
		lo, hi := rangeBounds(live, from, to)
		if lo >= hi {
			return
		}
		off := len(buf)
		for _, smp := range live[lo:hi] {
			buf = append(buf, smp.Value)
		}
		if len(sc.spans) > 0 && s.key < sc.spans[len(sc.spans)-1].key {
			sorted = false
		}
		sc.spans = append(sc.spans, keyed[span]{s.key, span{off: off, n: hi - lo}})
	})
	if !sorted {
		// Restore label-key order: stage the appended region, order the
		// span index, and copy the spans back in key order.
		sc.vals = append(sc.vals[:0], buf[start:]...)
		sortByKey(sc.spans)
		out := buf[:start]
		for _, c := range sc.spans {
			out = append(out, sc.vals[c.v.off-start:c.v.off-start+c.v.n]...)
		}
		buf = out
	}
	clear(sc.spans) // the scratch must not pin series keys of a dead DB
	visitPool.Put(sc)
	return buf
}

// LatestInto implements telemetry.Querier: it appends the newest point of
// every matching series to buf in label-key order and returns the extended
// buffer. The points' Labels alias the store's canonical (immutable) label
// maps — read-only for callers — which is what makes the call allocation-free
// with a warm buffer, unlike Latest's per-point clones.
func (db *DB) LatestInto(buf []telemetry.Point, name string, matcher telemetry.Labels) []telemetry.Point {
	sc := visitPool.Get().(*visitScratch)
	sc.pts = sc.pts[:0]
	db.forEachMatch(name, matcher, func(s *memSeries) {
		live := s.live()
		if len(live) == 0 {
			return
		}
		last := live[len(live)-1]
		sc.pts = append(sc.pts, keyed[telemetry.Point]{
			s.key, telemetry.Point{Name: name, Labels: s.labels, Time: last.Time, Value: last.Value},
		})
	})
	sortByKey(sc.pts)
	for i := range sc.pts {
		buf = append(buf, sc.pts[i].v)
	}
	clear(sc.pts) // the scratch must not pin series labels of a dead DB
	visitPool.Put(sc)
	return buf
}
