package tsdb

import (
	"time"

	"autoloop/internal/telemetry"
)

// This file is the store's read side below Query/QueryRollup: the
// visitor/fill-buffer calls (QueryVisit, WindowInto, LatestInto) that hand
// out samples without materializing series. Each is a plain walk over
// forEachMatch, whose label-key order is the order they promise.

// QueryVisit implements telemetry.Querier: it calls visit, in label-key
// order, for every series matching (name, matcher) that has at least one
// sample in [from, to], passing the live sample window without copying it.
// The callback runs under the store's read lock: the samples and labels
// alias store memory, are valid only during the call, and must not be
// retained or mutated; and it must not call back into the DB (see
// telemetry.SeriesVisitor).
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

// WindowInto appends the values of every
// matching series in [from, to] to buf, concatenated in label-key order (the
// same values, in the same order, that concatenating Query results would
// yield), and returns the extended buffer. Values are copied out under the
// read lock; once buf has capacity the call performs no allocations.
func (db *DB) WindowInto(buf []float64, name string, matcher telemetry.Labels, from, to time.Duration) []float64 {
	db.QueryVisit(name, matcher, from, to, func(_ telemetry.Labels, samples []telemetry.Sample) {
		for _, smp := range samples {
			buf = append(buf, smp.Value)
		}
	})
	return buf
}

// LatestInto implements telemetry.Querier: it appends the newest point of
// every matching series to buf in label-key order and returns the extended
// buffer. The points' Labels alias the store's canonical (immutable) label
// maps — read-only for callers — which is what makes the call allocation-free
// with a warm buffer, unlike Latest's per-point clones.
func (db *DB) LatestInto(buf []telemetry.Point, name string, matcher telemetry.Labels) []telemetry.Point {
	db.forEachMatch(name, matcher, func(s *memSeries) {
		if live := s.live(); len(live) > 0 {
			last := live[len(live)-1]
			buf = append(buf, telemetry.Point{Name: name, Labels: s.labels, Time: last.Time, Value: last.Value})
		}
	})
	return buf
}
