package tsdb

import (
	"sync"
	"time"

	"autoloop/internal/telemetry"
)

// This file is the store's read side below Query/QueryRollup: the
// visitor/fill-buffer calls (QueryVisit, WindowInto, LatestInto) that hand
// out samples without materializing series. Each is a plain walk over
// forEachMatch, whose label-key order is the order they promise.

// QueryVisit implements telemetry.Querier: it calls visit, in label-key
// order, for every series matching (name, matcher) that has at least one
// sample in [from, to], passing the sample window as one slice. A window
// inside one chunk is passed without a copy; one that spans chunks is
// assembled in a pooled scratch buffer, so a warm call allocates nothing.
// The callback runs under the store's read lock: the samples and labels
// alias store or scratch memory, are valid only during the call, and must
// not be retained or mutated; and it must not call back into the DB (see
// telemetry.SeriesVisitor).
func (db *DB) QueryVisit(name string, matcher telemetry.Labels, from, to time.Duration, visit telemetry.SeriesVisitor) {
	var scratch *[]telemetry.Sample
	db.forEachMatch(name, matcher, func(s *memSeries) {
		lo, hi := s.bounds(from, to)
		if lo >= hi {
			return
		}
		w := s.run(lo, hi)
		if len(w) < hi-lo {
			if scratch == nil {
				scratch = windowScratch.Get().(*[]telemetry.Sample)
			}
			*scratch = s.appendTo((*scratch)[:0], lo, hi)
			w = *scratch
		}
		visit(s.labels, w)
	})
	if scratch != nil {
		windowScratch.Put(scratch)
	}
}

// windowScratch holds the buffers QueryVisit assembles chunk-spanning
// windows in.
var windowScratch = sync.Pool{New: func() any { return new([]telemetry.Sample) }}

// WindowInto appends the values of every
// matching series in [from, to] to buf, concatenated in label-key order (the
// same values, in the same order, that concatenating Query results would
// yield), and returns the extended buffer. Values are copied out of the
// chunks under the read lock; once buf has capacity the call performs no
// allocations.
func (db *DB) WindowInto(buf []float64, name string, matcher telemetry.Labels, from, to time.Duration) []float64 {
	db.forEachMatch(name, matcher, func(s *memSeries) {
		lo, hi := s.bounds(from, to)
		for lo < hi {
			r := s.run(lo, hi)
			for _, smp := range r {
				buf = append(buf, smp.Value)
			}
			lo += len(r)
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
		if last := s.last(); last != nil {
			buf = append(buf, telemetry.Point{Name: name, Labels: s.labels, Time: last.Time, Value: last.Value})
		}
	})
	return buf
}
