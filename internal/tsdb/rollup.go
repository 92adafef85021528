package tsdb

import (
	"fmt"
	"time"

	"autoloop/internal/telemetry"
)

// RollupRule declares one continuous rollup: every series of Metric is
// downsampled online into fixed Step buckets reduced with Agg, maintained
// incrementally at append time instead of recomputed per query. Rollup
// samples have their own Retention (0 keeps them forever), so coarse history
// stays queryable long after raw samples have been expired — the "store
// aggregates, drop raw" tiering that production MODA stacks (DCDB, Examon)
// use to survive high-cardinality telemetry.
type RollupRule struct {
	Metric string
	Step   time.Duration
	Agg    Agg
	// Retention bounds how long flushed rollup samples are kept; 0 keeps
	// them forever. It is independent of the database's raw retention.
	Retention time.Duration
}

// String implements fmt.Stringer ("node.temp.celsius/5m0s/mean").
func (r RollupRule) String() string {
	return fmt.Sprintf("%s/%v/%v", r.Metric, r.Step, r.Agg)
}

// same reports whether two rules target the same (metric, step, agg) rollup.
func (r RollupRule) same(o RollupRule) bool {
	return r.Metric == o.Metric && r.Step == o.Step && r.Agg == o.Agg
}

// seriesRollup is the per-series state of one rule: the flushed buckets plus
// the open bucket's raw values. Buckets are flushed when an append crosses a
// step boundary, stamped with the bucket end (never claiming knowledge of
// the future), exactly as the offline downsample reference in the tests
// buckets.
type seriesRollup struct {
	rule    RollupRule
	bucket  int64     // open bucket index, meaningful when len(values) > 0
	values  []float64 // raw values of the open bucket
	samples []telemetry.Sample
	head    int // first live flushed sample (rollup retention)
}

func newSeriesRollup(rule RollupRule) *seriesRollup { return &seriesRollup{rule: rule} }

// live returns the retained flushed samples.
func (sr *seriesRollup) live() []telemetry.Sample { return sr.samples[sr.head:] }

// observe folds one raw sample into the rollup. overwrite marks a
// tail-timestamp overwrite, which replaces the open bucket's newest value
// instead of adding one.
func (sr *seriesRollup) observe(t time.Duration, v float64, overwrite bool) {
	idx := int64(t / sr.rule.Step)
	if len(sr.values) > 0 {
		if overwrite && idx == sr.bucket {
			sr.values[len(sr.values)-1] = v
			return
		}
		if idx != sr.bucket {
			sr.flush()
		}
	}
	sr.bucket = idx
	sr.values = append(sr.values, v)
}

// flush closes the open bucket into a flushed sample and applies the rule's
// retention with the same O(1)-amortized head scheme raw series use.
func (sr *seriesRollup) flush() {
	end := time.Duration(sr.bucket+1) * sr.rule.Step
	sr.samples = append(sr.samples, telemetry.Sample{Time: end, Value: sr.rule.Agg.apply(sr.values)})
	sr.values = sr.values[:0]
	if sr.rule.Retention > 0 {
		sr.truncateBefore(end - sr.rule.Retention)
	}
}

func (sr *seriesRollup) truncateBefore(cutoff time.Duration) {
	live := sr.live()
	i := 0
	for i < len(live) && live[i].Time < cutoff {
		i++
	}
	if i == 0 {
		return
	}
	sr.head += i
	if sr.head > len(sr.samples)-sr.head {
		n := copy(sr.samples, sr.samples[sr.head:])
		sr.samples = sr.samples[:n]
		sr.head = 0
	}
}

// window returns the rollup samples in [from, to], including the open
// bucket's partial aggregate when its end falls inside the range — the same
// convention the downsample reference uses for a trailing partial bucket.
// The result is freshly allocated.
func (sr *seriesRollup) window(from, to time.Duration) []telemetry.Sample {
	live := sr.live()
	lo, hi := rangeBounds(live, from, to)
	var out []telemetry.Sample
	if lo < hi {
		out = make([]telemetry.Sample, hi-lo, hi-lo+1)
		copy(out, live[lo:hi])
	}
	if len(sr.values) > 0 {
		if end := time.Duration(sr.bucket+1) * sr.rule.Step; end >= from && end <= to {
			out = append(out, telemetry.Sample{Time: end, Value: sr.rule.Agg.apply(sr.values)})
		}
	}
	return out
}

// AddRollup registers a continuous rollup rule. Series of the metric that
// already hold raw samples are backfilled by replaying their retained
// window, and series created later attach the rule at birth, so callers may
// register rules before or after ingestion starts. Registering a rule with
// the same (metric, step, agg) twice is an error.
func (db *DB) AddRollup(rule RollupRule) error {
	if rule.Metric == "" {
		return fmt.Errorf("tsdb: rollup rule with empty metric")
	}
	if rule.Step <= 0 {
		return fmt.Errorf("tsdb: rollup rule for %s with non-positive step %v", rule.Metric, rule.Step)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.hasRule(rule) {
		return fmt.Errorf("tsdb: duplicate rollup rule %v", rule)
	}
	db.rules = append(db.rules, rule)
	// Registration and backfill are one critical section: a series either
	// exists by now and is backfilled here, or is created later and attaches
	// the rule at birth — never neither, never both.
	for _, s := range db.candidates(rule.Metric, nil) {
		s.backfillRollup(rule)
	}
	return nil
}

// hasRule reports whether a rule with rule's (metric, step, agg) is
// registered. Callers must hold at least the read lock.
func (db *DB) hasRule(rule RollupRule) bool {
	for _, have := range db.rules {
		if have.same(rule) {
			return true
		}
	}
	return false
}

// backfillRollup attaches rule to the series, fed with its retained raw
// samples, unless the series already tracks it. Callers must hold the write
// lock.
func (s *memSeries) backfillRollup(rule RollupRule) {
	for _, sr := range s.rollups {
		if sr.rule.same(rule) {
			return
		}
	}
	sr := newSeriesRollup(rule)
	for _, smp := range s.live() {
		sr.observe(smp.Time, smp.Value, false)
	}
	s.rollups = append(s.rollups, sr)
}

// QueryRollup returns, for every series of metric matching the matcher, the
// continuously maintained rollup samples of the registered (metric, step,
// agg) rule restricted to [from, to]. Series are in label-key order, and
// ok is false when no such rule is registered. Because rollups have their
// own retention, the window may reach far beyond the raw samples' lifetime.
func (db *DB) QueryRollup(metric string, matcher telemetry.Labels, step time.Duration, agg Agg, from, to time.Duration) (out []telemetry.Series, ok bool) {
	rule := RollupRule{Metric: metric, Step: step, Agg: agg}
	// Rules are never removed, so the answer still holds when collectSeries
	// takes the lock again.
	db.mu.RLock()
	found := db.hasRule(rule)
	db.mu.RUnlock()
	if !found {
		return nil, false
	}
	out = db.collectSeries(metric, matcher, func(s *memSeries) ([]telemetry.Sample, bool) {
		for _, sr := range s.rollups {
			if sr.rule.same(rule) {
				samples := sr.window(from, to)
				return samples, len(samples) > 0
			}
		}
		return nil, false
	})
	return out, true
}
