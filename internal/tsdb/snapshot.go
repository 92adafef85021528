package tsdb

import (
	"encoding/json"
	"fmt"
	"time"

	"autoloop/internal/telemetry"
)

// Snapshot serialization. A snapshot captures everything replay cannot
// cheaply rebuild: every series' live raw samples plus the full state of its
// continuous rollups — the flushed rollup samples AND the open bucket's raw
// values. Rollup state must be explicit because rollup retention outlives
// raw retention: by the time a snapshot is taken, the samples that produced
// an old rollup bucket are long expired, so re-observing raw samples could
// never reconstruct it.
//
// Index placement is NOT serialized: the identity hash is seeded per process
// and the indexes are rebuilt on restore. That is invisible to callers —
// create files each restored series at its label key's place, the order
// every read walks.

// seriesSnap is one series' serialized state.
type seriesSnap struct {
	Name    string             `json:"name"`
	Labels  telemetry.Labels   `json:"labels,omitempty"`
	Samples []telemetry.Sample `json:"samples,omitempty"`
	Rollups []rollupSnap       `json:"rollups,omitempty"`
}

// rollupSnap is one seriesRollup's serialized state, keyed by the rule's
// identity (metric is the owning series' name).
type rollupSnap struct {
	Step      time.Duration      `json:"step"`
	Agg       Agg                `json:"agg"`
	Retention time.Duration      `json:"retention,omitempty"`
	Bucket    int64              `json:"bucket"`
	Values    []float64          `json:"values,omitempty"`
	Samples   []telemetry.Sample `json:"samples,omitempty"`
}

// dbSnap is the whole database's serialized state.
type dbSnap struct {
	Appended uint64       `json:"appended"`
	Series   []seriesSnap `json:"series,omitempty"`
}

// Snapshot serializes the database: every series' live samples and complete
// rollup states, plus the appended counter. Series are listed by sorted
// metric name, then in their family's label-key order, so the bytes are
// deterministic for a given logical state. The state is copied out under one
// hold of the read lock — between two chunks of a batch when taken under
// live ingestion — and marshalled after it is released. The WAL position a
// caller pairs the snapshot with is read separately, so the log tail it
// replays may overlap the snapshot, which recovery's skip-behind-tail replay
// is designed for.
func (db *DB) Snapshot() ([]byte, error) {
	var snap dbSnap
	db.mu.RLock()
	snap.Appended = db.appended
	for _, name := range db.sortedNames() {
		for _, s := range db.byName[name].series {
			ss := seriesSnap{Name: name, Labels: s.labels.Clone()}
			if live := s.live(); len(live) > 0 {
				ss.Samples = append([]telemetry.Sample(nil), live...)
			}
			for _, sr := range s.rollups {
				rs := rollupSnap{
					Step:      sr.rule.Step,
					Agg:       sr.rule.Agg,
					Retention: sr.rule.Retention,
					Bucket:    sr.bucket,
				}
				if len(sr.values) > 0 {
					rs.Values = append([]float64(nil), sr.values...)
				}
				if live := sr.live(); len(live) > 0 {
					rs.Samples = append([]telemetry.Sample(nil), live...)
				}
				ss.Rollups = append(ss.Rollups, rs)
			}
			snap.Series = append(snap.Series, ss)
		}
	}
	db.mu.RUnlock()
	return json.Marshal(&snap)
}

// RestoreSnapshot rebuilds the database from a Snapshot payload. It must be
// called on a freshly created DB — after the application has registered its
// rollup rules and before any appends, replay, or Journal attach. Rollup
// states recorded in the snapshot are restored verbatim; a registered rule
// the snapshot does not know (added since the snapshot was taken) is
// backfilled from the restored raw samples, exactly as AddRollup would.
func (db *DB) RestoreSnapshot(data []byte) error {
	var snap dbSnap
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("tsdb: restore snapshot: %w", err)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for si := range snap.Series {
		ss := &snap.Series[si]
		if ss.Name == "" {
			return fmt.Errorf("tsdb: restore snapshot: series %d has no name", si)
		}
		p := telemetry.Point{Name: ss.Name, Labels: ss.Labels}
		h := identityOf(&p)
		if db.lookup(h, &p) != nil {
			return fmt.Errorf("tsdb: restore snapshot: duplicate series %s%s", ss.Name, ss.Labels)
		}
		// Create without attaching rules: rollup states come from the
		// snapshot, not from fresh (empty) rule instances.
		s := db.create(&p, h, nil)
		s.samples = ss.Samples
		for _, rs := range ss.Rollups {
			s.rollups = append(s.rollups, &seriesRollup{
				rule:    RollupRule{Metric: ss.Name, Step: rs.Step, Agg: rs.Agg, Retention: rs.Retention},
				bucket:  rs.Bucket,
				values:  rs.Values,
				samples: rs.Samples,
			})
		}
		// Backfill registered rules the snapshot predates.
		for _, rule := range db.rules {
			if rule.Metric == ss.Name {
				s.backfillRollup(rule)
			}
		}
	}
	db.appended += snap.Appended
	return nil
}
