package tsdb

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
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
// The format is binary and reuses the journal's codec (journal.go): uvarint
// lengths and counts, varint times, 8-byte little-endian IEEE-754 values,
// and each series' label encoding (appendLabelsEnc):
//
//	snapMagic, uvarint appended, uvarint series count, then per series in
//	sorted metric name, then the family's label-key order:
//	    uvarint len(name), name, label encoding, uvarint journal id + 1
//	    (0: none), samples,
//	    uvarint rollup count, then per rollup:
//	        varint step, uvarint agg, varint retention, varint open bucket,
//	        uvarint value count, the open bucket's values, samples
//	samples: uvarint count, then (count > 0) the first time as a varint,
//	    each later time as its uvarint delta (>= 1) from the one before,
//	    then every value.
//
// appendLabelsEnc sorts label keys, so the bytes are deterministic for a
// given logical state. The journal ids are what lets the WAL tail a snapshot
// is paired with name its series by id: the records that defined them may
// be compacted away. The store wrote two earlier forms, which
// decodeSnapshot still reads: the same layout without the id under
// snapMagicV2 (ids are then assigned afresh as series are journaled), and
// before it one JSON document (dbSnap's field tags).
//
// Index placement is NOT serialized: the identity hash is seeded per process
// and the indexes are rebuilt on restore. That is invisible to callers —
// create files each restored series at its label key's place, the order
// every read walks.

// snapMagic opens every binary snapshot Snapshot writes, and snapMagicV2 the
// form before journal ids. No JSON document starts with their first byte, so
// it also tells the binary forms from the JSON one.
const (
	snapMagic   = "\xfftsdbv3\x00"
	snapMagicV2 = "\xfftsdbv2\x00"
)

// seriesSnap is one series' decoded state.
type seriesSnap struct {
	Name   string           `json:"name"`
	Labels telemetry.Labels `json:"labels,omitempty"`
	// JID is the journal id plus one, 0 for none: memSeries.jid. Only the
	// current binary form carries it.
	JID     uint64       `json:"-"`
	Samples sampleLog    `json:"samples,omitempty"`
	Rollups []rollupSnap `json:"rollups,omitempty"`
}

// rollupSnap is one seriesRollup's decoded state, keyed by the rule's
// identity (metric is the owning series' name).
type rollupSnap struct {
	Step      time.Duration `json:"step"`
	Agg       Agg           `json:"agg"`
	Retention time.Duration `json:"retention,omitempty"`
	Bucket    int64         `json:"bucket"`
	Values    []float64     `json:"values,omitempty"`
	Samples   sampleLog     `json:"samples,omitempty"`
}

// dbSnap is the whole database's decoded state.
type dbSnap struct {
	Appended uint64       `json:"appended"`
	Series   []seriesSnap `json:"series,omitempty"`
}

// Snapshot serializes the database: every series' live samples and complete
// rollup states, plus the appended counter. It encodes straight from the
// store's chunks into one buffer sized up front, under one hold of the read
// lock — between two of a batch's lock holds when taken under live
// ingestion. The lock is held for the encode because copying the state out
// first, to encode after releasing it, would cost about as much as the
// encode itself plus a second copy of every sample; readers run meanwhile,
// only the appender waits. The WAL position a caller pairs the snapshot with is read
// separately, so the log tail it replays may overlap the snapshot, which
// recovery's skip-behind-tail replay is designed for.
//
// A rollup whose flushed samples are not finite or not ascending (a sum
// that overflowed, a state restored inconsistent) fails the snapshot, since
// RestoreSnapshot would refuse it.
func (db *DB) Snapshot() ([]byte, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := db.sortedNames()
	size, n := len(snapMagic)+2*binary.MaxVarintLen64, 0
	for _, name := range names {
		for _, s := range db.byName[name].series {
			n++
			size += 3*binary.MaxVarintLen64 + len(name) + samplesEncSize(&s.sampleLog)
			for k, v := range s.labels {
				size += 2*binary.MaxVarintLen64 + len(k) + len(v)
			}
			for _, sr := range s.rollups {
				size += 5*binary.MaxVarintLen64 + 8*len(sr.values) + samplesEncSize(&sr.sampleLog)
			}
		}
	}
	buf := make([]byte, 0, size)
	buf = append(buf, snapMagic...)
	buf = binary.AppendUvarint(buf, db.appended)
	buf = binary.AppendUvarint(buf, uint64(n))
	for _, name := range names {
		for _, s := range db.byName[name].series {
			buf = binary.AppendUvarint(buf, uint64(len(name)))
			buf = append(buf, name...)
			buf = appendLabelsEnc(buf, s.labels)
			buf = binary.AppendUvarint(buf, uint64(s.jid))
			buf = appendSamplesEnc(buf, &s.sampleLog)
			buf = binary.AppendUvarint(buf, uint64(len(s.rollups)))
			for _, sr := range s.rollups {
				if err := checkSamples(&sr.sampleLog); err != nil {
					return nil, fmt.Errorf("tsdb: snapshot: %s%s rollup %v: %w", name, s.labels, sr.rule, err)
				}
				buf = binary.AppendVarint(buf, int64(sr.rule.Step))
				buf = binary.AppendUvarint(buf, uint64(sr.rule.Agg))
				buf = binary.AppendVarint(buf, int64(sr.rule.Retention))
				buf = binary.AppendVarint(buf, sr.bucket)
				buf = binary.AppendUvarint(buf, uint64(len(sr.values)))
				for _, v := range sr.values {
					buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
				}
				buf = appendSamplesEnc(buf, &sr.sampleLog)
			}
		}
	}
	return buf, nil
}

// appendSamplesEnc appends a log's samples, walking its chunks: uvarint
// count, then the first time as a varint, each later time as its uvarint
// delta from the one before, then the values.
func appendSamplesEnc(buf []byte, l *sampleLog) []byte {
	n := l.len()
	buf = binary.AppendUvarint(buf, uint64(n))
	if n == 0 {
		return buf
	}
	prev := l.at(0).Time
	buf = binary.AppendVarint(buf, int64(prev))
	for i := 1; i < n; {
		r := l.run(i, n)
		for _, smp := range r {
			buf = binary.AppendUvarint(buf, uint64(smp.Time-prev))
			prev = smp.Time
		}
		i += len(r)
	}
	for i := 0; i < n; {
		r := l.run(i, n)
		for _, smp := range r {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(smp.Value))
		}
		i += len(r)
	}
	return buf
}

// samplesEncSize bounds appendSamplesEnc's output for an ascending log: no
// delta exceeds the span from the first time to the last.
func samplesEncSize(l *sampleLog) int {
	n := l.len()
	if n == 0 {
		return 1
	}
	span := uint64(l.last().Time - l.at(0).Time)
	deltaLen := (bits.Len64(span|1) + 6) / 7 // uvarint length of span
	return 2*binary.MaxVarintLen64 + (n-1)*deltaLen + 8*n
}

// RestoreSnapshot rebuilds the database from a Snapshot payload, in the
// current binary form or either form the store wrote before it. A series
// keeps the journal id the snapshot records, so the WAL tail replays onto
// it and the store goes on giving out ids after the largest. It must be
// called on a freshly created DB — after the application has registered
// its rollup rules and before any appends, replay, or Journal attach. A
// payload that fails to decode or validate (decodeSnapshot) is an error
// and leaves the store untouched. Rollup states recorded in the snapshot are restored
// verbatim; a registered rule the snapshot does not know (added since the
// snapshot was taken) is backfilled from the restored raw samples, exactly
// as AddRollup would.
func (db *DB) RestoreSnapshot(data []byte) error {
	snap, err := decodeSnapshot(data)
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if len(db.byID) > 0 {
		return fmt.Errorf("tsdb: restore snapshot: the store already gives out journal ids")
	}
	byID := make([]*memSeries, snap.ids())
	for si := range snap.Series {
		ss := &snap.Series[si]
		p := telemetry.Point{Name: ss.Name, Labels: ss.Labels}
		h, lh := identityOf(&p)
		if db.lookup(h, &p) != nil {
			return fmt.Errorf("tsdb: restore snapshot: series %s%s already in the store", ss.Name, ss.Labels)
		}
		// Create without attaching rules: rollup states come from the
		// snapshot, not from fresh (empty) rule instances.
		s := db.create(&p, h, lh, nil)
		if ss.JID > 0 {
			s.jid = uint32(ss.JID)
			byID[ss.JID-1] = s
		}
		s.sampleLog = ss.Samples
		for _, rs := range ss.Rollups {
			s.rollups = append(s.rollups, &seriesRollup{
				rule:      RollupRule{Metric: ss.Name, Step: rs.Step, Agg: rs.Agg, Retention: rs.Retention},
				bucket:    rs.Bucket,
				values:    rs.Values,
				sampleLog: rs.Samples,
			})
		}
		// Backfill registered rules the snapshot predates.
		for _, rule := range db.rules {
			if rule.Metric == ss.Name {
				s.backfillRollup(rule)
			}
		}
	}
	db.byID = byID
	db.appended += snap.Appended
	return nil
}

// decodeSnapshot is the one way in for a snapshot payload: a binary form
// after its magic, anything else the JSON document of the store before them.
// Either is validated, so content that would break the store's invariants —
// a checksum only proves the bytes are the ones written — is an error here,
// not a panic or a misordered read later.
func decodeSnapshot(data []byte) (dbSnap, error) {
	var snap dbSnap
	var err error
	if body, ids, ok := binarySnapshot(data); ok {
		snap, err = decodeSnapshotBinary(body, ids)
	} else {
		err = json.Unmarshal(data, &snap)
	}
	if err == nil {
		err = snap.validate()
	}
	if err != nil {
		return dbSnap{}, fmt.Errorf("tsdb: restore snapshot: %w", err)
	}
	return snap, nil
}

// binarySnapshot strips a binary snapshot's magic, reporting whether its
// series carry journal ids (snapMagic) or not (snapMagicV2); ok is false
// for any other payload.
func binarySnapshot(data []byte) (body []byte, ids, ok bool) {
	if body, ok = bytes.CutPrefix(data, []byte(snapMagic)); ok {
		return body, true, true
	}
	body, ok = bytes.CutPrefix(data, []byte(snapMagicV2))
	return body, false, ok
}

// decodeSnapshotBinary decodes a binary form after its magic; ids says
// whether each series carries its journal id. Every count is checked
// against the bytes left (decoder.count), so the decode allocates in
// proportion to its input whatever counts the input claims.
func decodeSnapshotBinary(buf []byte, ids bool) (dbSnap, error) {
	d := decoder{buf: buf}
	snap := dbSnap{Appended: d.uvarint()}
	// A series is at least a name length and three counts, and its id.
	minSize := 4
	if ids {
		minSize++
	}
	if n := d.count(minSize); n > 0 {
		snap.Series = make([]seriesSnap, n)
	}
	for i := 0; i < len(snap.Series) && d.err == nil; i++ {
		ss := &snap.Series[i]
		ss.Name = d.str()
		ss.Labels = d.labels()
		if ids {
			ss.JID = d.uvarint()
		}
		ss.Samples = d.samples()
		// A rollup is at least six one-byte fields.
		if n := d.count(6); n > 0 {
			ss.Rollups = make([]rollupSnap, n)
		}
		for j := range ss.Rollups {
			rs := &ss.Rollups[j]
			rs.Step = time.Duration(d.varint())
			rs.Agg = Agg(d.uvarint())
			rs.Retention = time.Duration(d.varint())
			rs.Bucket = d.varint()
			if n := d.count(8); n > 0 {
				rs.Values = make([]float64, n)
				for k := range rs.Values {
					rs.Values[k] = d.float()
				}
			}
			rs.Samples = d.samples()
		}
	}
	if d.err == nil && len(d.buf) > 0 {
		d.err = fmt.Errorf("%d trailing bytes", len(d.buf))
	}
	return snap, d.err
}

// samples reads appendSamplesEnc's format straight into a log's chunks.
// Times add up with wrap-around; validate rejects a log a wrapped or zero
// delta left unordered.
func (d *decoder) samples() sampleLog {
	var l sampleLog
	n := d.count(9) // a sample is at least one time byte and its value
	if n == 0 {
		return l
	}
	// The chunks share one allocation: a log never lets go of a chunk, live
	// or parked, so none can keep the others alive past their use.
	block := make([]chunk, (n+chunkSize-1)/chunkSize)
	l.chunks = make([]*chunk, len(block))
	for i := range block {
		l.chunks[i] = &block[i]
	}
	l.n = uint32(n)
	t := d.varint()
	for i := 0; i < n; {
		r := l.run(i, n)
		for j := range r {
			if i+j > 0 {
				t += int64(d.uvarint())
			}
			r[j].Time = time.Duration(t)
		}
		i += len(r)
	}
	for i := 0; i < n; {
		r := l.run(i, n)
		for j := range r {
			r[j].Value = d.float()
		}
		i += len(r)
	}
	return l
}

// UnmarshalJSON reads a sample list of the JSON snapshot form into the log.
func (l *sampleLog) UnmarshalJSON(b []byte) error {
	var samples []telemetry.Sample
	if err := json.Unmarshal(b, &samples); err != nil {
		return err
	}
	*l = sampleLog{}
	for _, smp := range samples {
		l.push(smp)
	}
	return nil
}

// ids counts the series that carry a journal id.
func (snap *dbSnap) ids() int {
	n := 0
	for i := range snap.Series {
		if snap.Series[i].JID > 0 {
			n++
		}
	}
	return n
}

// validate rejects a decoded snapshot the store's invariants do not hold
// for: a series without a name or listed twice, journal ids that repeat or
// leave a gap (a store gives its ids out densely from 0), a rollup with a
// step <= 0 (the next append would divide by it), an unknown aggregation or
// a rule repeated within its series, a non-finite open-bucket value, and a
// sample list that is not strictly ascending in time or holds a non-finite
// value (reads binary-search the times; JSON cannot carry NaN, the binary
// form can).
func (snap *dbSnap) validate() error {
	seen := make(map[[2]string]bool, len(snap.Series))
	ids := snap.ids()
	idSeen := make([]bool, ids)
	for i := range snap.Series {
		ss := &snap.Series[i]
		if ss.Name == "" {
			return fmt.Errorf("series %d has no name", i)
		}
		if ss.JID > 0 {
			if ss.JID > uint64(ids) || idSeen[ss.JID-1] {
				return fmt.Errorf("%s%s: journal id %d repeated or out of range", ss.Name, ss.Labels, ss.JID-1)
			}
			idSeen[ss.JID-1] = true
		}
		// Keyed like DB.intern: one label key is one series.
		id := [2]string{ss.Name, ss.Labels.Key()}
		if seen[id] {
			return fmt.Errorf("duplicate series %s%s", ss.Name, ss.Labels)
		}
		seen[id] = true
		if err := checkSamples(&ss.Samples); err != nil {
			return fmt.Errorf("%s%s: %w", ss.Name, ss.Labels, err)
		}
		for j, rs := range ss.Rollups {
			rule := RollupRule{Metric: ss.Name, Step: rs.Step, Agg: rs.Agg}
			if rs.Step <= 0 {
				return fmt.Errorf("%s%s: rollup with non-positive step %v", ss.Name, ss.Labels, rs.Step)
			}
			if !rs.Agg.valid() {
				return fmt.Errorf("%s%s: rollup with unknown aggregation %d", ss.Name, ss.Labels, rs.Agg)
			}
			for _, prev := range ss.Rollups[:j] {
				if prev.Step == rs.Step && prev.Agg == rs.Agg {
					return fmt.Errorf("%s%s: rollup %v repeated", ss.Name, ss.Labels, rule)
				}
			}
			for _, v := range rs.Values {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("%s%s: rollup %v: non-finite open-bucket value", ss.Name, ss.Labels, rule)
				}
			}
			if err := checkSamples(&rs.Samples); err != nil {
				return fmt.Errorf("%s%s: rollup %v: %w", ss.Name, ss.Labels, rule, err)
			}
		}
	}
	return nil
}

// checkSamples reports a log whose samples are not strictly ascending in
// time or hold a non-finite value.
func checkSamples(l *sampleLog) error {
	n := l.len()
	var prev time.Duration
	for i := 0; i < n; {
		r := l.run(i, n)
		for j, smp := range r {
			if math.IsNaN(smp.Value) || math.IsInf(smp.Value, 0) {
				return fmt.Errorf("non-finite value at %v", smp.Time)
			}
			if i+j > 0 && smp.Time <= prev {
				return fmt.Errorf("sample times not ascending: %v after %v", smp.Time, prev)
			}
			prev = smp.Time
		}
		i += len(r)
	}
	return nil
}
