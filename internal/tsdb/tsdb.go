// Package tsdb implements an in-memory time-series database for operational
// telemetry: append-only labeled series with range and instant queries,
// downsampling, aggregation, retention, and continuous rollups.
//
// It is the storage substrate behind the Monitor phase and the raw-data part
// of the Knowledge component. The query surface is intentionally close to
// what a production MODA stack (DCDB, Prometheus, Examon) exposes, so loop
// components written against it would port to a real deployment by swapping
// this package behind the same calls.
//
// Internally the store is one set of indexes behind one RWMutex: a name ->
// family map, each family holding its metric's series — and, per label pair,
// the posting list of those carrying it, built on the first matcher read,
// then maintained — in label-key order, so a matcher query walks the
// shortest posting list instead of every series of the metric, a family no
// matcher reads indexes nothing, and every read visits in the order it
// promises without sorting;
// and an identity-hash map the append path resolves a point through without
// building its label key. A series takes its place in that order once, when
// it is created; range bounds inside a series are binary-searched. A
// family counts the series created in it (its gen), and a latest-value read
// through a telemetry.Handle resolves its matcher once per gen and reads the
// memoized series afterwards, so a question a loop asks every round skips
// the matcher walk. A read takes the lock once; AppendBatch takes it once
// per batchChunk points, so readers interleave with a large sampling round
// instead of waiting it out.
//
// A series keeps its samples, and a rollup its flushed buckets, in fixed
// 32-sample chunks (sampleLog): an append writes into the tail chunk and
// allocates only when that chunk is full, so no sample is ever copied to
// grow a series and the store allocates what it keeps, where one slice
// grown by doubling would allocate about twice that. Retention drops whole
// expired chunks and parks them for the series' next appends, so a series
// under retention stops allocating once warm. Reads walk the chunks: Query,
// WindowInto and Snapshot copy chunk by chunk, and QueryVisit hands a window
// inside one chunk over without a copy and assembles one spanning chunks in
// a pooled scratch buffer.
//
// Concurrent appenders to one DB serialize: every deployment shape has one
// appender per DB (the telemetry pipeline's sampling round) and scales
// ingest out by process, each cluster worker owning its own DB. Registered
// RollupRules are maintained incrementally at append time and queried with
// QueryRollup, staying available beyond the raw samples' retention.
package tsdb

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"autoloop/internal/telemetry"
)

// DB is an in-memory time-series database, safe for concurrent use: the
// pipeline's sampling round appends while loop Monitor phases, the bus query
// service, the HTTP gateway and the snapshotter read. mu guards every field
// below it; appends, AddRollup and RestoreSnapshot take it for writing, every
// read for reading. No call holds it across another call into the DB, and a
// QueryVisit callback must not call back in (see telemetry.SeriesVisitor).
type DB struct {
	retention time.Duration // 0 means keep everything

	// journal, when non-nil, receives every accepted append as a WAL record
	// emitted before mu is released (see journal.go). Set via Journal before
	// ingestion starts; read on the hot path unsynchronized.
	journal Journaler

	mu sync.RWMutex
	// byName maps metric name -> the metric's key-ordered series index.
	// Series are never deleted (retention drops samples, not identities),
	// so its keys are every metric name ever appended.
	byName map[string]*family
	// byHash maps the series identity hash to the first series of its
	// (rarely longer than one) collision chain, linked through
	// memSeries.nextHash. The append hot path resolves a point to its series
	// through this map without materializing the canonical label-key
	// string, so steady-state ingestion does not allocate.
	byHash map[uint64]*memSeries
	// labelSets interns label sets by their order-independent label hash,
	// each entry the first of its collision chain (labelSet.next).
	labelSets map[uint64]*labelSet
	// byID maps a journal id to its series (memSeries.jid is the inverse).
	// Ids are dense: a series takes the next one with its first journaled
	// point, or its own back from a snapshot or a replayed definition. A
	// store that never journals and restores no ids leaves it empty.
	byID []*memSeries
	// rules is the registered rollup-rule set, in registration order.
	rules []RollupRule
	// appended counts samples stored (tail overwrites excluded).
	appended uint64
}

// New returns an empty database that retains samples for the given duration;
// retention <= 0 keeps all samples forever.
func New(retention time.Duration) *DB {
	return &DB{
		retention: retention,
		byName:    make(map[string]*family),
		byHash:    make(map[uint64]*memSeries),
		labelSets: make(map[uint64]*labelSet),
	}
}

// memoized returns the series p's Ref remembers from an earlier append — or
// nil when p carries no Ref, the memo is empty or was left by another DB, or
// the Ref now rides on a point of another name or label count, in which case
// the caller resolves p by its identity hash as if it had no Ref. Everything
// read here is immutable after the series' creation, so no lock is needed.
func (db *DB) memoized(p *telemetry.Point) *memSeries {
	if p.Ref == nil {
		return nil
	}
	s, _ := p.Ref.Memo().(*memSeries)
	if s == nil || s.db != db || s.name != p.Name || len(s.labels) != len(p.Labels) {
		return nil
	}
	return s
}

// Append inserts a point. Out-of-order points (earlier than the series tail)
// are rejected with an error; equal timestamps overwrite the tail value so
// that idempotent re-collection is harmless.
func (db *DB) Append(p telemetry.Point) error {
	db.mu.Lock()
	s, err := db.appendLocked(db.memoized(&p), &p)
	if err == nil && db.journal != nil {
		// Journal while still holding the lock so the per-series record
		// order in the log equals the apply order.
		err = db.journalLocked(s, &p)
	}
	db.mu.Unlock()
	return err
}

// appendLocked is one point's append under the write lock. s is the series
// the point's Ref memoized, or nil to resolve it — and create it on first
// sight — through its identity hash, leaving the result in the point's Ref
// when it has one. It returns the series appended to.
func (db *DB) appendLocked(s *memSeries, p *telemetry.Point) (*memSeries, error) {
	if p.Name == "" {
		return nil, fmt.Errorf("tsdb: append with empty metric name")
	}
	if math.IsNaN(p.Value) || math.IsInf(p.Value, 0) {
		// Neither has a JSON form: one stored ±Inf would fail every later
		// Snapshot and the wire marshal of any response carrying it.
		return nil, fmt.Errorf("tsdb: append non-finite value %v for %s%s", p.Value, p.Name, p.Labels)
	}
	if s == nil {
		h, lh := identityOf(p)
		if s = db.lookup(h, p); s == nil {
			s = db.create(p, h, lh, db.rules)
		}
		if p.Ref != nil {
			p.Ref.SetMemo(s)
		}
	}
	if last := s.last(); last != nil {
		if p.Time < last.Time {
			return nil, fmt.Errorf("tsdb: out-of-order append for %s%s: %v < %v", p.Name, p.Labels, p.Time, last.Time)
		}
		if p.Time == last.Time {
			last.Value = p.Value
			for _, sr := range s.rollups {
				sr.observe(p.Time, p.Value, true)
			}
			return s, nil
		}
	}
	s.push(telemetry.Sample{Time: p.Time, Value: p.Value})
	for _, sr := range s.rollups {
		sr.observe(p.Time, p.Value, false)
	}
	db.appended++
	if db.retention > 0 {
		s.truncateBefore(p.Time - db.retention)
	}
	return s, nil
}

// batchChunk is how many points AppendBatch applies per hold of the write
// lock, and so per journal record. At ~0.1 µs a point (journaled) it keeps a
// reader from waiting more than ~0.1 ms behind the one writer — a 51k-point
// stress10k round applied under one hold would be ~5 ms, a whole query
// latency — and caps a journal record at ~12 KB (~11 bytes a point once its
// series is defined) instead of 560 KB, while the lock and the record header
// are still paid only once per thousand points.
const batchChunk = 1024

// AppendBatch inserts every point in batch order, batchChunk points per hold
// of the write lock. The earliest-indexed error is returned (but all points
// are attempted). It implements telemetry.Sink.
func (db *DB) AppendBatch(pts []telemetry.Point) error {
	var first, jerr error
	var rec *pointsRecord
	if db.journal != nil {
		rec = recScratch.Get().(*pointsRecord)
		defer recScratch.Put(rec)
	}
	for len(pts) > 0 {
		chunk := pts[:min(len(pts), batchChunk)]
		pts = pts[len(chunk):]
		db.mu.Lock()
		if rec != nil {
			db.beginLocked(rec)
		}
		for i := range chunk {
			p := &chunk[i]
			if s, err := db.appendLocked(db.memoized(p), p); err != nil {
				if first == nil {
					first = err
				}
			} else if rec != nil {
				db.encodeLocked(rec, s, p)
			}
		}
		// One WAL record per chunk, emitted before the lock is released so
		// per-series log order equals apply order.
		if rec != nil && len(rec.b) > 0 {
			if err := db.emitLocked(rec); err != nil && jerr == nil {
				jerr = err
			}
		}
		db.mu.Unlock()
	}
	if first == nil {
		first = jerr
	}
	return first
}

// Appended reports the total number of samples stored since creation
// (overwrites of an existing tail timestamp do not count).
func (db *DB) Appended() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.appended
}

// NumSeries reports the current series cardinality.
func (db *DB) NumSeries() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := 0
	for _, fam := range db.byName {
		n += len(fam.series)
	}
	return n
}

// MetricNames returns all metric names in sorted order.
func (db *DB) MetricNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.sortedNames()
}

// sortedNames is MetricNames under a lock the caller already holds.
func (db *DB) sortedNames() []string {
	names := make([]string, 0, len(db.byName))
	for n := range db.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// forEachMatch invokes visit under the read lock for every series matching
// (name, matcher), in label-key order: the order of the family or posting
// list candidates picks. It is the store's one read primitive.
func (db *DB) forEachMatch(name string, matcher telemetry.Labels, visit func(*memSeries)) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, s := range db.candidates(name, matcher) {
		if s.labels.Matches(matcher) {
			visit(s)
		}
	}
}

// collectSeries visits every series matching (name, matcher) under the read
// lock, in label-key order. fn returns the samples to keep (copied out under
// the lock) or keep=false to drop the series.
func (db *DB) collectSeries(name string, matcher telemetry.Labels, fn func(*memSeries) (samples []telemetry.Sample, keep bool)) []telemetry.Series {
	var out []telemetry.Series
	db.forEachMatch(name, matcher, func(s *memSeries) {
		if samples, keep := fn(s); keep {
			out = append(out, telemetry.Series{Name: name, Labels: s.labels.Clone(), Samples: samples})
		}
	})
	return out
}

// Query returns, for the metric name, every series whose labels match the
// matcher, restricted to samples in [from, to]. Label matchers resolve
// through the metric's shortest matching posting list instead of scanning
// every series of the metric, and the time range is binary-searched inside
// each series. Series are returned in label-key order. The returned series
// share no storage with the database.
func (db *DB) Query(name string, matcher telemetry.Labels, from, to time.Duration) []telemetry.Series {
	return db.collectSeries(name, matcher, func(s *memSeries) ([]telemetry.Sample, bool) {
		lo, hi := s.bounds(from, to)
		if lo >= hi {
			return nil, false
		}
		return s.appendTo(make([]telemetry.Sample, 0, hi-lo), lo, hi), true
	})
}

// Latest returns the most recent sample of every matching series in
// label-key order: LatestInto with the labels cloned, so the points share no
// storage with the database.
func (db *DB) Latest(name string, matcher telemetry.Labels) []telemetry.Point {
	out := db.LatestInto(nil, name, matcher)
	for i := range out {
		out[i].Labels = out[i].Labels.Clone()
	}
	return out
}

// handleMemo is the resolution LatestValue leaves in a telemetry.Handle: the
// series of the handle's metric matching its matcher, in label-key order, as
// of one generation of one family of one DB. It is immutable once left;
// a stale one is replaced, never updated.
type handleMemo struct {
	db     *DB
	name   string
	fam    *family
	gen    uint64
	series []*memSeries
}

// LatestValue returns the newest value of the last series, in label-key
// order, that matches the handle and still holds a live sample (the single
// series' value when exactly one matches), or ok=false when none does. It
// reads through the handle's memo when this DB left it for the handle's
// metric and no series has been created in that metric since; otherwise it
// resolves the matcher — through the shortest posting list, like every
// matcher read — and leaves a fresh memo. A read on a valid memo takes the
// read lock and walks the memoized series from the end, allocation-free.
func (db *DB) LatestValue(h *telemetry.Handle) (float64, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	m, _ := h.Memo().(*handleMemo)
	if m == nil || m.db != db || m.name != h.Name || m.gen != m.fam.gen {
		if m = db.resolveHandle(h); m == nil {
			return 0, false
		}
	}
	for i := len(m.series) - 1; i >= 0; i-- {
		if last := m.series[i].last(); last != nil {
			return last.Value, true
		}
	}
	return 0, false
}

// resolveHandle matches h against its metric's family and leaves the result
// in h's memo. A metric not yet created gets no memo: until its first
// series exists, every read costs one map lookup. Callers must hold at least
// the read lock; concurrent readers may resolve the same handle at once, and
// the last memo left wins.
func (db *DB) resolveHandle(h *telemetry.Handle) *handleMemo {
	fam := db.byName[h.Name]
	if fam == nil {
		return nil
	}
	m := &handleMemo{db: db, name: h.Name, fam: fam, gen: fam.gen}
	for _, s := range db.candidates(h.Name, h.Matcher) {
		if s.labels.Matches(h.Matcher) {
			m.series = append(m.series, s)
		}
	}
	h.SetMemo(m)
	return m
}
