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
// Internally the store is sharded: series are distributed over lock stripes
// by an identity hash, each shard carries an inverted label index
// (key=value -> posting list) so matcher queries intersect postings instead
// of scanning every series of a metric, and range bounds inside a series are
// binary-searched. Registered RollupRules are maintained incrementally at
// append time and queried with QueryRollup, staying available beyond the raw
// samples' retention.
package tsdb

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"autoloop/internal/telemetry"
	"autoloop/internal/wal"
)

// DB is an in-memory sharded time-series database. It is safe for concurrent
// use; under the simulator all access is single-threaded, but cmd/modad
// serves network queries from multiple goroutines and fleet benchmarks
// append from parallel workers.
type DB struct {
	shards    [numShards]shard
	retention time.Duration // 0 means keep everything

	// rules is the registered rollup-rule set, swapped atomically so the
	// append hot path reads it with a single pointer load. rollupMu
	// serializes writers (AddRollup).
	rules    atomic.Pointer[[]RollupRule]
	rollupMu sync.Mutex

	// nameMu guards names, the set of metric names ever appended, and
	// labelSets, the interned label sets by canonical key; series creation
	// is rare, so a single small mutex does not stripe.
	nameMu    sync.Mutex
	names     map[string]struct{}
	labelSets map[string]*labelSet

	// journal, when non-nil, receives every accepted append as a WAL record
	// emitted under the owning shard's lock (see journal.go). Set via
	// Journal before ingestion starts; read on the hot path unsynchronized.
	journal Journaler
}

// New returns an empty database that retains samples for the given duration;
// retention <= 0 keeps all samples forever.
func New(retention time.Duration) *DB {
	db := &DB{retention: retention, names: make(map[string]struct{}), labelSets: make(map[string]*labelSet)}
	for i := range db.shards {
		db.shards[i].db, db.shards[i].idx = db, i
		db.shards[i].byName = make(map[string]map[string]*memSeries)
		db.shards[i].postings = make(map[labelPair][]*memSeries)
		db.shards[i].byHash = make(map[uint64][]*memSeries)
	}
	return db
}

func (db *DB) loadRules() []RollupRule {
	if p := db.rules.Load(); p != nil {
		return *p
	}
	return nil
}

// intern records a new series' metric name and returns the canonical form of
// its label set, shared with every other series of this DB carrying an equal
// one. The empty set's canonical map is nil, whichever of nil and Labels{}
// its first series arrived with.
func (db *DB) intern(name string, labels telemetry.Labels) *labelSet {
	key := labels.Key()
	db.nameMu.Lock()
	defer db.nameMu.Unlock()
	db.names[name] = struct{}{}
	ls := db.labelSets[key]
	if ls == nil {
		ls = &labelSet{key: key, enc: string(appendLabelsEnc(nil, labels))}
		if len(labels) > 0 {
			ls.labels = labels.Clone()
		}
		db.labelSets[key] = ls
	}
	return ls
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
	if s == nil || s.sh.db != db || s.name != p.Name || len(s.labels) != len(p.Labels) {
		return nil
	}
	return s
}

// Append inserts a point. Out-of-order points (earlier than the series tail)
// are rejected with an error; equal timestamps overwrite the tail value so
// that idempotent re-collection is harmless.
func (db *DB) Append(p telemetry.Point) error {
	s := db.memoized(&p)
	var h uint64
	var sh *shard
	if s != nil {
		sh = s.sh
	} else {
		h = identityOf(&p)
		sh = &db.shards[shardIndex(h)]
	}
	sh.mu.Lock()
	s, err := db.appendLocked(sh, s, &p, h)
	if err == nil && db.journal != nil {
		// Journal while still holding the shard lock so the per-series
		// record order in the log equals the apply order.
		err = db.journalLocked(s, &p)
	}
	sh.mu.Unlock()
	return err
}

// appendLocked is one point's append under the owning shard's write lock. s
// is the series the point's Ref memoized, or nil to resolve it — and create
// it on first sight — through the identity hash h, leaving the result in the
// point's Ref when it has one. It returns the series appended to.
func (db *DB) appendLocked(sh *shard, s *memSeries, p *telemetry.Point, h uint64) (*memSeries, error) {
	if p.Name == "" {
		return nil, fmt.Errorf("tsdb: append with empty metric name")
	}
	if math.IsNaN(p.Value) || math.IsInf(p.Value, 0) {
		// Neither has a JSON form: one stored ±Inf would fail every later
		// Snapshot and the wire marshal of any response carrying it.
		return nil, fmt.Errorf("tsdb: append non-finite value %v for %s%s", p.Value, p.Name, p.Labels)
	}
	if s == nil {
		if s = sh.lookup(h, p); s == nil {
			// Rules are loaded under the shard lock (an atomic pointer
			// read): see shard.create for the AddRollup race reasoning.
			s = sh.create(p, h, db.loadRules())
		}
		if p.Ref != nil {
			p.Ref.SetMemo(s)
		}
	}
	if n := len(s.samples); n > 0 {
		last := s.samples[n-1].Time
		if p.Time < last {
			return nil, fmt.Errorf("tsdb: out-of-order append for %s%s: %v < %v", p.Name, p.Labels, p.Time, last)
		}
		if p.Time == last {
			s.samples[n-1].Value = p.Value
			for _, sr := range s.rollups {
				sr.observe(p.Time, p.Value, true)
			}
			return s, nil
		}
	}
	s.samples = append(s.samples, telemetry.Sample{Time: p.Time, Value: p.Value})
	for _, sr := range s.rollups {
		sr.observe(p.Time, p.Value, false)
	}
	sh.appended++ // under sh.mu, so no shared cache line bounces per append
	if db.retention > 0 {
		s.truncateBefore(p.Time - db.retention)
	}
	return s, nil
}

// batchBuffers is the pooled scratch AppendBatch groups a batch with: per
// point, the memoized series (nil without a usable Ref) and the identity
// hash — for a memoized point just its shard index, all grouping needs — and
// the counting-sorted point order.
type batchBuffers struct {
	ss    []*memSeries
	hs    []uint64
	order []int32
}

var batchScratch = sync.Pool{New: func() interface{} { return new(batchBuffers) }}

// AppendBatch inserts every point in one grouped pass: a counting sort by
// shard visits each point exactly once, then each touched shard is locked
// exactly once and its points appended in original batch order. The
// earliest-indexed error is returned (but all points are attempted). It
// implements telemetry.Sink.
func (db *DB) AppendBatch(pts []telemetry.Point) error {
	if len(pts) == 0 {
		return nil
	}
	scratch := batchScratch.Get().(*batchBuffers)
	if cap(scratch.hs) < len(pts) {
		scratch.ss = make([]*memSeries, len(pts))
		scratch.hs = make([]uint64, len(pts))
		scratch.order = make([]int32, len(pts))
	}
	ss := scratch.ss[:len(pts)]
	hs := scratch.hs[:len(pts)]
	order := scratch.order[:len(pts)]
	var counts [numShards]int32
	for i := range pts {
		if ss[i] = db.memoized(&pts[i]); ss[i] != nil {
			hs[i] = uint64(ss[i].sh.idx)
		} else {
			hs[i] = identityOf(&pts[i])
		}
		counts[shardIndex(hs[i])]++
	}
	// counts -> start offsets; filling order in point order keeps each
	// shard's slice sorted by original batch index.
	var offsets [numShards]int32
	var sum int32
	for si := range counts {
		offsets[si] = sum
		sum += counts[si]
	}
	fill := offsets
	for i := range pts {
		si := shardIndex(hs[i])
		order[fill[si]] = int32(i)
		fill[si]++
	}
	var first error
	firstAt := int32(len(pts))
	var jerr error
	var eb *encBuf
	if db.journal != nil {
		eb = encScratch.Get().(*encBuf)
	}
	for si := 0; si < numShards; si++ {
		if counts[si] == 0 {
			continue
		}
		sh := &db.shards[si]
		sh.mu.Lock()
		if eb != nil {
			eb.b = eb.b[:0]
		}
		for _, i := range order[offsets[si] : offsets[si]+counts[si]] {
			if s, err := db.appendLocked(sh, ss[i], &pts[i], hs[i]); err != nil {
				if i < firstAt {
					first, firstAt = err, i
				}
			} else if eb != nil {
				eb.b = appendPointEnc(eb.b, s, &pts[i])
			}
		}
		// One WAL record per touched shard, emitted before the shard
		// unlocks so per-series log order equals apply order.
		if eb != nil && len(eb.b) > 0 {
			if _, err := db.journal.Append(wal.KindTSDBAppend, eb.b); err != nil && jerr == nil {
				jerr = err
			}
		}
		sh.mu.Unlock()
	}
	if eb != nil {
		encScratch.Put(eb)
	}
	clear(ss) // the scratch must not pin series of a dead DB
	batchScratch.Put(scratch)
	if first == nil {
		first = jerr
	}
	return first
}

// Appended reports the total number of samples stored since creation
// (overwrites of an existing tail timestamp do not count).
func (db *DB) Appended() uint64 {
	var n uint64
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		n += sh.appended
		sh.mu.RUnlock()
	}
	return n
}

// NumSeries reports the current series cardinality.
func (db *DB) NumSeries() int {
	n := 0
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		for _, fams := range sh.byName {
			n += len(fams)
		}
		sh.mu.RUnlock()
	}
	return n
}

// MetricNames returns all metric names in sorted order.
func (db *DB) MetricNames() []string {
	db.nameMu.Lock()
	names := make([]string, 0, len(db.names))
	for n := range db.names {
		names = append(names, n)
	}
	db.nameMu.Unlock()
	sort.Strings(names)
	return names
}

// forEachMatch invokes visit under each shard's read lock for every series
// matching (name, matcher), resolving candidates through the inverted label
// index. Visit order is unspecified (shard then map order); callers that
// return data must sort by series label key for determinism.
func (db *DB) forEachMatch(name string, matcher telemetry.Labels, visit func(*memSeries)) {
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		fams, list, ok := sh.candidates(name, matcher)
		if ok {
			if fams != nil {
				for _, s := range fams {
					if s.labels.Matches(matcher) {
						visit(s)
					}
				}
			} else {
				for _, s := range list {
					if s.name == name && s.labels.Matches(matcher) {
						visit(s)
					}
				}
			}
		}
		sh.mu.RUnlock()
	}
}

// collectSeries visits every series matching (name, matcher) under its
// shard's read lock. fn returns the samples to keep (copied out under the
// lock) or keep=false to drop the series. Results are sorted by label key,
// so every query path is deterministic regardless of shard and map
// iteration order.
func (db *DB) collectSeries(name string, matcher telemetry.Labels, fn func(*memSeries) (samples []telemetry.Sample, keep bool)) []telemetry.Series {
	var items []keyed[telemetry.Series]
	db.forEachMatch(name, matcher, func(s *memSeries) {
		if samples, keep := fn(s); keep {
			items = append(items, keyed[telemetry.Series]{s.key, telemetry.Series{Name: name, Labels: s.labels.Clone(), Samples: samples}})
		}
	})
	if len(items) == 0 {
		return nil
	}
	sortByKey(items)
	out := make([]telemetry.Series, len(items))
	for i := range items {
		out[i] = items[i].v
	}
	return out
}

// Query returns, for the metric name, every series whose labels match the
// matcher, restricted to samples in [from, to]. Label matchers resolve
// through the inverted index (postings intersection) instead of scanning
// every series of the metric, and the time range is binary-searched inside
// each series. Series are returned sorted by label key so that results are
// deterministic. The returned series share no storage with the database.
func (db *DB) Query(name string, matcher telemetry.Labels, from, to time.Duration) []telemetry.Series {
	return db.collectSeries(name, matcher, func(s *memSeries) ([]telemetry.Sample, bool) {
		live := s.live()
		lo, hi := rangeBounds(live, from, to)
		if lo >= hi {
			return nil, false
		}
		cp := make([]telemetry.Sample, hi-lo)
		copy(cp, live[lo:hi])
		return cp, true
	})
}

// QueryOne is Query for callers expecting exactly one matching series; it
// reports false when zero or multiple series match.
func (db *DB) QueryOne(name string, matcher telemetry.Labels, from, to time.Duration) (telemetry.Series, bool) {
	ss := db.Query(name, matcher, from, to)
	if len(ss) != 1 {
		return telemetry.Series{}, false
	}
	return ss[0], true
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

// LatestValue returns the newest value of the last matching series in label
// key order (the single series' value when exactly one matches), or
// ok=false when none matches. Unlike Latest it allocates nothing: the
// matching series' tails are read in place.
func (db *DB) LatestValue(name string, matcher telemetry.Labels) (float64, bool) {
	var bestKey string
	var val float64
	found := false
	db.forEachMatch(name, matcher, func(s *memSeries) {
		live := s.live()
		if len(live) == 0 {
			return
		}
		if !found || s.key > bestKey {
			bestKey, val, found = s.key, live[len(live)-1].Value, true
		}
	})
	return val, found
}
