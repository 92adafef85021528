package tsdb

import (
	"hash/maphash"
	"slices"
	"sort"
	"time"

	"autoloop/internal/telemetry"
)

// labelPair is the inverted-index key for one label: every series of a
// metric carrying k=v appears on its family's posting list of {k, v}. A
// struct key lets lookups build the key without allocating a concatenated
// string.
type labelPair struct{ k, v string }

// labelSet is one distinct label set's canonical form, interned per DB
// (DB.intern) and shared, immutable, by every series carrying it — a node's
// five metrics hold one map, not five clones.
type labelSet struct {
	labels telemetry.Labels
	// key is labels.Key(), computed once: the order of a family's series.
	key string
	// enc is the label part of a point's journal encoding (appendLabelsEnc),
	// so a journaled append copies bytes instead of iterating the map.
	enc string
}

// memSeries stores one (name, labels) identity's samples in time order.
// Retention drops samples by advancing head; the dead prefix is compacted
// only once it outgrows the live part, so expiry is O(1) amortized instead
// of copying the whole window on every append.
type memSeries struct {
	name string
	*labelSet
	// db is the owning store, fixed at creation: a series memoized in a
	// telemetry.Ref is only honoured by the DB that left it there.
	db      *DB
	samples []telemetry.Sample
	head    int // index of the first live sample
	// rollups holds the continuous-rollup states attached to this series,
	// one per registered rule matching the series' metric name.
	rollups []*seriesRollup
}

// live returns the retained samples.
func (s *memSeries) live() []telemetry.Sample { return s.samples[s.head:] }

// truncateBefore drops samples strictly older than cutoff.
func (s *memSeries) truncateBefore(cutoff time.Duration) {
	live := s.live()
	i := sort.Search(len(live), func(i int) bool { return live[i].Time >= cutoff })
	if i == 0 {
		return
	}
	s.head += i
	if s.head > len(s.samples)-s.head {
		n := copy(s.samples, s.samples[s.head:])
		s.samples = s.samples[:n]
		s.head = 0
	}
}

// rangeBounds binary-searches the live window for [from, to], returning the
// half-open sample index range.
func rangeBounds(live []telemetry.Sample, from, to time.Duration) (lo, hi int) {
	lo = sort.Search(len(live), func(i int) bool { return live[i].Time >= from })
	hi = sort.Search(len(live), func(i int) bool { return live[i].Time > to })
	return lo, hi
}

// lookup resolves a point to its existing series via the identity hash,
// verifying name and labels against hash collisions. Callers must hold at
// least the read lock.
func (db *DB) lookup(h uint64, p *telemetry.Point) *memSeries {
	for _, s := range db.byHash[h] {
		if s.name == p.Name && labelsEqual(s.labels, p.Labels) {
			return s
		}
	}
	return nil
}

// labelsEqual reports exact equality of two label sets without allocating.
func labelsEqual(a, b telemetry.Labels) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// family is one metric's series index. series and every posting list are
// kept in labelSet.key order — the order every read promises — by create, so
// no read ever sorts.
type family struct {
	series []*memSeries
	// postings maps k=v -> the family's series carrying that label. Posting
	// lists only grow.
	postings map[labelPair][]*memSeries
}

// candidates returns, in label-key order, the shortest indexed list holding
// every series that can match (name, matcher): the metric's family, or the
// shortest of the matcher's posting lists within it (empty when the index
// proves nothing matches). Callers must hold at least the read lock and
// verify each candidate with s.labels.Matches.
func (db *DB) candidates(name string, matcher telemetry.Labels) []*memSeries {
	fam := db.byName[name]
	if fam == nil {
		return nil
	}
	list := fam.series
	for k, v := range matcher {
		if pl := fam.postings[labelPair{k, v}]; len(pl) < len(list) {
			list = pl
		}
	}
	return list
}

// insertByKey inserts s into a key-ordered list at its key's position: an
// append when the key is the largest so far, which is what a collector
// emitting its sensors in key order hits on every first sight.
func insertByKey(list []*memSeries, s *memSeries) []*memSeries {
	i := len(list)
	if i > 0 && list[i-1].key > s.key {
		i = sort.Search(i, func(i int) bool { return list[i].key > s.key })
	}
	return slices.Insert(list, i, s)
}

// create inserts a new series for p's identity, registering it in the hash
// map and at its key's place in its metric's family and posting lists,
// interning its label set, and attaching the given rollup rules that match
// its metric. Callers must hold the write lock and must have checked lookup
// first.
func (db *DB) create(p *telemetry.Point, h uint64, rules []RollupRule) *memSeries {
	fam := db.byName[p.Name]
	if fam == nil {
		fam = &family{postings: make(map[labelPair][]*memSeries)}
		db.byName[p.Name] = fam
	}
	s := &memSeries{name: p.Name, labelSet: db.intern(p.Labels), db: db}
	fam.series = insertByKey(fam.series, s)
	db.byHash[h] = append(db.byHash[h], s)
	for k, v := range s.labels {
		pair := labelPair{k, v}
		fam.postings[pair] = insertByKey(fam.postings[pair], s)
	}
	for i := range rules {
		if rules[i].Metric == p.Name {
			s.rollups = append(s.rollups, newSeriesRollup(rules[i]))
		}
	}
	return s
}

// intern returns the canonical form of a new series' label set, shared with
// every other series of this DB carrying an equal one. The empty set's
// canonical map is nil, whichever of nil and Labels{} its first series
// arrived with. Callers must hold the write lock.
func (db *DB) intern(labels telemetry.Labels) *labelSet {
	key := labels.Key()
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

// hashSeed keys the identity hash for this process. The hash only indexes
// byHash, so it needs to be stable within one process, never across them.
var hashSeed = maphash.MakeSeed()

// identityOf hashes a point's series identity using the runtime's hardware-
// accelerated string hash. The label part is an order-independent
// (XOR-combined) mix so the map's iteration order never matters and no
// canonical key string has to be allocated; collisions are harmless because
// lookups verify name and labels.
func identityOf(p *telemetry.Point) uint64 {
	h := maphash.String(hashSeed, p.Name)
	var lh uint64
	for k, v := range p.Labels {
		lh ^= pairHash(k, v)
	}
	return mix(h ^ lh)
}

// pairHash hashes one label pair asymmetrically so swapping key and value
// changes the result.
func pairHash(k, v string) uint64 {
	return mix(maphash.String(hashSeed, k)) ^ maphash.String(hashSeed, v)
}

// mix is a 64-bit finalizer (splitmix64's): it keeps the XOR of a key's and
// a value's hash from cancelling when the two strings are equal or swapped.
func mix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
