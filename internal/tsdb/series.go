package tsdb

import (
	"hash/maphash"
	"sort"
	"time"

	"autoloop/internal/telemetry"
)

// labelPair is the inverted-index key for one label: every series carrying
// k=v appears on the posting list of {k, v}. A struct key lets lookups build
// the key without allocating a concatenated string.
type labelPair struct{ k, v string }

// labelSet is one distinct label set's canonical form, interned per DB
// (DB.intern) and shared, immutable, by every series carrying it — a node's
// five metrics hold one map, not five clones.
type labelSet struct {
	labels telemetry.Labels
	// key is labels.Key(), computed once; query paths sort results by it
	// without re-canonicalizing the label map.
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

// candidates returns the cheapest superset of series that can match (name,
// matcher): the name family map, or the shortest matcher posting list if one
// is shorter. Callers must hold at least the read lock and must verify each
// candidate with s.name == name && s.labels.Matches. The bool result is
// false when the index proves no series can match.
func (db *DB) candidates(name string, matcher telemetry.Labels) (fams map[string]*memSeries, list []*memSeries, ok bool) {
	fams = db.byName[name]
	if len(fams) == 0 {
		return nil, nil, false
	}
	for k, v := range matcher {
		pl, have := db.postings[labelPair{k, v}]
		if !have {
			return nil, nil, false // no series of any metric has k=v
		}
		if list == nil || len(pl) < len(list) {
			list = pl
		}
	}
	if list != nil && len(list) < len(fams) {
		return nil, list, true
	}
	return fams, nil, true
}

// create inserts a new series for p's identity, registering it in the name
// and hash maps and the inverted index, interning its label set, and
// attaching the given rollup rules that match its metric. Callers must hold
// the write lock and must have checked lookup first.
func (db *DB) create(p *telemetry.Point, h uint64, rules []RollupRule) *memSeries {
	fams := db.byName[p.Name]
	if fams == nil {
		fams = make(map[string]*memSeries)
		db.byName[p.Name] = fams
	}
	s := &memSeries{name: p.Name, labelSet: db.intern(p.Labels), db: db}
	fams[s.key] = s
	db.byHash[h] = append(db.byHash[h], s)
	for k, v := range s.labels {
		pair := labelPair{k, v}
		db.postings[pair] = append(db.postings[pair], s)
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
