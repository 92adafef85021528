package tsdb

import (
	"hash/maphash"
	"sort"
	"sync"
	"time"

	"autoloop/internal/telemetry"
)

// numShards is the lock-stripe width of the store. Series are distributed
// across shards by an order-independent hash of their (name, labels)
// identity, so concurrent appenders touching different series contend on
// different locks. A power of two keeps shard selection a mask; 64 stripes
// keep the collision probability low even for wide parallel ingest while
// full-database queries still only take 64 brief read locks.
const numShards = 64

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
	// sh is the owning shard, fixed at creation: a series memoized in a
	// telemetry.Ref names its lock stripe and its DB without being hashed.
	sh      *shard
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

// shard is one lock stripe: a name-indexed series map plus the shard's slice
// of the inverted label index. db and idx are set once by New; every other
// field is guarded by mu.
type shard struct {
	db  *DB
	idx int // position in db.shards
	mu  sync.RWMutex
	// byName maps metric name -> label key -> series.
	byName map[string]map[string]*memSeries
	// postings maps k=v -> every series (any metric) carrying that label,
	// in creation order. Posting lists only grow: series are never deleted,
	// retention drops samples, not identities.
	postings map[labelPair][]*memSeries
	// byHash maps the series identity hash to its (rarely >1) collision
	// bucket. The append hot path resolves a point to its series through
	// this map without materializing the canonical label-key string, so
	// steady-state ingestion does not allocate.
	byHash map[uint64][]*memSeries
	// appended counts samples stored via this shard; kept under mu instead
	// of a DB-global atomic so parallel appenders do not bounce one counter
	// cache line. Padding rounds the struct to two cache lines so
	// neighbouring shards in the DB's array never share one.
	appended uint64
	_        [7]uint64
}

// lookup resolves a point to its existing series via the identity hash,
// verifying name and labels against hash collisions. Callers must hold at
// least the read lock.
func (sh *shard) lookup(h uint64, p *telemetry.Point) *memSeries {
	for _, s := range sh.byHash[h] {
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

// candidates returns the cheapest superset of series in this shard that can
// match (name, matcher): the name family map, or the shortest matcher
// posting list if one is shorter. Callers must hold at least the read lock
// and must verify each candidate with s.name == name && s.labels.Matches.
// The bool result is false when the index proves no series can match.
func (sh *shard) candidates(name string, matcher telemetry.Labels) (fams map[string]*memSeries, list []*memSeries, ok bool) {
	fams = sh.byName[name]
	if len(fams) == 0 {
		return nil, nil, false
	}
	for k, v := range matcher {
		pl, have := sh.postings[labelPair{k, v}]
		if !have {
			return nil, nil, false // no series anywhere in the shard has k=v
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

// create inserts a new series for p's identity, registering it in the hash
// map, the inverted index, the DB's name and label-set tables, and on
// matching rollup rules. Callers must hold the write lock and must have
// checked lookup first; rules must be loaded while the lock is held, so a
// series racing AddRollup either attaches the new rule at birth or exists by
// the time the backfill locks this shard — never neither.
func (sh *shard) create(p *telemetry.Point, h uint64, rules []RollupRule) *memSeries {
	fams := sh.byName[p.Name]
	if fams == nil {
		fams = make(map[string]*memSeries)
		sh.byName[p.Name] = fams
	}
	s := &memSeries{name: p.Name, labelSet: sh.db.intern(p.Name, p.Labels), sh: sh}
	fams[s.key] = s
	sh.byHash[h] = append(sh.byHash[h], s)
	for k, v := range s.labels {
		pair := labelPair{k, v}
		sh.postings[pair] = append(sh.postings[pair], s)
	}
	for i := range rules {
		if rules[i].Metric == p.Name {
			s.rollups = append(s.rollups, newSeriesRollup(rules[i]))
		}
	}
	return s
}

// hashSeed keys the identity hash for this process. Placement only needs to
// be stable within one DB's lifetime, never across processes.
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

// shardIndex maps an identity hash to its lock stripe.
func shardIndex(h uint64) int { return int(h & (numShards - 1)) }

// pairHash hashes one label pair asymmetrically so swapping key and value
// changes the result.
func pairHash(k, v string) uint64 {
	return mix(maphash.String(hashSeed, k)) ^ maphash.String(hashSeed, v)
}

// mix is a 64-bit finalizer (splitmix64's) spreading entropy into the low
// bits shardIndex masks out.
func mix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
