package tsdb

import (
	"hash/maphash"
	"slices"
	"sort"
	"sync"
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
	// db is the interning store. A series' owner is its label set's: a
	// series memoized in a telemetry.Ref is only honoured by the DB that
	// left it there.
	db *DB
	// next is the following label set of equal label hash in DB.labelSets.
	next *labelSet
}

// chunkSize is how many samples one chunk of a sampleLog holds: 32 16-byte
// samples are 512 bytes, exactly one of the allocator's size classes.
const chunkSize = 32

// chunk is one fixed block of a sampleLog's samples.
type chunk [chunkSize]telemetry.Sample

// sampleLog is a retained, time-ordered sample list — a raw series' samples
// or a rollup's flushed buckets — kept as a list of fixed chunks. An append
// writes into the tail chunk and takes a new chunk only when the tail is
// full, so growing a series never copies a sample and the store allocates
// what it keeps, not the ~2x a doubling slice throws away. Retention advances
// head and, once the first chunk is wholly expired, drops it from the list:
// no sample is copied to compact either. A dropped chunk is parked in the
// chunk list's spare capacity, chunks[len:cap], and push refills it before it
// allocates, so a series under retention stops allocating once warm.
//
// The live samples are positions head .. head+n-1 of the chunks laid end to
// end: position p is chunks[p/chunkSize][p%chunkSize], head < chunkSize
// while any sample is live, and len(chunks) is the number of chunks those
// positions touch.
type sampleLog struct {
	chunks []*chunk
	head   uint32 // position of the first live sample in chunks[0]
	n      uint32 // live sample count
}

// len returns the live sample count.
func (l *sampleLog) len() int { return int(l.n) }

// at returns the i-th live sample, 0 the oldest.
func (l *sampleLog) at(i int) *telemetry.Sample {
	p := int(l.head) + i
	return &l.chunks[p/chunkSize][p%chunkSize]
}

// last returns the newest live sample, or nil when there is none.
func (l *sampleLog) last() *telemetry.Sample {
	if l.n == 0 {
		return nil
	}
	return l.at(int(l.n) - 1)
}

// run returns the live samples from index i up to hi (exclusive) or the end
// of i's chunk, whichever comes first: walking [lo, hi) run by run visits
// each chunk's part of it as one slice.
func (l *sampleLog) run(i, hi int) []telemetry.Sample {
	p := int(l.head) + i
	off := p % chunkSize
	return l.chunks[p/chunkSize][off:min(chunkSize, off+hi-i)]
}

// appendTo appends the live samples [lo, hi) to dst.
func (l *sampleLog) appendTo(dst []telemetry.Sample, lo, hi int) []telemetry.Sample {
	for lo < hi {
		r := l.run(lo, hi)
		dst = append(dst, r...)
		lo += len(r)
	}
	return dst
}

// push appends a sample after the newest, refilling a parked chunk or
// allocating one when the tail chunk is full.
func (l *sampleLog) push(smp telemetry.Sample) {
	p := int(l.head) + int(l.n)
	if c := len(l.chunks); p == c*chunkSize {
		if spare := l.chunks[:cap(l.chunks)]; c < len(spare) && spare[c] != nil {
			l.chunks = spare[:c+1]
		} else {
			l.chunks = append(l.chunks, new(chunk))
		}
	}
	l.chunks[p/chunkSize][p%chunkSize] = smp
	l.n++
}

// truncateBefore drops samples strictly older than cutoff from a non-empty
// log, parking the chunks that leaves empty.
func (l *sampleLog) truncateBefore(cutoff time.Duration) {
	if l.at(0).Time >= cutoff {
		return
	}
	i := sort.Search(l.len(), func(i int) bool { return l.at(i).Time >= cutoff })
	p := int(l.head) + i
	l.n -= uint32(i)
	if k := p / chunkSize; k > 0 {
		// Rotate the k expired chunks behind the live ones, which moves
		// them into the spare capacity when the list is cut.
		c := l.chunks
		slices.Reverse(c[:k])
		slices.Reverse(c[k:])
		slices.Reverse(c)
		l.chunks = c[:len(c)-k]
	}
	l.head = uint32(p % chunkSize)
}

// bounds binary-searches the live samples for [from, to], returning the
// half-open index range of those inside it.
func (l *sampleLog) bounds(from, to time.Duration) (lo, hi int) {
	n := l.len()
	lo = sort.Search(n, func(i int) bool { return l.at(i).Time >= from })
	hi = lo + sort.Search(n-lo, func(i int) bool { return l.at(lo+i).Time > to })
	return lo, hi
}

// memSeries stores one (name, labels) identity's samples in time order, in
// its sampleLog's chunks. A store holds one per series, tens of thousands of
// them, so its size is pinned to the 96-byte allocation class
// (TestMemSeriesSize): the owning DB is reached through the label set, which
// leaves room for the journal id.
type memSeries struct {
	name string
	*labelSet
	// jid is the series' journal id plus one, 0 until its first journaled
	// point (DB.byID holds the inverse).
	jid uint32
	sampleLog
	// rollups holds the continuous-rollup states attached to this series,
	// one per registered rule matching the series' metric name.
	rollups []*seriesRollup
	// nextHash is the following series of equal identity hash in DB.byHash.
	nextHash *memSeries
}

// lookup resolves a point to its existing series via the identity hash,
// verifying name and labels against hash collisions. Callers must hold at
// least the read lock.
func (db *DB) lookup(h uint64, p *telemetry.Point) *memSeries {
	for s := db.byHash[h]; s != nil; s = s.nextHash {
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
// kept in labelSet.key order — the order every read promises — by create and
// index, so no read ever sorts.
type family struct {
	series []*memSeries
	// postings maps k=v -> the family's series carrying that label. It is
	// built on the first matcher read, then maintained by create; nil until
	// then, so a family no matcher reads never indexes its series.
	postings map[labelPair][]*memSeries
	// indexed builds postings once, under the read lock of the first
	// matcher read. create holds the write lock, so it never runs beside
	// the build and sees postings either nil or complete.
	indexed sync.Once
	// gen counts the series created in the family. Series are never
	// deleted, so a creation is the only event that can change which
	// series a handle's matcher selects: a handle memo resolved at one gen
	// holds while the gen stands.
	gen uint64
}

// index builds the posting lists in one pass over the key-ordered series,
// so each list comes out in key order by appends alone.
func (fam *family) index() {
	fam.postings = make(map[labelPair][]*memSeries)
	for _, s := range fam.series {
		for k, v := range s.labels {
			pair := labelPair{k, v}
			fam.postings[pair] = append(fam.postings[pair], s)
		}
	}
}

// candidates returns, in label-key order, the shortest indexed list holding
// every series that can match (name, matcher): the metric's family, or the
// shortest of the matcher's posting lists within it (empty when the index
// proves nothing matches). An empty matcher reads the family without its
// index; the first non-empty one builds it. Callers must hold at least the
// read lock and verify each candidate with s.labels.Matches.
func (db *DB) candidates(name string, matcher telemetry.Labels) []*memSeries {
	fam := db.byName[name]
	if fam == nil {
		return nil
	}
	list := fam.series
	if len(matcher) == 0 {
		return list
	}
	fam.indexed.Do(fam.index)
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
// map and at its key's place in its metric's family and, once the family is
// indexed, its posting lists, interning its label set, and attaching the
// given rollup rules that match its metric. h and lh are p's identity and
// label hashes (identityOf). Callers must hold the write lock and must have
// checked lookup first.
func (db *DB) create(p *telemetry.Point, h, lh uint64, rules []RollupRule) *memSeries {
	fam := db.byName[p.Name]
	if fam == nil {
		fam = &family{}
		db.byName[p.Name] = fam
	}
	s := &memSeries{name: p.Name, labelSet: db.intern(p.Labels, lh)}
	fam.series = insertByKey(fam.series, s)
	fam.gen++
	s.nextHash, db.byHash[h] = db.byHash[h], s
	if fam.postings != nil {
		for k, v := range s.labels {
			pair := labelPair{k, v}
			fam.postings[pair] = insertByKey(fam.postings[pair], s)
		}
	}
	for i := range rules {
		if rules[i].Metric == p.Name {
			s.rollups = append(s.rollups, newSeriesRollup(rules[i]))
		}
	}
	return s
}

// intern returns the canonical form of a new series' label set, shared with
// every other series of this DB carrying an equal one. It finds an interned
// set by label hash and labelsEqual, so only a set seen for the first time
// builds its key. h is labelHash(labels). The empty set's canonical map is
// nil, whichever of nil and Labels{} its first series arrived with. Callers
// must hold the write lock.
func (db *DB) intern(labels telemetry.Labels, h uint64) *labelSet {
	for ls := db.labelSets[h]; ls != nil; ls = ls.next {
		if labelsEqual(ls.labels, labels) {
			return ls
		}
	}
	ls := &labelSet{key: labels.Key(), db: db, next: db.labelSets[h]}
	if len(labels) > 0 {
		ls.labels = labels.Clone()
	}
	db.labelSets[h] = ls
	return ls
}

// hashSeed keys the identity and label hashes for this process. They only
// index byHash and labelSets, so they need to be stable within one process,
// never across them.
var hashSeed = maphash.MakeSeed()

// identityOf hashes a point's series identity using the runtime's hardware-
// accelerated string hash. The label part is an order-independent
// (XOR-combined) mix so the map's iteration order never matters and no
// canonical key string has to be allocated; collisions are harmless because
// lookups verify name and labels. It returns the label hash too, so creating
// the series interns its label set without hashing the labels again.
func identityOf(p *telemetry.Point) (h, lh uint64) {
	lh = labelHash(p.Labels)
	return mix(maphash.String(hashSeed, p.Name) ^ lh), lh
}

// labelHash is the label part of identityOf: the XOR of every pair's hash,
// so equal sets hash equal whatever their iteration order, and the empty set
// hashes to 0.
func labelHash(l telemetry.Labels) uint64 {
	var h uint64
	for k, v := range l {
		h ^= pairHash(k, v)
	}
	return h
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
