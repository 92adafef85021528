package tsdb

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"autoloop/internal/telemetry"
)

// orderMetrics share the node/rack/slot label pairs, so a posting list that
// leaked another metric's series would show as an extra series.
var orderMetrics = []string{"fam.cpu", "fam.mem", "fam.temp"}

// orderIdentities returns nodes×3 series identities minus a different
// quarter of the nodes per metric, shuffled by rng: creating them in that
// order files most of them mid-list.
func orderIdentities(rng *rand.Rand, nodes int) []telemetry.Point {
	var ids []telemetry.Point
	for n := 0; n < nodes; n++ {
		labels := telemetry.Labels{
			"node": fmt.Sprintf("n%03d", n),
			"rack": fmt.Sprintf("r%02d", n/8),
			"slot": fmt.Sprintf("s%d", n%2),
		}
		for m, name := range orderMetrics {
			if (n+m)%4 != 0 {
				ids = append(ids, telemetry.Point{Name: name, Labels: labels, Value: float64(len(ids))})
			}
		}
	}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return ids
}

// orderRound stamps one round of the identities: the series' own value plus
// a per-round fraction, a fresh Ref slot per identity when refs is non-nil.
func orderRound(ids []telemetry.Point, refs []telemetry.Ref, round int) []telemetry.Point {
	pts := make([]telemetry.Point, len(ids))
	for i, id := range ids {
		pts[i] = id
		pts[i].Time = time.Duration(round) * time.Second
		pts[i].Value += float64(round) / 16
		if refs != nil {
			pts[i].Ref = &refs[i]
		}
	}
	return pts
}

// ascending reports an error unless keys are strictly ascending, which also
// rules out a series listed twice.
func ascending(t *testing.T, what string, keys []string) {
	t.Helper()
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Errorf("%s: key %d %q does not sort after %q", what, i, keys[i], keys[i-1])
			return
		}
	}
}

// TestFamilyOrder is the order contract's oracle: however a store came by
// its series — Append, multi-chunk AppendBatch with Refs, WAL replay or a
// restored snapshot, always in random key order — every read lists exactly
// the reference model's series in strictly ascending label-key order,
// through the family, one posting list, or the shorter of two.
func TestFamilyOrder(t *testing.T) {
	const nodes, rounds = 512, 3 // 1152 series: two chunks a round
	rule := RollupRule{Metric: orderMetrics[0], Step: 2 * time.Second, Agg: AggMean}
	newStore := func() *DB {
		db := New(0)
		if err := db.AddRollup(rule); err != nil {
			t.Fatal(err)
		}
		return db
	}
	ids := orderIdentities(rand.New(rand.NewSource(16)), nodes)
	if len(ids) <= batchChunk {
		t.Fatalf("%d identities do not span two chunks", len(ids))
	}

	ref := newRefDB(0)
	viaAppend, viaBatch := newStore(), newStore()
	var journal recordingJournal
	viaBatch.Journal(&journal)
	refs := make([]telemetry.Ref, len(ids))
	for r := 0; r < rounds; r++ {
		for _, p := range orderRound(ids, nil, r) {
			if err := ref.append(p); err != nil {
				t.Fatal(err)
			}
			if err := viaAppend.Append(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := viaBatch.AppendBatch(orderRound(ids, refs, r)); err != nil {
			t.Fatal(err)
		}
	}
	viaWAL := newStore()
	journal.replay(t, viaWAL)
	snap, err := viaBatch.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	viaSnapshot := newStore()
	if err := viaSnapshot.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}

	matchers := []telemetry.Labels{
		nil,
		{"rack": "r07"},
		{"slot": "s1"},
		{"rack": "r07", "slot": "s1"},
		{"slot": "s0", "node": "n100"},
		{"rack": "r99"},
	}
	const from, to = time.Second, 2 * time.Second
	stores := map[string]*DB{"Append": viaAppend, "AppendBatch": viaBatch, "ApplyWAL": viaWAL, "RestoreSnapshot": viaSnapshot}
	for how, db := range stores {
		for _, name := range orderMetrics {
			for _, m := range matchers {
				what := fmt.Sprintf("%s store, %s%s", how, name, m)
				wantRange := ref.query(name, m, from, to)
				wantLatest := ref.latest(name, m)

				var keys []string
				var visited []telemetry.Series
				db.QueryVisit(name, m, from, to, func(l telemetry.Labels, samples []telemetry.Sample) {
					keys = append(keys, l.Key())
					visited = append(visited, telemetry.Series{Name: name, Labels: l.Clone(), Samples: append([]telemetry.Sample(nil), samples...)})
				})
				ascending(t, what+" QueryVisit", keys)
				if !reflect.DeepEqual(visited, wantRange) {
					t.Fatalf("%s: QueryVisit saw %d series, reference has %d", what, len(visited), len(wantRange))
				}

				if got := db.Query(name, m, from, to); !reflect.DeepEqual(got, wantRange) {
					t.Fatalf("%s: Query = %v, want %v", what, got, wantRange)
				}

				var wantWindow []float64
				for _, s := range wantRange {
					for _, smp := range s.Samples {
						wantWindow = append(wantWindow, smp.Value)
					}
				}
				if got := db.WindowInto(nil, name, m, from, to); !reflect.DeepEqual(got, wantWindow) {
					t.Fatalf("%s: WindowInto = %v, want %v", what, got, wantWindow)
				}

				latest := db.LatestInto(nil, name, m)
				keys = keys[:0]
				for _, p := range latest {
					keys = append(keys, p.Labels.Key())
				}
				ascending(t, what+" LatestInto", keys)
				if !reflect.DeepEqual(latest, wantLatest) {
					t.Fatalf("%s: LatestInto = %v, want %v", what, latest, wantLatest)
				}
				v, ok := db.LatestValue(&telemetry.Handle{Name: name, Matcher: m})
				if ok != (len(latest) > 0) || (ok && v != latest[len(latest)-1].Value) {
					t.Fatalf("%s: LatestValue = %v, %v beside LatestInto %v", what, v, ok, latest)
				}

				if name != rule.Metric {
					continue
				}
				rolled, ok := db.QueryRollup(name, m, rule.Step, rule.Agg, 0, time.Hour)
				keys = keys[:0]
				for _, s := range rolled {
					keys = append(keys, s.Labels.Key())
				}
				ascending(t, what+" QueryRollup", keys)
				if want := ref.queryRollup(name, m, rule.Step, rule.Agg, 0, time.Hour); !ok || !reflect.DeepEqual(rolled, want) {
					t.Fatalf("%s: QueryRollup = %v (ok=%v), want %v", what, rolled, ok, want)
				}
			}
		}
	}
}

// TestConcurrentCreateKeepsOrder has one writer create series in random key
// order, a few chunks of new ones a batch, beside readers of the family
// (QueryVisit, Snapshot) and of a posting list (LatestInto): a reader runs
// between two chunks, while lists are mid-growth, and must still see every
// view strictly key-ascending — so no series twice. The finished store must
// equal one that met the same series in key order. Run under -race it
// guards create's in-place inserts against the read lock.
func TestConcurrentCreateKeepsOrder(t *testing.T) {
	const nodes, batches = 2048, 4 // 1152 new series a batch: two chunks
	ids := orderIdentities(rand.New(rand.NewSource(61)), nodes)
	per := len(ids) / batches
	if per <= batchChunk {
		t.Fatalf("%d new series a batch do not span two chunks", per)
	}
	// Batch b appends to every series created so far and creates the next
	// share of them.
	batch := func(b int) []telemetry.Point {
		upto := (b + 1) * per
		if b == batches-1 {
			upto = len(ids)
		}
		return orderRound(ids[:upto], nil, b)
	}
	db := New(0)
	written := make(chan struct{})
	go func() {
		defer close(written)
		for b := 0; b < batches; b++ {
			if err := db.AppendBatch(batch(b)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	until := func(read func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for done := false; !done && !t.Failed(); {
				select {
				case <-written:
					done = true
				default:
				}
				read()
			}
		}()
	}
	var visitKeys []string
	until(func() {
		visitKeys = visitKeys[:0]
		db.QueryVisit(orderMetrics[0], nil, 0, time.Hour, func(l telemetry.Labels, _ []telemetry.Sample) {
			visitKeys = append(visitKeys, l.Key())
		})
		ascending(t, "QueryVisit", visitKeys)
	})
	var latest []telemetry.Point
	var latestKeys []string
	until(func() {
		latest = db.LatestInto(latest[:0], orderMetrics[1], telemetry.Labels{"slot": "s1"})
		latestKeys = latestKeys[:0]
		for _, p := range latest {
			latestKeys = append(latestKeys, p.Labels.Key())
		}
		ascending(t, "LatestInto", latestKeys)
	})
	until(func() {
		data, err := db.Snapshot()
		if err != nil {
			t.Error(err)
			return
		}
		snap, err := decodeSnapshot(data)
		if err != nil {
			t.Error(err)
			return
		}
		keys := make([]string, len(snap.Series))
		for i, s := range snap.Series {
			keys[i] = s.Name + "\x00" + s.Labels.Key()
		}
		ascending(t, "Snapshot", keys)
	})
	<-written
	wg.Wait()

	// The serial store meets the series of each batch in key order, so
	// every one of its inserts is an append.
	serial := New(0)
	for b := 0; b < batches; b++ {
		pts := batch(b)
		sort.Slice(pts, func(i, j int) bool { return pts[i].Labels.Key() < pts[j].Labels.Key() })
		if err := serial.AppendBatch(pts); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.NumSeries(); got != len(ids) {
		t.Fatalf("NumSeries = %d, want %d", got, len(ids))
	}
	if a, b := dumpDB(t, db), dumpDB(t, serial); string(a) != string(b) {
		t.Fatal("store created in random key order beside readers differs from one created in key order")
	}
}
