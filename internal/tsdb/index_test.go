package tsdb

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"autoloop/internal/telemetry"
)

// scratchPostings is a family's posting lists built from scratch: for every
// label pair its series carry, the series carrying it, filtered from the
// key-ordered family.
func scratchPostings(fam *family) map[labelPair][]*memSeries {
	want := make(map[labelPair][]*memSeries)
	for _, s := range fam.series {
		for k, v := range s.labels {
			want[labelPair{k, v}] = nil
		}
	}
	for pair := range want {
		for _, s := range fam.series {
			if s.labels[pair.k] == pair.v {
				want[pair] = append(want[pair], s)
			}
		}
	}
	return want
}

// checkPostings fails unless fam's posting lists equal a from-scratch build
// and each lists its series in strictly ascending key order.
func checkPostings(t *testing.T, what string, fam *family) {
	t.Helper()
	if !reflect.DeepEqual(fam.postings, scratchPostings(fam)) {
		t.Fatalf("%s: posting lists differ from a from-scratch build", what)
	}
	for pair, list := range fam.postings {
		keys := make([]string, len(list))
		for i, s := range list {
			keys[i] = s.key
		}
		ascending(t, fmt.Sprintf("%s: posting list %s=%s", what, pair.k, pair.v), keys)
	}
}

// TestPostingsBuiltOnFirstMatcherRead pins the lazy label index: a family
// that only nil-matcher reads reach (LatestInto, QueryVisit, WindowInto, a
// handle without a matcher, rollups, Snapshot, a restore) builds no posting
// lists; its first matcher read builds lists equal to a from-scratch build;
// create keeps them so, in key order, while series keep arriving in random
// key order; and a pair no series carries yields no candidates, whether it
// is the read that builds the index or a later one.
func TestPostingsBuiltOnFirstMatcherRead(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	rule := RollupRule{Metric: orderMetrics[0], Step: 2 * time.Second, Agg: AggMean}
	db := New(0)
	if err := db.AddRollup(rule); err != nil {
		t.Fatal(err)
	}
	ids := orderIdentities(rng, 256)
	half := len(ids) / 2
	for r := 0; r < 2; r++ {
		if err := db.AppendBatch(orderRound(ids[:half], nil, r)); err != nil {
			t.Fatal(err)
		}
	}

	unindexed := func(what string, db *DB) {
		t.Helper()
		for name, fam := range db.byName {
			if fam.postings != nil {
				t.Fatalf("%s: %s holds posting lists before any matcher read", what, name)
			}
		}
	}
	nilReads := func(db *DB) {
		for _, name := range orderMetrics {
			db.LatestInto(nil, name, nil)
			db.Latest(name, telemetry.Labels{})
			db.QueryVisit(name, nil, 0, time.Hour, func(telemetry.Labels, []telemetry.Sample) {})
			db.WindowInto(nil, name, nil, 0, time.Hour)
			db.LatestValue(&telemetry.Handle{Name: name})
		}
		if _, ok := db.QueryRollup(rule.Metric, nil, rule.Step, rule.Agg, 0, time.Hour); !ok {
			t.Fatal("QueryRollup: rule not found")
		}
	}
	nilReads(db)
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	unindexed("live store", db)
	restored := New(0)
	if err := restored.AddRollup(rule); err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	nilReads(restored)
	unindexed("restored store", restored)

	// The first matcher read of one family indexes that family alone.
	indexed, other := db.byName[orderMetrics[1]], db.byName[orderMetrics[2]]
	if got := db.LatestInto(nil, orderMetrics[1], telemetry.Labels{"rack": "r03"}); len(got) == 0 {
		t.Fatal("matcher read found no series in rack r03")
	}
	if indexed.postings == nil {
		t.Fatal("first matcher read built no posting lists")
	}
	checkPostings(t, "after the first matcher read", indexed)
	if other.postings != nil {
		t.Fatalf("%s indexed by a matcher read of %s", orderMetrics[2], orderMetrics[1])
	}

	// A pair nothing carries proves an empty answer, as the read that
	// builds a family's index and as any later one.
	for _, name := range orderMetrics[1:] {
		db.mu.RLock()
		got := db.candidates(name, telemetry.Labels{"rack": "r99"})
		db.mu.RUnlock()
		if len(got) != 0 {
			t.Fatalf("%s{rack=r99}: %d candidates, want none", name, len(got))
		}
	}
	checkPostings(t, "after an unmatched read", other)

	// Series created afterwards, in random key order, by Append and by
	// AppendBatch, keep every built list equal to a fresh build.
	rest := ids[half:]
	for len(rest) > 0 {
		n := min(len(rest), 1+rng.Intn(64))
		if rng.Intn(2) == 0 {
			for _, p := range orderRound(rest[:n], nil, 2) {
				if err := db.Append(p); err != nil {
					t.Fatal(err)
				}
			}
		} else if err := db.AppendBatch(orderRound(rest[:n], nil, 2)); err != nil {
			t.Fatal(err)
		}
		rest = rest[n:]
		checkPostings(t, fmt.Sprintf("%d series later", len(ids)-half-len(rest)), indexed)
		checkPostings(t, fmt.Sprintf("%d series later", len(ids)-half-len(rest)), other)
	}
	if fam := db.byName[orderMetrics[0]]; fam.postings != nil {
		t.Fatalf("%s indexed though no matcher read reached it", orderMetrics[0])
	}
}

// TestConcurrentFirstMatcherReads starts several readers at once on one
// family no matcher has read yet — two through handles, two through
// QueryVisit — while the appender creates series in that family in random
// key order. The readers race to build the index; each answer must equal the
// reference's after some prefix of the appender's creations, never one
// before an answer already read, and the last must equal the reference's
// final answer. Run under -race it guards the build against the readers
// beside it and against create's upkeep after it.
func TestConcurrentFirstMatcherReads(t *testing.T) {
	const name, nodes = "fm.load", 512
	rng := rand.New(rand.NewSource(7))
	point := func(n int) telemetry.Point {
		// A series' value is its key rank, so the newest matching series
		// a handle reads only moves up the key order.
		return telemetry.Point{Name: name, Labels: telemetry.Labels{
			"node": fmt.Sprintf("n%03d", n),
			"rack": fmt.Sprintf("r%02d", n/16),
			"slot": fmt.Sprintf("s%d", n%2),
		}, Value: float64(n)}
	}
	order := rng.Perm(nodes)
	early, late := order[:nodes/2], order[nodes/2:]

	db, ref := New(0), newRefDB(0)
	var pts []telemetry.Point
	for _, n := range early {
		pts = append(pts, point(n))
		if err := ref.append(point(n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.AppendBatch(pts); err != nil {
		t.Fatal(err)
	}
	if db.byName[name].postings != nil {
		t.Fatal("family indexed before its first matcher read")
	}

	type reader struct {
		what string
		read func() string
		want func() string // the reference's answer
	}
	var readers []reader
	for _, m := range []telemetry.Labels{{"rack": "r05"}, {"rack": "r20", "slot": "s1"}} {
		h := &telemetry.Handle{Name: name, Matcher: m}
		readers = append(readers, reader{
			what: fmt.Sprintf("handle %s", m),
			read: func() string { return fmt.Sprint(db.LatestValue(h)) },
			want: func() string { return fmt.Sprint(ref.latestValue(name, m)) },
		})
	}
	for _, m := range []telemetry.Labels{{"slot": "s0"}, {"rack": "r11"}} {
		readers = append(readers, reader{
			what: fmt.Sprintf("QueryVisit %s", m),
			read: func() string {
				var got []telemetry.Series
				db.QueryVisit(name, m, 0, time.Hour, func(l telemetry.Labels, samples []telemetry.Sample) {
					got = append(got, telemetry.Series{Name: name, Labels: l.Clone(), Samples: append([]telemetry.Sample(nil), samples...)})
				})
				return fmt.Sprint(got)
			},
			want: func() string { return fmt.Sprint(ref.query(name, m, 0, time.Hour)) },
		})
	}
	// firsts[i] maps each answer reader i may give to the first prefix of
	// the appender's creations the reference gives it after; a series only
	// ever joins an answer, so an answer's prefixes are one run.
	firsts := make([]map[string]int, len(readers))
	for i := range firsts {
		firsts[i] = make(map[string]int)
	}
	for k := 0; k <= len(late); k++ {
		for i, r := range readers {
			if _, ok := firsts[i][r.want()]; !ok {
				firsts[i][r.want()] = k
			}
		}
		if k < len(late) {
			if err := ref.append(point(late[k])); err != nil {
				t.Fatal(err)
			}
		}
	}

	start := make(chan struct{})
	written := make(chan struct{})
	errs := make(chan error, len(readers)+1)
	var wg sync.WaitGroup
	for i, r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			prev := 0
			for done := false; !done; {
				select {
				case <-written:
					done = true
				default:
				}
				got := r.read()
				k, ok := firsts[i][got]
				switch {
				case !ok:
					errs <- fmt.Errorf("%s: answer %s is the reference's after no prefix", r.what, got)
					return
				case k < prev:
					errs <- fmt.Errorf("%s: answer went back from prefix %d to %d", r.what, prev, k)
					return
				case done && got != r.want():
					errs <- fmt.Errorf("%s: final answer %s, want %s", r.what, got, r.want())
					return
				}
				prev = k
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(written)
		<-start
		for _, n := range late {
			if err := db.Append(point(n)); err != nil {
				errs <- err
				return
			}
		}
	}()
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	checkPostings(t, "after the race", db.byName[name])
}
