package tsdb

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"autoloop/internal/telemetry"
)

// refDB is the trivial single-map, linear-scan reference implementation of
// the store's visible semantics, kept as an oracle. The property test below
// drives it in lockstep with the indexed DB and demands identical answers; it is the tsdb analogue of the bus package's
// FuzzTopicMatch-vs-naive-matcher check.
type refDB struct {
	byName    map[string]map[string]*refSeries
	retention time.Duration
	appended  uint64
	rules     []RollupRule
}

type refSeries struct {
	name   string
	labels telemetry.Labels
	// samples is the retained window; all keeps the full history so rollup
	// answers can be recomputed offline with downsample.
	samples []telemetry.Sample
	all     []telemetry.Sample
}

func newRefDB(retention time.Duration) *refDB {
	return &refDB{byName: make(map[string]map[string]*refSeries), retention: retention}
}

func (db *refDB) append(p telemetry.Point) error {
	if p.Name == "" {
		return fmt.Errorf("ref: empty metric name")
	}
	if math.IsNaN(p.Value) {
		return fmt.Errorf("ref: NaN")
	}
	fams := db.byName[p.Name]
	if fams == nil {
		fams = make(map[string]*refSeries)
		db.byName[p.Name] = fams
	}
	key := p.Labels.Key()
	s := fams[key]
	if s == nil {
		s = &refSeries{name: p.Name, labels: p.Labels.Clone()}
		fams[key] = s
	}
	if n := len(s.samples); n > 0 {
		last := s.samples[n-1].Time
		if p.Time < last {
			return fmt.Errorf("ref: out of order")
		}
		if p.Time == last {
			s.samples[n-1].Value = p.Value
			s.all[len(s.all)-1].Value = p.Value
			return nil
		}
	}
	s.samples = append(s.samples, telemetry.Sample{Time: p.Time, Value: p.Value})
	s.all = append(s.all, telemetry.Sample{Time: p.Time, Value: p.Value})
	db.appended++
	if db.retention > 0 {
		cutoff := p.Time - db.retention
		i := 0
		for i < len(s.samples) && s.samples[i].Time < cutoff {
			i++
		}
		s.samples = s.samples[i:]
	}
	return nil
}

// query is the linear-scan baseline: walk every series of the metric, match
// labels one by one, then filter samples by a linear time scan.
func (db *refDB) query(name string, matcher telemetry.Labels, from, to time.Duration) []telemetry.Series {
	var out []telemetry.Series
	for _, s := range db.sorted(name) {
		if !s.labels.Matches(matcher) {
			continue
		}
		var cp []telemetry.Sample
		for _, smp := range s.samples {
			if smp.Time >= from && smp.Time <= to {
				cp = append(cp, smp)
			}
		}
		if len(cp) == 0 {
			continue
		}
		out = append(out, telemetry.Series{Name: name, Labels: s.labels.Clone(), Samples: cp})
	}
	return out
}

func (db *refDB) latest(name string, matcher telemetry.Labels) []telemetry.Point {
	var out []telemetry.Point
	for _, s := range db.sorted(name) {
		if !s.labels.Matches(matcher) || len(s.samples) == 0 {
			continue
		}
		last := s.samples[len(s.samples)-1]
		out = append(out, telemetry.Point{Name: name, Labels: s.labels.Clone(), Time: last.Time, Value: last.Value})
	}
	return out
}

func (db *refDB) latestValue(name string, matcher telemetry.Labels) (float64, bool) {
	pts := db.latest(name, matcher)
	if len(pts) == 0 {
		return 0, false
	}
	return pts[len(pts)-1].Value, true
}

// tail returns the last series of name, in label-key order, that matches
// matcher and holds a sample: the one LatestValue answers from.
func (db *refDB) tail(name string, matcher telemetry.Labels) *refSeries {
	list := db.sorted(name)
	for i := len(list) - 1; i >= 0; i-- {
		if list[i].labels.Matches(matcher) && len(list[i].samples) > 0 {
			return list[i]
		}
	}
	return nil
}

// sorted returns the metric's series in label-key order.
func (db *refDB) sorted(name string) []*refSeries {
	fams := db.byName[name]
	keys := make([]string, 0, len(fams))
	for k := range fams {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*refSeries, len(keys))
	for i, k := range keys {
		out[i] = fams[k]
	}
	return out
}

// queryRollup recomputes the rollup offline: downsample over the full
// (untruncated) history of each matching series — valid because the
// workload registers retention-affected rules before ingestion starts, so
// the continuous engine saw every sample too.
func (db *refDB) queryRollup(name string, matcher telemetry.Labels, step time.Duration, agg Agg, from, to time.Duration) []telemetry.Series {
	var out []telemetry.Series
	for _, s := range db.sorted(name) {
		if !s.labels.Matches(matcher) {
			continue
		}
		full := downsample(telemetry.Series{Name: name, Labels: s.labels.Clone(), Samples: s.all}, step, agg)
		var cp []telemetry.Sample
		for _, smp := range full.Samples {
			if smp.Time >= from && smp.Time <= to {
				cp = append(cp, smp)
			}
		}
		if len(cp) == 0 {
			continue
		}
		out = append(out, telemetry.Series{Name: name, Labels: full.Labels, Samples: cp})
	}
	return out
}

// workloadLabels is the label pool the randomized workload draws from.
func workloadLabels(rng *rand.Rand) telemetry.Labels {
	l := telemetry.Labels{"node": fmt.Sprintf("n%d", rng.Intn(8))}
	if rng.Intn(3) == 0 {
		l["job"] = fmt.Sprintf("j%d", rng.Intn(4))
	}
	if rng.Intn(5) == 0 {
		l["rack"] = fmt.Sprintf("r%d", rng.Intn(2))
	}
	return l
}

func workloadMatcher(rng *rand.Rand) telemetry.Labels {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return telemetry.Labels{"node": fmt.Sprintf("n%d", rng.Intn(8))}
	case 2:
		return telemetry.Labels{"job": fmt.Sprintf("j%d", rng.Intn(4))}
	default:
		return telemetry.Labels{"node": fmt.Sprintf("n%d", rng.Intn(8)), "rack": fmt.Sprintf("r%d", rng.Intn(2))}
	}
}

// refPool plays the collectors' side of the telemetry.Ref contract for the
// randomized workload: one Ref per (name, labels), handed out again every
// time the identity recurs — and, playing a buggy owner, now and then a Ref
// that belongs to another identity.
type refPool struct {
	byID map[string]*pooledRef
	all  []*pooledRef
}

// refShape is what a store can check a memo against without comparing label
// sets: the metric name and the label count.
type refShape struct {
	name    string
	nlabels int
}

type pooledRef struct {
	ref telemetry.Ref
	// shapes is every shape this Ref has ridden on, its own included.
	shapes map[refShape]bool
}

// attach gives about half of the points a Ref. One in twenty of those is
// re-pointed: it rides another identity's Ref, which the store must notice.
// Only Refs that never carried the point's name and label count are
// candidates — two equal-sized label sets under one name are the owner's
// half of the contract (see package telemetry), not something a store can
// tell apart.
func (rp *refPool) attach(rng *rand.Rand, p *telemetry.Point) {
	if rng.Intn(2) == 0 {
		return
	}
	shape := refShape{p.Name, len(p.Labels)}
	id := p.Name + "\x00" + p.Labels.Key()
	pr := rp.byID[id]
	if pr == nil {
		pr = &pooledRef{shapes: map[refShape]bool{shape: true}}
		rp.byID[id] = pr
		rp.all = append(rp.all, pr)
	}
	if rng.Intn(20) == 0 {
		if o := rp.all[rng.Intn(len(rp.all))]; !o.shapes[shape] {
			o.shapes[shape] = true
			pr = o
		}
	}
	p.Ref = &pr.ref
}

// TestStoreMatchesReference runs randomized append/query/retention/rollup
// workloads against the indexed DB and the single-map reference and demands
// identical results throughout. Half the points carry series refs that are
// reused across rounds and sometimes re-pointed; a second DB (twin) is fed
// the same points with the same refs a few operations late, so each store
// runs on its own warm memos for a while and then finds the other's, which
// it must not follow. A fixed set of read handles is checked against the
// reference after every op while ops grow their match sets at the end, cut
// their answers' history by retention, and read them on a DB restored from
// a snapshot.
func TestStoreMatchesReference(t *testing.T) {
	retentions := []time.Duration{0, 0, 45 * time.Second, 3 * time.Minute}
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			retention := retentions[rng.Intn(len(retentions))]
			db := New(retention)
			twin := New(retention)
			ref := newRefDB(retention)
			refs := &refPool{byID: make(map[string]*pooledRef)}

			// Rules whose equivalence depends on seeing every raw sample are
			// registered before ingestion; a mean rule is added mid-workload
			// in retention-free runs to exercise backfill.
			upfront := []RollupRule{
				{Metric: "m0", Step: 5 * time.Second, Agg: AggMax},
				{Metric: "m1", Step: 7 * time.Second, Agg: AggP95},
			}
			for _, r := range upfront {
				if err := db.AddRollup(r); err != nil {
					t.Fatal(err)
				}
				if err := twin.AddRollup(r); err != nil {
					t.Fatal(err)
				}
				ref.rules = append(ref.rules, r)
			}
			lateRule := RollupRule{Metric: "m0", Step: 3 * time.Second, Agg: AggMean}

			// The twin's backlog: appends the other two stores have seen.
			type lateOp struct {
				pts     []telemetry.Point
				batch   bool
				wantErr bool
			}
			var late []lateOp
			catchUp := func(op int) {
				for _, lo := range late {
					var gotErr bool
					if lo.batch {
						gotErr = twin.AppendBatch(lo.pts) != nil
					} else {
						gotErr = twin.Append(lo.pts[0]) != nil
					}
					if gotErr != lo.wantErr {
						t.Fatalf("op %d: twin append error = %v, ref %v for %v", op, gotErr, lo.wantErr, lo.pts)
					}
				}
				late = late[:0]
			}

			// appendBoth is one single append the twin sees late.
			appendBoth := func(op int, p telemetry.Point) {
				gotErr := db.Append(p) != nil
				wantErr := ref.append(p) != nil
				if gotErr != wantErr {
					t.Fatalf("op %d: append error mismatch: db=%v ref=%v for %v", op, gotErr, wantErr, p)
				}
				late = append(late, lateOp{pts: []telemetry.Point{p}, wantErr: wantErr})
			}
			// handles are read after every op and must answer as the
			// reference's LatestValue does: an exact identity, partial
			// matchers, an empty matcher, and a metric that only the
			// handle-growing op ever creates. They are never reset, so
			// their memos see every later series, retention cut and
			// restored DB.
			handles := []*telemetry.Handle{
				{Name: "m0", Matcher: telemetry.Labels{"job": "j2", "node": "n1", "rack": "r1"}},
				{Name: "m0", Matcher: telemetry.Labels{"node": "n4"}},
				{Name: "m1", Matcher: telemetry.Labels{"job": "j0"}},
				{Name: "m2"},
				{Name: "m3", Matcher: telemetry.Labels{"node": "n2"}},
			}
			checkHandles := func(op int, which string, db *DB) {
				for _, h := range handles {
					gv, gok := db.LatestValue(h)
					wv, wok := ref.latestValue(h.Name, h.Matcher)
					if gok != wok || gv != wv {
						t.Fatalf("op %d: %s handle %s%s = (%v, %v), want (%v, %v)", op, which, h.Name, h.Matcher, gv, gok, wv, wok)
					}
				}
			}

			var now time.Duration
			names := []string{"m0", "m1", "m2"}
			const ops = 3000
			for op := 0; op < ops; op++ {
				if rng.Intn(8) == 0 {
					catchUp(op)
				}
				if retention == 0 && op == ops/2 {
					if err := db.AddRollup(lateRule); err != nil {
						t.Fatal(err)
					}
					ref.rules = append(ref.rules, lateRule)
				}
				switch r := rng.Intn(100); {
				case r < 2: // a series sorting after a handle's matches, or its first
					h := handles[rng.Intn(len(handles))]
					labels := telemetry.Labels{"zz": fmt.Sprintf("k%d", op)}
					for k, v := range h.Matcher {
						labels[k] = v
					}
					appendBoth(op, telemetry.Point{Name: h.Name, Labels: labels, Time: now, Value: float64(op)})
				case r < 3 && retention > 0: // retention drops a handle's answer's history
					h := handles[rng.Intn(len(handles))]
					if tail := ref.tail(h.Name, h.Matcher); tail != nil {
						now += retention + time.Second
						appendBoth(op, telemetry.Point{Name: h.Name, Labels: tail.labels, Time: now, Value: float64(op)})
					}
				case r < 4: // a fresh DB restored from a snapshot reads the handles
					snap, err := db.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					restored := New(retention)
					if err := restored.RestoreSnapshot(snap); err != nil {
						t.Fatal(err)
					}
					checkHandles(op, "restored", restored)
					// Then the two part ways: a last match only the
					// restored DB holds answers there, and not on db.
					for i, h := range handles {
						labels := telemetry.Labels{"zz": fmt.Sprintf("r%d", op)}
						for k, v := range h.Matcher {
							labels[k] = v
						}
						if err := restored.Append(telemetry.Point{Name: h.Name, Labels: labels, Time: now, Value: float64(-1 - i)}); err != nil {
							t.Fatal(err)
						}
					}
					for i, h := range handles {
						if v, ok := restored.LatestValue(h); !ok || v != float64(-1-i) {
							t.Fatalf("op %d: restored handle %s%s = (%v, %v), want (%d, true)", op, h.Name, h.Matcher, v, ok, -1-i)
						}
					}
				case r < 55: // single append
					p := telemetry.Point{
						Name:   names[rng.Intn(len(names))],
						Labels: workloadLabels(rng),
						Time:   now - time.Duration(rng.Intn(4))*time.Second, // occasionally out of order
						Value:  float64(rng.Intn(1000)) / 10,
					}
					if rng.Intn(50) == 0 {
						p.Name = "" // both must reject
					}
					if rng.Intn(50) == 0 {
						p.Value = math.NaN()
					}
					refs.attach(rng, &p)
					gotErr := db.Append(p) != nil
					wantErr := ref.append(p) != nil
					if gotErr != wantErr {
						t.Fatalf("op %d: append error mismatch: db=%v ref=%v for %v", op, gotErr, wantErr, p)
					}
					late = append(late, lateOp{pts: []telemetry.Point{p}, wantErr: wantErr})
					now += time.Duration(rng.Intn(3)) * time.Second
				case r < 70: // batch append
					n := 1 + rng.Intn(12)
					pts := make([]telemetry.Point, n)
					for i := range pts {
						pts[i] = telemetry.Point{
							Name:   names[rng.Intn(len(names))],
							Labels: workloadLabels(rng),
							Time:   now,
							Value:  float64(rng.Intn(1000)) / 10,
						}
						refs.attach(rng, &pts[i])
						now += time.Duration(rng.Intn(2)) * time.Second
					}
					gotErr := db.AppendBatch(pts) != nil
					var wantErr bool
					for _, p := range pts {
						if ref.append(p) != nil {
							wantErr = true
						}
					}
					if gotErr != wantErr {
						t.Fatalf("op %d: batch error mismatch", op)
					}
					late = append(late, lateOp{pts: pts, batch: true, wantErr: wantErr})
				case r < 85: // range query
					name := names[rng.Intn(len(names))]
					matcher := workloadMatcher(rng)
					from := time.Duration(rng.Intn(int(now/time.Second)+1)) * time.Second
					to := from + time.Duration(rng.Intn(120))*time.Second
					got := db.Query(name, matcher, from, to)
					want := ref.query(name, matcher, from, to)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("op %d: query(%s, %v, %v, %v) mismatch:\n got %v\nwant %v", op, name, matcher, from, to, got, want)
					}
				case r < 95: // instant lookups
					name := names[rng.Intn(len(names))]
					matcher := workloadMatcher(rng)
					if !reflect.DeepEqual(db.Latest(name, matcher), ref.latest(name, matcher)) {
						t.Fatalf("op %d: Latest mismatch", op)
					}
					gv, gok := db.LatestValue(&telemetry.Handle{Name: name, Matcher: matcher})
					wv, wok := ref.latestValue(name, matcher)
					if gok != wok || gv != wv {
						t.Fatalf("op %d: LatestValue = (%v, %v), want (%v, %v)", op, gv, gok, wv, wok)
					}
				default: // metadata
					if got, want := db.Appended(), ref.appended; got != want {
						t.Fatalf("op %d: Appended = %d, want %d", op, got, want)
					}
					refSeriesCount := 0
					for _, fams := range ref.byName {
						refSeriesCount += len(fams)
					}
					if got := db.NumSeries(); got != refSeriesCount {
						t.Fatalf("op %d: NumSeries = %d, want %d", op, got, refSeriesCount)
					}
				}
				checkHandles(op, "db", db)
			}

			// Final sweep: every metric's full window, plus every rollup.
			catchUp(ops)
			for _, name := range append(names, "m3") {
				got := db.Query(name, nil, 0, now+time.Hour)
				want := ref.query(name, nil, 0, now+time.Hour)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("final query %s mismatch:\n got %v\nwant %v", name, got, want)
				}
				if got := twin.Query(name, nil, 0, now+time.Hour); !reflect.DeepEqual(got, want) {
					t.Fatalf("final query %s mismatch on the twin:\n got %v\nwant %v", name, got, want)
				}
			}
			if got, want := twin.Appended(), ref.appended; got != want {
				t.Fatalf("twin Appended = %d, want %d", got, want)
			}
			for _, rule := range ref.rules {
				got, ok := db.QueryRollup(rule.Metric, nil, rule.Step, rule.Agg, 0, now+time.Hour)
				if !ok {
					t.Fatalf("rollup %v not registered on the DB", rule)
				}
				want := ref.queryRollup(rule.Metric, nil, rule.Step, rule.Agg, 0, now+time.Hour)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("rollup %v mismatch:\n got %v\nwant %v", rule, got, want)
				}
			}
		})
	}
}
