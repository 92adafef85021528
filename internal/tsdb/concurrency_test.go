package tsdb

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"autoloop/internal/telemetry"
)

// TestConcurrentAppendQueryRollup hammers the store from parallel
// appenders, queriers, and a mid-flight rollup registration; run under
// -race in CI it guards the locking discipline.
func TestConcurrentAppendQueryRollup(t *testing.T) {
	db := New(time.Hour)
	if err := db.AddRollup(RollupRule{Metric: "c.load", Step: 4 * time.Second, Agg: AggMean}); err != nil {
		t.Fatal(err)
	}
	const writers, samples = 8, 400
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			labels := telemetry.Labels{"node": fmt.Sprintf("w%d", w)}
			for i := 0; i < samples; i++ {
				p := telemetry.Point{Name: "c.load", Labels: labels, Time: time.Duration(i) * time.Second, Value: float64(i)}
				if err := db.Append(p); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				db.Query("c.load", telemetry.Labels{"node": "w0"}, 0, time.Hour)
				db.Latest("c.load", nil)
				db.LatestValue("c.load", telemetry.Labels{"node": "w1"})
				db.QueryRollup("c.load", nil, 4*time.Second, AggMean, 0, time.Hour)
				db.NumSeries()
				db.Appended()
			}
		}()
	}
	// A second rule lands while writers are running: backfill must not race.
	if err := db.AddRollup(RollupRule{Metric: "c.load", Step: 8 * time.Second, Agg: AggMax}); err != nil {
		t.Fatal(err)
	}
	// Writers finish first, then readers are told to stop.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	time.Sleep(10 * time.Millisecond)
	close(stop)
	<-done

	if got := db.Appended(); got != writers*samples {
		t.Errorf("Appended = %d, want %d", got, writers*samples)
	}
	if got := db.NumSeries(); got != writers {
		t.Errorf("NumSeries = %d, want %d", got, writers)
	}
	ss, ok := db.QueryRollup("c.load", nil, 8*time.Second, AggMax, 0, time.Hour)
	if !ok || len(ss) != writers {
		t.Errorf("late rollup has %d series (ok=%v), want %d", len(ss), ok, writers)
	}
}

// ordered reports whether samples are strictly time-ordered.
func ordered(samples []telemetry.Sample) bool {
	for i := 1; i < len(samples); i++ {
		if samples[i].Time <= samples[i-1].Time {
			return false
		}
	}
	return true
}

// TestConcurrentBatchWriterReaders is the deployment shape: one AppendBatch
// writer of multi-chunk rounds beside readers on every read path that takes
// the lock on its own — LatestInto, QueryVisit, QueryRollup, Snapshot — and
// a rollup registered mid-flight. Readers run between the writer's chunks,
// so what they must see is each series time-ordered and never running
// backwards; the final store must equal one built serially. Run under -race
// it guards the single lock.
func TestConcurrentBatchWriterReaders(t *testing.T) {
	const nodes, metrics, rounds = 500, 5, 20 // 2500 points a round: three chunks
	early := RollupRule{Metric: "node.metric0", Step: 4 * time.Second, Agg: AggMean}
	late := RollupRule{Metric: "node.metric1", Step: 8 * time.Second, Agg: AggMax}
	db := New(0)
	if err := db.AddRollup(early); err != nil {
		t.Fatal(err)
	}
	refs := make([]telemetry.Ref, nodes*metrics)
	written := make(chan struct{})
	go func() {
		defer close(written)
		for r := 0; r < rounds; r++ {
			if err := db.AppendBatch(refRound(refs, nodes, metrics, time.Duration(r)*time.Second)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// until runs read again and again while the writer runs, and once more
	// after it has finished.
	var wg sync.WaitGroup
	until := func(read func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for done := false; !done; {
				select {
				case <-written:
					done = true
				default:
				}
				read()
			}
		}()
	}
	rack := telemetry.Labels{"rack": "r03"}
	until(func() {
		db.QueryVisit("node.metric2", rack, 0, time.Hour, func(l telemetry.Labels, samples []telemetry.Sample) {
			if !ordered(samples) {
				t.Errorf("QueryVisit: node.metric2%s out of order", l)
			}
		})
	})
	var buf []telemetry.Point
	newest := map[string]time.Duration{}
	until(func() {
		buf = db.LatestInto(buf[:0], "node.metric3", rack)
		for _, p := range buf {
			if node := p.Labels["node"]; p.Time < newest[node] {
				t.Errorf("LatestInto: node.metric3{node=%s} ran backwards: %v after %v", node, p.Time, newest[node])
			} else {
				newest[node] = p.Time
			}
		}
	})
	until(func() {
		ss, ok := db.QueryRollup(early.Metric, rack, early.Step, early.Agg, 0, time.Hour)
		if !ok {
			t.Error("QueryRollup: registered rule not found")
		}
		for _, s := range ss {
			if !ordered(s.Samples) {
				t.Errorf("QueryRollup: %s%s out of order", s.Name, s.Labels)
			}
		}
	})
	until(func() {
		data, err := db.Snapshot()
		if err != nil {
			t.Error(err)
			return
		}
		var snap dbSnap
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Error(err)
			return
		}
		var total uint64
		for _, s := range snap.Series {
			if !ordered(s.Samples) {
				t.Errorf("Snapshot: %s%s out of order", s.Name, s.Labels)
			}
			total += uint64(len(s.Samples))
		}
		// One hold of the lock: the counter and the samples are one cut.
		if total != snap.Appended {
			t.Errorf("Snapshot: %d samples beside Appended = %d", total, snap.Appended)
		}
	})
	if err := db.AddRollup(late); err != nil {
		t.Fatal(err)
	}
	<-written
	wg.Wait()

	serial := New(0)
	for _, rule := range []RollupRule{early, late} {
		if err := serial.AddRollup(rule); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < rounds; r++ {
		if err := serial.AppendBatch(refRound(make([]telemetry.Ref, nodes*metrics), nodes, metrics, time.Duration(r)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := dumpDB(t, db), dumpDB(t, serial); string(a) != string(b) {
		t.Fatal("store written beside readers differs from one built serially")
	}
}

// refRound builds one sampling round over nodes×metrics static series the
// way a collector with a per-entity memo does: one label map per node, one
// Ref per series (refs[n*metrics+m]), shared by every round built from the
// same refs.
func refRound(refs []telemetry.Ref, nodes, metrics int, at time.Duration) []telemetry.Point {
	pts := make([]telemetry.Point, 0, nodes*metrics)
	for n := 0; n < nodes; n++ {
		labels := telemetry.Labels{"node": fmt.Sprintf("n%03d", n), "rack": fmt.Sprintf("r%02d", n/8)}
		for m := 0; m < metrics; m++ {
			pts = append(pts, telemetry.Point{
				Name: fmt.Sprintf("node.metric%d", m), Labels: labels,
				Time: at, Value: float64(n*metrics + m), Ref: &refs[n*metrics+m],
			})
		}
	}
	return pts
}

// TestConcurrentAppendBatchSharedRefs has several goroutines append their
// own batches, all carrying the same Refs, into two stores at once: the
// memos are resolved, stolen by the other store and re-resolved while other
// goroutines read them. Every goroutine appends every round, so a slower one
// is rejected as out of order or overwrites an equal value; what must hold
// is that each store ends with every series holding every round exactly
// once. Run under -race it guards the memo's lock-free read.
func TestConcurrentAppendBatchSharedRefs(t *testing.T) {
	const nodes, metrics, rounds, workers = 24, 5, 40, 4
	refs := make([]telemetry.Ref, nodes*metrics)
	dbs := []*DB{New(0), New(0)}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				pts := refRound(refs, nodes, metrics, time.Duration(r)*time.Second)
				// Errors are out-of-order rejections of a lagging worker.
				_ = dbs[(w+r)%2].AppendBatch(pts)
				_ = dbs[(w+r+1)%2].AppendBatch(pts)
			}
		}()
	}
	wg.Wait()
	for i, db := range dbs {
		if got := db.NumSeries(); got != nodes*metrics {
			t.Errorf("db %d: NumSeries = %d, want %d", i, got, nodes*metrics)
		}
		if got := db.Appended(); got != nodes*metrics*rounds {
			t.Errorf("db %d: Appended = %d, want %d", i, got, nodes*metrics*rounds)
		}
		for m := 0; m < metrics; m++ {
			for _, s := range db.Query(fmt.Sprintf("node.metric%d", m), nil, 0, time.Hour) {
				if len(s.Samples) != rounds {
					t.Fatalf("db %d: %s%s has %d samples, want %d", i, s.Name, s.Labels, len(s.Samples), rounds)
				}
				for r, smp := range s.Samples {
					if smp.Time != time.Duration(r)*time.Second || smp.Value != s.Samples[0].Value {
						t.Fatalf("db %d: %s%s sample %d = %v", i, s.Name, s.Labels, r, smp)
					}
				}
			}
		}
	}
}
