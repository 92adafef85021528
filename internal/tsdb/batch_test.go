package tsdb

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"autoloop/internal/telemetry"
	"autoloop/internal/wal"
)

// countingJournal is a Journaler that keeps nothing but the payload size, so
// a gate on the store's side of journaling does not measure a WAL's segment
// rotation.
type countingJournal struct{ records, bytes uint64 }

func (j *countingJournal) Append(_ uint8, payload []byte) (uint64, error) {
	j.records++
	j.bytes += uint64(len(payload))
	return j.records, nil
}

func TestAppendBatchMatchesPerPointAppend(t *testing.T) {
	batched := New(0)
	perPoint := New(0)
	var pts []telemetry.Point
	for i := 0; i < 10; i++ {
		pts = append(pts,
			telemetry.Point{Name: "a", Labels: telemetry.Labels{"n": "1"}, Time: time.Duration(i) * time.Second, Value: float64(i)},
			telemetry.Point{Name: "b", Time: time.Duration(i) * time.Second, Value: float64(-i)},
		)
	}
	if err := batched.AppendBatch(pts); err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if err := perPoint.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if batched.Appended() != perPoint.Appended() {
		t.Errorf("Appended: batched %d, per-point %d", batched.Appended(), perPoint.Appended())
	}
	for _, name := range []string{"a", "b"} {
		got := batched.Query(name, nil, 0, time.Hour)
		want := perPoint.Query(name, nil, 0, time.Hour)
		if len(got) != len(want) {
			t.Fatalf("%s: %d series vs %d", name, len(got), len(want))
		}
		for i := range got {
			if len(got[i].Samples) != len(want[i].Samples) {
				t.Fatalf("%s[%d]: %d samples vs %d", name, i, len(got[i].Samples), len(want[i].Samples))
			}
			for j := range got[i].Samples {
				if got[i].Samples[j] != want[i].Samples[j] {
					t.Fatalf("%s[%d][%d]: %v vs %v", name, i, j, got[i].Samples[j], want[i].Samples[j])
				}
			}
		}
	}
}

func TestAppendBatchFirstErrorAttemptsAll(t *testing.T) {
	db := New(0)
	pts := []telemetry.Point{
		{Name: "ok", Time: time.Second, Value: 1},
		{Name: "", Time: time.Second, Value: 2}, // invalid: empty name
		{Name: "ok", Time: 2 * time.Second, Value: 3},
	}
	if err := db.AppendBatch(pts); err == nil {
		t.Fatal("want error for empty metric name")
	}
	ss := db.Query("ok", nil, 0, time.Hour)
	if len(ss) != 1 || len(ss[0].Samples) != 2 {
		t.Errorf("valid points not all appended: %+v", ss)
	}
	if err := db.AppendBatch(nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}

// TestAppendBatchChunks pins the chunked batch path: a journaled batch of
// 3×batchChunk+7 points with a rejected point in the second chunk and one
// in the last yields one record per chunk which, concatenated, decode to
// exactly the accepted points in batch order, each series defined once,
// with its first point, under the next id; the error returned is the
// earlier rejection's; and replaying the records rebuilds the store.
func TestAppendBatchChunks(t *testing.T) {
	const n = 3*batchChunk + 7
	rule := RollupRule{Metric: "chunk.m0", Step: 10 * time.Second, Agg: AggMean}
	db := New(0)
	if err := db.AddRollup(rule); err != nil {
		t.Fatal(err)
	}
	var j recordingJournal
	db.Journal(&j)
	pts := make([]telemetry.Point, n)
	for i := range pts {
		// 96 series, each advancing one second per visit.
		pts[i] = telemetry.Point{
			Name:   fmt.Sprintf("chunk.m%d", i%3),
			Labels: telemetry.Labels{"node": fmt.Sprintf("n%02d", i%32)},
			Time:   time.Duration(i/96) * time.Second, Value: float64(i),
		}
	}
	nanAt, emptyAt := batchChunk+5, 3*batchChunk+2
	pts[nanAt].Value = math.NaN()
	pts[emptyAt].Name = ""
	err := db.AppendBatch(pts)
	if err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("AppendBatch error = %v, want the NaN rejection at index %d", err, nanAt)
	}
	if got, want := len(j.records), (n+batchChunk-1)/batchChunk; got != want {
		t.Fatalf("%d journal records, want %d", got, want)
	}
	i := 0
	var defs []telemetry.Point // by journal id
	for r, rec := range j.records {
		if rec.Kind != wal.KindTSDBPoints {
			t.Fatalf("record %d is of kind %#x", r, rec.Kind)
		}
		d := decoder{buf: rec.Payload}
		var at time.Duration
		for len(d.buf) > 0 {
			e := d.entry(at)
			if d.err != nil {
				t.Fatalf("record %d: %v", r, d.err)
			}
			at = e.time
			if e.def {
				if e.id != uint64(len(defs)) {
					t.Fatalf("record %d defines id %d, want the next id %d", r, e.id, len(defs))
				}
				defs = append(defs, telemetry.Point{Name: e.name, Labels: e.labels})
			} else if e.id >= uint64(len(defs)) {
				t.Fatalf("record %d uses id %d before its definition", r, e.id)
			}
			got := defs[e.id]
			got.Time, got.Value = e.time, e.value
			if i == nanAt || i == emptyAt {
				i++ // rejected points never reach the journal
			}
			if i >= n {
				t.Fatalf("record %d carries more points than the batch accepted", r)
			}
			want := pts[i]
			if got.Name != want.Name || got.Labels.Key() != want.Labels.Key() || got.Time != want.Time || got.Value != want.Value {
				t.Fatalf("journaled point %d = %v, want %v", i, got, want)
			}
			i++
		}
	}
	if i != n {
		t.Fatalf("journal holds points up to batch index %d, want all %d", i, n)
	}
	if len(defs) != 96 {
		t.Fatalf("journal defines %d series, want 96", len(defs))
	}
	replayed := New(0)
	if err := replayed.AddRollup(rule); err != nil {
		t.Fatal(err)
	}
	j.replay(t, replayed)
	if a, b := dumpDB(t, db), dumpDB(t, replayed); string(a) != string(b) {
		t.Fatalf("replayed chunks diverge:\n live: %s\n walr: %s", a, b)
	}
}

// TestAppendBatchWarmRefAllocs gates the batch hot path the collectors'
// refs open: once every Ref of a round is resolved and the sample windows
// have reached their retained size, a round allocates nothing — journaled
// (a defined series' entry is its id, a time delta and the value) or not.
func TestAppendBatchWarmRefAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate skipped under the race detector")
	}
	for _, journaled := range []bool{false, true} {
		t.Run(fmt.Sprintf("wal=%v", journaled), func(t *testing.T) {
			db := New(time.Minute)
			var j countingJournal
			if journaled {
				db.Journal(&j)
			}
			const nodes, metrics = 32, 5
			refs := make([]telemetry.Ref, nodes*metrics)
			pts := refRound(refs, nodes, metrics, 0)
			round := 0
			appendRound := func() {
				round++
				retime(pts, round)
				if err := db.AppendBatch(pts); err != nil {
					t.Fatalf("AppendBatch: %v", err)
				}
			}
			for i := 0; i < 1024; i++ {
				appendRound()
			}
			if allocs := testing.AllocsPerRun(200, appendRound); allocs != 0 {
				t.Fatalf("warm-ref AppendBatch allocates %.1f/op, want 0", allocs)
			}
			if got := db.NumSeries(); got != nodes*metrics {
				t.Fatalf("NumSeries = %d, want %d", got, nodes*metrics)
			}
			if journaled && j.bytes == 0 {
				t.Fatal("journaled run emitted no records")
			}
		})
	}
}
