package tsdb

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"testing"
	"time"

	"autoloop/internal/telemetry"
	"autoloop/internal/wal"
)

// binarySnap builds a one-series binary snapshot of metric "m" holding
// samples, encoded as given, so a test can write what Snapshot never would.
func binarySnap(samples []telemetry.Sample) []byte {
	b := append([]byte(snapMagic), 0, 1) // appended 0, one series
	b = append(b, 1, 'm', 0, 0)          // name "m", no labels, no journal id
	b = appendSamplesEnc(b, logOf(samples))
	return append(b, 0) // no rollups
}

// TestRestoreSnapshotRejectsInvalid feeds RestoreSnapshot payloads a
// snapshot checksum would pass but the store's invariants do not, in both
// forms. Before validation the first two restored: the zero step made the
// next append divide by zero, and the unordered samples made Query return
// the 5s sample for [0, 2s]. Each must now fail and leave the store empty.
func TestRestoreSnapshotRejectsInvalid(t *testing.T) {
	valid := func() []byte {
		db := New(0)
		if err := db.Append(telemetry.Point{Name: "m", Time: time.Second, Value: 1}); err != nil {
			t.Fatal(err)
		}
		b, err := db.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}()
	// A repeated time on a chunk's first slot: the order check must span
	// the chunk boundary.
	straddle := make([]telemetry.Sample, chunkSize+1)
	for i := range straddle {
		straddle[i] = telemetry.Sample{Time: time.Duration(i) * time.Second, Value: 1}
	}
	straddle[chunkSize].Time = straddle[chunkSize-1].Time
	cases := []struct {
		name    string
		payload []byte
	}{
		{"zero rollup step", []byte(`{"appended":1,"series":[{"name":"m","samples":[{"Time":1000000000,"Value":1}],"rollups":[{"step":0,"agg":0,"bucket":0}]}]}`)},
		{"unordered samples", []byte(`{"appended":2,"series":[{"name":"m","samples":[{"Time":5000000000,"Value":1},{"Time":1000000000,"Value":2}]}]}`)},
		{"repeated sample time", []byte(`{"appended":2,"series":[{"name":"m","samples":[{"Time":1000000000,"Value":1},{"Time":1000000000,"Value":2}]}]}`)},
		{"no name", []byte(`{"series":[{"name":""}]}`)},
		{"duplicate series", []byte(`{"series":[{"name":"m","labels":{"a":"b"}},{"name":"m","labels":{"a":"b"}}]}`)},
		{"unknown aggregation", []byte(`{"series":[{"name":"m","rollups":[{"step":1000000000,"agg":10,"bucket":0}]}]}`)},
		{"negative aggregation", []byte(`{"series":[{"name":"m","rollups":[{"step":1000000000,"agg":-1,"bucket":0}]}]}`)},
		{"repeated rule", []byte(`{"series":[{"name":"m","rollups":[{"step":1000000000,"agg":3,"bucket":0},{"step":1000000000,"agg":3,"retention":5,"bucket":0}]}]}`)},
		{"unordered rollup samples", []byte(`{"series":[{"name":"m","rollups":[{"step":1000000000,"agg":0,"bucket":0,"samples":[{"Time":2000000000,"Value":1},{"Time":1000000000,"Value":1}]}]}]}`)},
		{"malformed JSON", []byte(`{"series":[`)},
		{"binary NaN", binarySnap([]telemetry.Sample{{Time: time.Second, Value: math.NaN()}})},
		{"binary +Inf", binarySnap([]telemetry.Sample{{Time: time.Second, Value: math.Inf(1)}})},
		{"binary zero delta", binarySnap([]telemetry.Sample{{Time: time.Second, Value: 1}, {Time: time.Second, Value: 2}})},
		{"binary wrapped delta", binarySnap([]telemetry.Sample{{Time: 5 * time.Second, Value: 1}, {Time: time.Second, Value: 2}})},
		{"binary zero delta across a chunk boundary", binarySnap(straddle)},
		{"binary trailing byte", append(valid[:len(valid):len(valid)], 0)},
		{"binary huge series count", append([]byte(snapMagic), 0, 0xff, 0xff, 0xff, 0xff, 0x0f)},
		{"binary journal id gap", append([]byte(snapMagic), 0, 1, 1, 'm', 0, 2, 0, 0)},
		{"binary repeated journal id", append([]byte(snapMagic), 0, 2, 1, 'm', 0, 1, 0, 0, 1, 'n', 0, 1, 0, 0)},
		{"binary journal id past 32 bits", append([]byte(snapMagic), 0, 1, 1, 'm', 0, 0x81, 0x80, 0x80, 0x80, 0x10, 0, 0)},
	}
	for cut := len(snapMagic); cut < len(valid); cut++ {
		cases = append(cases, struct {
			name    string
			payload []byte
		}{"binary truncated", valid[:cut]})
	}
	for _, tc := range cases {
		db := New(0)
		if err := db.RestoreSnapshot(tc.payload); err == nil {
			t.Errorf("%s: restored", tc.name)
		}
		if db.NumSeries() != 0 || db.Appended() != 0 {
			t.Errorf("%s: a rejected snapshot left %d series, %d samples", tc.name, db.NumSeries(), db.Appended())
		}
	}
	if err := New(0).RestoreSnapshot(valid); err != nil {
		t.Fatalf("the untruncated snapshot: %v", err)
	}
}

// TestAddRollupRejectsUnknownAgg keeps the store from holding a rule its
// own snapshot could not be restored with.
func TestAddRollupRejectsUnknownAgg(t *testing.T) {
	if err := New(0).AddRollup(RollupRule{Metric: "m", Step: time.Second, Agg: AggStddev + 1}); err == nil {
		t.Fatal("rule with an unknown aggregation accepted")
	}
}

// parentSnapshotTSDB returns the "tsdb" member of the parent-format daemon
// snapshot in testdata/parent_wal: the store's earlier JSON form.
func parentSnapshotTSDB(tb testing.TB) []byte {
	tb.Helper()
	payload, _, ok, err := wal.LatestSnapshot("testdata/parent_wal", "modad")
	if err != nil || !ok {
		tb.Fatalf("LatestSnapshot: ok=%v err=%v", ok, err)
	}
	var snap struct {
		TSDB json.RawMessage `json:"tsdb"`
	}
	if err := json.Unmarshal(payload, &snap); err != nil {
		tb.Fatal(err)
	}
	return snap.TSDB
}

// FuzzSnapshotRestore feeds RestoreSnapshot arbitrary bytes, seeded with the
// parent-format JSON payload, a binary snapshot of a small store with a
// rollup, and one of a journaled store, whose series carry journal ids. Properties: neither the restore nor one append to every restored
// series afterwards panics; a rejected payload leaves the store empty; the
// binary decode allocates at most a fixed multiple of its input, whatever
// counts the input claims; and an accepted payload round-trips — Snapshot,
// RestoreSnapshot, Snapshot again gives the same bytes.
func FuzzSnapshotRestore(f *testing.F) {
	f.Add(parentSnapshotTSDB(f))
	small := New(0)
	if err := small.AddRollup(RollupRule{Metric: "node.power.watts", Step: 10 * time.Second, Agg: AggP95, Retention: time.Hour}); err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		at := time.Duration(i) * time.Second
		small.Append(jpt("node.power.watts", "n01", at, float64(i)))
		small.Append(jpt("node.temp.celsius", "n02", at, -float64(i)/3))
	}
	bin, err := small.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bin)
	// The same store journaled: its series carry journal ids.
	journaled := New(0)
	journaled.Journal(&recordingJournal{})
	if err := journaled.AppendBatch(small.Latest("node.temp.celsius", nil)); err != nil {
		f.Fatal(err)
	}
	if err := journaled.Append(jpt("node.power.watts", "n01", 0, 1)); err != nil {
		f.Fatal(err)
	}
	if bin, err = journaled.Snapshot(); err != nil {
		f.Fatal(err)
	}
	f.Add(bin)
	f.Fuzz(func(t *testing.T, data []byte) {
		if body, ids, ok := binarySnapshot(data); ok {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			decodeSnapshotBinary(body, ids)
			runtime.ReadMemStats(&after)
			// A one-label map is a few hundred bytes from six input bytes;
			// a corrupt count would be gigabytes.
			if got, limit := after.TotalAlloc-before.TotalAlloc, 128*uint64(len(data))+64<<10; got > limit {
				t.Fatalf("decoding %d bytes allocated %d, want <= %d", len(data), got, limit)
			}
		}
		db := New(time.Hour)
		if err := db.RestoreSnapshot(data); err != nil {
			if db.NumSeries() != 0 || db.Appended() != 0 {
				t.Fatalf("rejected snapshot (%v) left %d series behind", err, db.NumSeries())
			}
			return
		}
		first, err := db.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot of a restored store: %v", err)
		}
		again := New(time.Hour)
		if err := again.RestoreSnapshot(first); err != nil {
			t.Fatalf("RestoreSnapshot of a Snapshot: %v", err)
		}
		if second, err := again.Snapshot(); err != nil || !bytes.Equal(first, second) {
			t.Fatalf("second Snapshot (err=%v) differs from the first", err)
		}
		snap, err := decodeSnapshot(data)
		if err != nil {
			t.Fatalf("decodeSnapshot rejects what RestoreSnapshot took: %v", err)
		}
		for _, ss := range snap.Series {
			p := telemetry.Point{Name: ss.Name, Labels: ss.Labels, Value: 1}
			if last := ss.Samples.last(); last != nil {
				p.Time = last.Time + 1
			}
			// An error (a time that wrapped, a series restored behind
			// it) is fine; a panic is not.
			_ = db.Append(p)
		}
	})
}
