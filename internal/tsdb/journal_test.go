package tsdb

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"autoloop/internal/telemetry"
	"autoloop/internal/wal"
)

// dumpDB serializes every raw series and every registered rollup of the
// database to canonical JSON, the byte-identical comparison recovery tests
// rely on.
func dumpDB(t *testing.T, db *DB) []byte {
	t.Helper()
	type dump struct {
		Appended uint64
		Series   map[string][]telemetry.Series
		Rollups  map[string][]telemetry.Series
	}
	d := dump{Appended: db.Appended(), Series: map[string][]telemetry.Series{}, Rollups: map[string][]telemetry.Series{}}
	for _, name := range db.MetricNames() {
		d.Series[name] = db.Query(name, nil, 0, 1<<62)
		for _, rule := range db.rules {
			if rule.Metric != name {
				continue
			}
			if ss, ok := db.QueryRollup(name, nil, rule.Step, rule.Agg, 0, 1<<62); ok {
				d.Rollups[rule.String()] = ss
			}
		}
	}
	b, err := json.Marshal(&d)
	if err != nil {
		t.Fatalf("dump: %v", err)
	}
	return b
}

func jpt(name, node string, at time.Duration, v float64) telemetry.Point {
	return telemetry.Point{Name: name, Labels: telemetry.Labels{"node": node}, Time: at, Value: v}
}

// TestJournalReplayRoundTrip journals a mixed workload — multiple series,
// equal-timestamp overwrites, rejected appends — then replays the WAL into a
// fresh database and requires a byte-identical dump.
func TestJournalReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rule := RollupRule{Metric: "node.power.watts", Step: 10 * time.Second, Agg: AggMean, Retention: time.Hour}

	db1 := New(30 * time.Second)
	if err := db1.AddRollup(rule); err != nil {
		t.Fatalf("AddRollup: %v", err)
	}
	db1.Journal(w)
	for i := 0; i < 40; i++ {
		at := time.Duration(i) * time.Second
		if err := db1.Append(jpt("node.power.watts", "n01", at, 100+float64(i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if err := db1.Append(jpt("node.temp.celsius", "n01", at, 40+float64(i%7))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	// An equal-timestamp overwrite mutates the tail and must be journaled.
	if err := db1.Append(jpt("node.power.watts", "n01", 39*time.Second, 555)); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	// Rejected appends must NOT reach the journal.
	if err := db1.Append(jpt("node.power.watts", "n01", 5*time.Second, 1)); err == nil {
		t.Fatal("out-of-order append accepted")
	}
	if err := db1.Append(jpt("node.power.watts", "n01", 50*time.Second, math.NaN())); err == nil {
		t.Fatal("NaN append accepted")
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}

	db2 := New(30 * time.Second)
	if err := db2.AddRollup(rule); err != nil {
		t.Fatalf("AddRollup: %v", err)
	}
	r, err := w.Replay(1)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if err := db2.RestoreFrom(r); err != nil {
		t.Fatalf("RestoreFrom: %v", err)
	}
	r.Close()
	w.Close()

	if a, b := dumpDB(t, db1), dumpDB(t, db2); string(a) != string(b) {
		t.Fatalf("replayed DB diverges:\n live: %s\n walr: %s", a, b)
	}
}

// TestJournalBatchPath journals through AppendBatch with a failing point
// mixed in, and checks replay parity.
func TestJournalBatchPath(t *testing.T) {
	w, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	db1 := New(0)
	db1.Journal(w)
	var batch []telemetry.Point
	for n := 0; n < 32; n++ {
		batch = append(batch, jpt("job.nodes", string(rune('a'+n)), time.Minute, float64(n)))
	}
	batch = append(batch, telemetry.Point{Name: "", Time: time.Minute, Value: 1}) // rejected
	if err := db1.AppendBatch(batch); err == nil {
		t.Fatal("batch with invalid point reported no error")
	}
	if err := db1.AppendBatch(batch[:8]); err != nil { // equal-time overwrites, all journaled
		t.Fatalf("AppendBatch: %v", err)
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}

	db2 := New(0)
	r, err := w.Replay(1)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if err := db2.RestoreFrom(r); err != nil {
		t.Fatalf("RestoreFrom: %v", err)
	}
	r.Close()
	w.Close()
	if a, b := dumpDB(t, db1), dumpDB(t, db2); string(a) != string(b) {
		t.Fatalf("batch replay diverges:\n live: %s\n walr: %s", a, b)
	}
}

// TestJournalOffIsIdentical checks journaling does not perturb semantics:
// the same workload with and without a journal produces identical dumps.
func TestJournalOffIsIdentical(t *testing.T) {
	w, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer w.Close()
	run := func(j Journaler) *DB {
		db := New(time.Minute)
		db.AddRollup(RollupRule{Metric: "m", Step: 10 * time.Second, Agg: AggMax})
		if j != nil {
			db.Journal(j)
		}
		for i := 0; i < 200; i++ {
			db.Append(jpt("m", "x", time.Duration(i)*time.Second, float64(i)))
		}
		return db
	}
	if a, b := dumpDB(t, run(w)), dumpDB(t, run(nil)); string(a) != string(b) {
		t.Fatalf("journaling perturbed the store:\n on:  %s\n off: %s", a, b)
	}
}

// TestSnapshotRestoreRoundTrip exercises the explicit rollup-state carry:
// raw retention (30s) is far shorter than rollup retention, so the restored
// rollup history cannot be derived from the restored raw samples.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	rule := RollupRule{Metric: "node.power.watts", Step: 10 * time.Second, Agg: AggMean, Retention: time.Hour}
	db1 := New(30 * time.Second)
	if err := db1.AddRollup(rule); err != nil {
		t.Fatalf("AddRollup: %v", err)
	}
	for i := 0; i < 300; i++ {
		at := time.Duration(i) * time.Second
		if err := db1.Append(jpt("node.power.watts", "n01", at, float64(i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if i%2 == 0 {
			db1.Append(jpt("node.power.watts", "n02", at, float64(-i)))
		}
	}
	snap, err := db1.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	db2 := New(30 * time.Second)
	if err := db2.AddRollup(rule); err != nil {
		t.Fatalf("AddRollup: %v", err)
	}
	if err := db2.RestoreSnapshot(snap); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	if a, b := dumpDB(t, db1), dumpDB(t, db2); string(a) != string(b) {
		t.Fatalf("snapshot restore diverges:\n live: %s\n snap: %s", a, b)
	}
	// The open bucket must have been restored too: the next append on both
	// databases lands in the same partial bucket and they stay identical.
	next := jpt("node.power.watts", "n01", 300*time.Second, 1234)
	if err := db1.Append(next); err != nil {
		t.Fatalf("Append live: %v", err)
	}
	if err := db2.Append(next); err != nil {
		t.Fatalf("Append restored: %v", err)
	}
	if a, b := dumpDB(t, db1), dumpDB(t, db2); string(a) != string(b) {
		t.Fatalf("post-restore append diverges:\n live: %s\n snap: %s", a, b)
	}
	// Deterministic snapshot bytes for a given logical state.
	again, err := db2.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot again: %v", err)
	}
	snap1b, err := db1.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot live: %v", err)
	}
	if string(again) != string(snap1b) {
		t.Fatal("snapshot bytes differ for identical logical state")
	}
}

// TestSnapshotThenTailReplay is the full recovery sequence: restore a
// snapshot covering seq S, then replay the WAL tail from S+1 — including the
// overlap case where records <= S are re-applied and must be skipped.
func TestSnapshotThenTailReplay(t *testing.T) {
	w, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rule := RollupRule{Metric: "m", Step: 5 * time.Second, Agg: AggSum}
	db1 := New(0)
	db1.AddRollup(rule)
	db1.Journal(w)
	for i := 0; i < 50; i++ {
		if err := db1.Append(jpt("m", "n01", time.Duration(i)*time.Second, float64(i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	covered := w.LastSeq()
	snap, err := db1.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	for i := 50; i < 80; i++ {
		if err := db1.Append(jpt("m", "n01", time.Duration(i)*time.Second, float64(i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}

	restore := func(from uint64) *DB {
		db := New(0)
		db.AddRollup(rule)
		if err := db.RestoreSnapshot(snap); err != nil {
			t.Fatalf("RestoreSnapshot: %v", err)
		}
		r, err := w.Replay(from)
		if err != nil {
			t.Fatalf("Replay: %v", err)
		}
		defer r.Close()
		if err := db.RestoreFrom(r); err != nil {
			t.Fatalf("RestoreFrom: %v", err)
		}
		return db
	}
	want := dumpDB(t, db1)
	if got := dumpDB(t, restore(covered+1)); string(got) != string(want) {
		t.Fatalf("tail replay diverges:\n live: %s\n rec:  %s", want, got)
	}
	// Replaying the WHOLE log over the snapshot must also converge: records
	// the snapshot covers are skipped, except the counter-free tail
	// overwrite, so only sample data is compared via queries.
	full := restore(1)
	if got, wantQ := full.Query("m", nil, 0, 1<<62), db1.Query("m", nil, 0, 1<<62); !reflect.DeepEqual(got, wantQ) {
		t.Fatalf("overlap replay diverges: %v vs %v", got, wantQ)
	}
	w.Close()
}

// TestRecoverParentFormat recovers testdata/parent_wal — WAL segments plus a
// "modad" snapshot — and requires the dumpDB bytes the writer recorded. The
// directory was written by the store as of commit 000a4f6 (64 lock stripes,
// one record per touched stripe): four nodes × three metrics plus facility.pue
// appended by AppendBatch with Refs for 24 one-minute rounds under a 10 m
// retention and a 5 m mean rollup, the snapshot cut one round after the
// sequence it claims (so the tail overlaps it), one rejected out-of-order
// point and one equal-timestamp overwrite in the tail. It pins the journal
// and snapshot formats: a change to either must keep reading this, and a
// Snapshot of the restored store must return the parent's payload.
func TestRecoverParentFormat(t *testing.T) {
	dir := t.TempDir() // wal.Open truncates and rotates in place
	if err := os.CopyFS(dir, os.DirFS("testdata/parent_wal")); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/parent_wal.want.json")
	if err != nil {
		t.Fatal(err)
	}

	payload, _, ok, err := wal.LatestSnapshot(dir, "modad")
	if err != nil || !ok {
		t.Fatalf("LatestSnapshot: ok=%v err=%v", ok, err)
	}
	var snap struct {
		Seq  uint64          `json:"seq"`
		TSDB json.RawMessage `json:"tsdb"`
	}
	if err := json.Unmarshal(payload, &snap); err != nil {
		t.Fatalf("decode snapshot: %v", err)
	}
	db := New(10 * time.Minute)
	if err := db.AddRollup(RollupRule{Metric: "node.temp.celsius", Step: 5 * time.Minute, Agg: AggMean, Retention: 24 * time.Hour}); err != nil {
		t.Fatal(err)
	}
	if err := db.RestoreSnapshot(snap.TSDB); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	// The parent listed a snapshot's series by sorting on name+NUL+key; the
	// ordered families must list them the same way, byte for byte.
	if again, err := db.Snapshot(); err != nil || string(again) != string(snap.TSDB) {
		t.Fatalf("Snapshot of the restored store (err=%v) differs from the parent-written payload:\n want: %s\n got:  %s", err, snap.TSDB, again)
	}
	w, err := wal.Open(dir, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer w.Close()
	r, err := w.Replay(snap.Seq + 1)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	defer r.Close()
	if err := db.RestoreFrom(r); err != nil {
		t.Fatalf("RestoreFrom: %v", err)
	}
	if got := dumpDB(t, db); string(got) != string(want) {
		t.Fatalf("recovered store diverges from the writer's:\n want: %s\n got:  %s", want, got)
	}
}

// TestJournaledAppendAllocs gates the journaled append hot path: attaching a
// WAL must keep steady-state appends allocation-free.
func TestJournaledAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate skipped under the race detector")
	}
	w, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer w.Close()
	db := New(time.Hour)
	db.Journal(w)
	labels := telemetry.Labels{"node": "n01", "rack": "r1"}
	at := time.Duration(0)
	appendOne := func() {
		at += time.Second
		if err := db.Append(telemetry.Point{Name: "node.power.watts", Labels: labels, Time: at, Value: 42}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	for i := 0; i < 4096; i++ {
		appendOne()
	}
	if allocs := testing.AllocsPerRun(1000, appendOne); allocs != 0 {
		t.Fatalf("journaled append allocates %.1f/op, want 0", allocs)
	}
}

// TestRecoveryWithRefs is the recovery sequence for a store fed by
// ref-carrying collectors: the journal and the snapshot hold names and
// labels only, so a fresh DB rebuilt from them equals the original — and the
// collectors' Refs, which outlive the crash in a process that rebuilds its
// store, still point into the old DB: appending the same batch objects to
// the recovered store must re-resolve them and land in the recovered series.
func TestRecoveryWithRefs(t *testing.T) {
	w, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer w.Close()
	const nodes, metrics = 12, 5
	rule := RollupRule{Metric: "node.metric0", Step: 5 * time.Second, Agg: AggMean}
	db1 := New(0)
	if err := db1.AddRollup(rule); err != nil {
		t.Fatal(err)
	}
	db1.Journal(w)
	refs := make([]telemetry.Ref, nodes*metrics)
	pts := refRound(refs, nodes, metrics, 0)
	feed := func(db *DB, from, to int) {
		for r := from; r < to; r++ {
			retime(pts, r)
			if err := db.AppendBatch(pts); err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
		}
	}
	feed(db1, 0, 20)
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	covered := w.LastSeq()
	snap, err := db1.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	feed(db1, 20, 30)
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}

	db2 := New(0)
	if err := db2.AddRollup(rule); err != nil {
		t.Fatal(err)
	}
	if err := db2.RestoreSnapshot(snap); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	r, err := w.Replay(covered + 1)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if err := db2.RestoreFrom(r); err != nil {
		t.Fatalf("RestoreFrom: %v", err)
	}
	r.Close()
	want := dumpDB(t, db1)
	if got := dumpDB(t, db2); string(got) != string(want) {
		t.Fatalf("recovered store diverges:\n live: %s\n rec:  %s", want, got)
	}
	if got := db2.NumSeries(); got != nodes*metrics {
		t.Fatalf("recovered NumSeries = %d, want %d", got, nodes*metrics)
	}

	// The same batch objects, Refs still memoizing db1's series, now go to
	// the recovered store only.
	feed(db2, 30, 33)
	if got := string(dumpDB(t, db1)); got != string(want) {
		t.Fatal("appending to the recovered store wrote into the original")
	}
	if got, want := db2.Appended(), db1.Appended()+3*nodes*metrics; got != want {
		t.Fatalf("recovered Appended = %d, want %d", got, want)
	}
	if got := db2.NumSeries(); got != nodes*metrics {
		t.Fatalf("recovered NumSeries after appends = %d, want %d", got, nodes*metrics)
	}
	for m := 0; m < metrics; m++ {
		for _, s := range db2.Query(fmt.Sprintf("node.metric%d", m), nil, 0, time.Hour) {
			if len(s.Samples) != 33 {
				t.Fatalf("%s%s has %d samples in the recovered store, want 33", s.Name, s.Labels, len(s.Samples))
			}
		}
	}
}

// recordingJournal keeps every record's payload.
type recordingJournal struct{ payloads [][]byte }

func (j *recordingJournal) Append(_ uint8, payload []byte) (uint64, error) {
	j.payloads = append(j.payloads, append([]byte(nil), payload...))
	return uint64(len(j.payloads)), nil
}

// FuzzJournalPoint round-trips the journal's point encoding. An accepted
// point, appended once on its own and once through the batch path with a
// Ref (both encode the label part from the series' interned bytes), must
// decode back to itself and replay into an equal store; every strict prefix
// of a record must be rejected, not mis-decoded; and arbitrary bytes must
// never panic the decoder or ApplyWAL.
func FuzzJournalPoint(f *testing.F) {
	f.Add("node.temp.celsius", "node", "n001", "rack", "r01", int64(5*time.Second), math.Float64bits(42.5), []byte{})
	f.Add("facility.pue", "", "", "", "", int64(0), math.Float64bits(1.31), []byte{1, 'm', 1, 1, 'k'})
	f.Add("m", "k", "", "k", "v", int64(-1), math.Float64bits(math.Inf(1)), []byte{1, 'm', 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add("", "a", "b", "c", "d", int64(math.MaxInt64), math.Float64bits(math.NaN()), []byte{0})
	f.Fuzz(func(t *testing.T, name, k1, v1, k2, v2 string, at int64, bits uint64, raw []byte) {
		p := telemetry.Point{Name: name, Time: time.Duration(at), Value: math.Float64frombits(bits), Ref: new(telemetry.Ref)}
		if k1 != "" || k2 != "" {
			p.Labels = telemetry.Labels{k1: v1, k2: v2}
		}
		var j recordingJournal
		db1 := New(0)
		db1.Journal(&j)
		err := db1.Append(p)
		if berr := db1.AppendBatch([]telemetry.Point{p}); (berr == nil) != (err == nil) {
			t.Fatalf("Append err = %v, AppendBatch err = %v", err, berr)
		}
		if err != nil {
			if len(j.payloads) != 0 {
				t.Fatalf("rejected point (%v) reached the journal", err)
			}
		} else if len(j.payloads) != 2 {
			t.Fatalf("accepted point and its overwrite journaled %d records, want 2", len(j.payloads))
		}
		db2 := New(0)
		for _, payload := range j.payloads {
			got, rest, err := decodePointEnc(payload)
			if err != nil || len(rest) != 0 {
				t.Fatalf("decode: %v, %d bytes left", err, len(rest))
			}
			if got.Name != p.Name || !reflect.DeepEqual(got.Labels, p.Labels) || got.Time != p.Time ||
				math.Float64bits(got.Value) != math.Float64bits(p.Value) {
				t.Fatalf("decoded %v, want %v", got, p)
			}
			for cut := 0; cut < len(payload); cut++ {
				if _, _, err := decodePointEnc(payload[:cut]); err == nil {
					t.Fatalf("%d-byte prefix of a %d-byte record decoded", cut, len(payload))
				}
			}
			if err := New(0).ApplyWAL(payload[:len(payload)-1]); err == nil {
				t.Fatal("ApplyWAL accepted a truncated record")
			}
			if err := db2.ApplyWAL(payload); err != nil {
				t.Fatalf("ApplyWAL: %v", err)
			}
		}
		if got, want := dumpDB(t, db2), dumpDB(t, db1); string(got) != string(want) {
			t.Fatalf("replayed store diverges:\n live: %s\n rec:  %s", want, got)
		}
		// Arbitrary bytes: errors are fine, panics and runaway allocations
		// are not.
		decodePointEnc(raw)
		_ = New(0).ApplyWAL(raw)
	})
}
