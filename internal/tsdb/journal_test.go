package tsdb

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

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

// parentStore is an empty store configured like the one that wrote
// testdata/parent_wal.
func parentStore(t *testing.T) *DB {
	t.Helper()
	db := New(10 * time.Minute)
	if err := db.AddRollup(RollupRule{Metric: "node.temp.celsius", Step: 5 * time.Minute, Agg: AggMean, Retention: 24 * time.Hour}); err != nil {
		t.Fatal(err)
	}
	return db
}

// daemonSnapshot is the part of a "modad" snapshot in testdata/parent_wal
// the store reads: the sequence it covers and its JSON "tsdb" member.
type daemonSnapshot struct {
	Seq  uint64          `json:"seq"`
	TSDB json.RawMessage `json:"tsdb"`
}

// parentDaemonSnapshot reads the "modad" snapshot of a copy of
// testdata/parent_wal.
func parentDaemonSnapshot(t *testing.T, dir string) daemonSnapshot {
	t.Helper()
	payload, _, ok, err := wal.LatestSnapshot(dir, "modad")
	if err != nil || !ok {
		t.Fatalf("LatestSnapshot: ok=%v err=%v", ok, err)
	}
	var snap daemonSnapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		t.Fatalf("decode snapshot: %v", err)
	}
	return snap
}

// TestRecoverParentFormat recovers testdata/parent_wal — WAL segments plus a
// "modad" snapshot — and requires the dumpDB bytes the writer recorded. The
// directory was written by the store as of commit 000a4f6 (64 lock stripes,
// one record per touched stripe): four nodes × three metrics plus facility.pue
// appended by AppendBatch with Refs for 24 one-minute rounds under a 10 m
// retention and a 5 m mean rollup, the snapshot cut one round after the
// sequence it claims (so the tail overlaps it), one rejected out-of-order
// point and one equal-timestamp overwrite in the tail. It pins the journal's
// KindTSDBAppend records and every snapshot form: the snapshot's "tsdb"
// member is the store's earlier JSON document; testdata/snapshot_v2.snap is
// the binary form before journal ids, written by the store restored from
// it; and that store's Snapshot now writes testdata/snapshot_v3.snap byte
// for byte. Each must restore into a store with the same dump. A change to
// any of these formats must keep reading them.
func TestRecoverParentFormat(t *testing.T) {
	dir := t.TempDir() // wal.Open truncates and rotates in place
	if err := os.CopyFS(dir, os.DirFS("testdata/parent_wal")); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/parent_wal.want.json")
	if err != nil {
		t.Fatal(err)
	}

	snap := parentDaemonSnapshot(t, dir)
	newStore := func() *DB { return parentStore(t) }
	db := newStore()
	if err := db.RestoreSnapshot(snap.TSDB); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	v2, err := os.ReadFile("testdata/snapshot_v2.snap")
	if err != nil {
		t.Fatal(err)
	}
	third := newStore()
	if err := third.RestoreSnapshot(v2); err != nil {
		t.Fatalf("RestoreSnapshot(snapshot_v2.snap): %v", err)
	}
	if a, b := dumpDB(t, db), dumpDB(t, third); string(a) != string(b) {
		t.Fatalf("the binary snapshot restores another store than the JSON one:\n json:   %s\n binary: %s", a, b)
	}
	v3, err := os.ReadFile("testdata/snapshot_v3.snap")
	if err != nil {
		t.Fatal(err)
	}
	if again, err := db.Snapshot(); err != nil || !bytes.Equal(again, v3) {
		t.Fatalf("Snapshot of the restored store (err=%v) differs from testdata/snapshot_v3.snap", err)
	}
	fourth := newStore()
	if err := fourth.RestoreSnapshot(v3); err != nil {
		t.Fatalf("RestoreSnapshot(snapshot_v3.snap): %v", err)
	}
	if a, b := dumpDB(t, db), dumpDB(t, fourth); string(a) != string(b) {
		t.Fatalf("the v3 snapshot restores another store than the JSON one:\n json: %s\n v3:   %s", a, b)
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

// TestMemSeriesSize keeps a series in the 96-byte allocation class: one
// more word puts it in the 112-byte class, which a store of 50k series (a
// stress10k facility, journaled or not) pays as ~0.8 MB of live heap.
func TestMemSeriesSize(t *testing.T) {
	if got := unsafe.Sizeof(memSeries{}); got > 96 {
		t.Fatalf("memSeries is %d bytes, want <= 96", got)
	}
}

// recordingJournal keeps every record, numbered as a WAL would number them.
type recordingJournal struct{ records []wal.Record }

func (j *recordingJournal) Append(kind uint8, payload []byte) (uint64, error) {
	j.records = append(j.records, wal.Record{Seq: uint64(len(j.records)) + 1, Kind: kind, Payload: bytes.Clone(payload)})
	return uint64(len(j.records)), nil
}

// replay applies every record to db through ApplyWAL, which must claim it.
func (j *recordingJournal) replay(t *testing.T, db *DB) {
	t.Helper()
	for _, rec := range j.records {
		if ok, err := db.ApplyWAL(rec.Kind, rec.Payload); !ok || err != nil {
			t.Fatalf("ApplyWAL record %d (kind %#x): handled=%v, err=%v", rec.Seq, rec.Kind, ok, err)
		}
	}
}

// kindCounter counts the records a replay hands on, by kind.
type kindCounter struct {
	src   ReplaySource
	kinds map[uint8]int
}

func (k *kindCounter) Next() (wal.Record, error) {
	rec, err := k.src.Next()
	if err == nil {
		k.kinds[rec.Kind]++
	}
	return rec, err
}

// recoverDir rebuilds a store from dir the way a restarted daemon does:
// snapshot (any form the store reads; nil for none), then the WAL tail after
// seq. It returns the store, the WAL, left open for the caller to journal
// to and closed at cleanup, and the replayed record count by kind.
func recoverDir(t *testing.T, dir string, db *DB, snap []byte, seq uint64) (*DB, *wal.WAL, map[uint8]int) {
	t.Helper()
	w, err := wal.Open(dir, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { w.Close() })
	if snap != nil {
		if err := db.RestoreSnapshot(snap); err != nil {
			t.Fatalf("RestoreSnapshot: %v", err)
		}
	}
	r, err := w.Replay(seq + 1)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	defer r.Close()
	kc := &kindCounter{src: r, kinds: map[uint8]int{}}
	if err := db.RestoreFrom(kc); err != nil {
		t.Fatalf("RestoreFrom: %v", err)
	}
	return db, w, kc.kinds
}

// restartRound is a sampling round of a restarted writer: every metric of
// nodes [from, to), through refs, at minute m.
func restartRound(refs []telemetry.Ref, from, to, m int) []telemetry.Point {
	var pts []telemetry.Point
	for n := from; n < to; n++ {
		for i, name := range []string{"node.cpu.util", "node.power.watts", "node.temp.celsius"} {
			pts = append(pts, telemetry.Point{
				Name:   name,
				Labels: telemetry.Labels{"node": fmt.Sprintf("n%02d", n), "rack": fmt.Sprintf("r%d", n/2)},
				Time:   time.Duration(m) * time.Minute, Value: float64(m*100 + n*3 + i),
				Ref: &refs[(n-from)*3+i],
			})
		}
	}
	return pts
}

// TestMixedFormatRecovery recovers testdata/parent_wal — KindTSDBAppend
// records behind a JSON snapshot — journals id-form records into the same
// log, to the parent's series and to new ones, and "crashes": Sync, no
// Close. Recovering the directory again replays both kinds in one pass and
// must rebuild the never-killed store.
func TestMixedFormatRecovery(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS("testdata/parent_wal")); err != nil {
		t.Fatal(err)
	}
	snap := parentDaemonSnapshot(t, dir)
	live, w, kinds := recoverDir(t, dir, parentStore(t), snap.TSDB, snap.Seq)
	if kinds[wal.KindTSDBAppend] == 0 || kinds[wal.KindTSDBPoints] != 0 {
		t.Fatalf("the parent's tail replayed %v, want KindTSDBAppend records only", kinds)
	}
	live.Journal(w)
	refs := make([]telemetry.Ref, 6*3)
	for m := 24; m < 30; m++ {
		// The parent's four nodes, then two it never saw.
		if err := live.AppendBatch(restartRound(refs, 0, 6, m)); err != nil {
			t.Fatalf("minute %d: %v", m, err)
		}
		if err := live.Append(telemetry.Point{Name: "facility.pue", Time: time.Duration(m) * time.Minute, Value: 1 + float64(m)/100}); err != nil {
			t.Fatal(err)
		}
	}
	if err := live.Append(telemetry.Point{Name: "facility.cooling.kw", Labels: telemetry.Labels{"loop": "a"}, Time: 30 * time.Minute, Value: 80}); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}

	got, _, kinds := recoverDir(t, dir, parentStore(t), snap.TSDB, snap.Seq)
	if kinds[wal.KindTSDBAppend] == 0 || kinds[wal.KindTSDBPoints] != 13 {
		t.Fatalf("replayed %v, want the parent's KindTSDBAppend records and 13 KindTSDBPoints", kinds)
	}
	if a, b := dumpDB(t, live), dumpDB(t, got); string(a) != string(b) {
		t.Fatalf("recovered store diverges from the never-killed one:\n live: %s\n rec:  %s", a, b)
	}
}

// TestRestartRecoveryContinuesIDs runs three processes over one log
// directory. A journals, optionally snapshots, journals on and crashes; B
// recovers, journals to A's series and to new ones with no snapshot in
// between, and crashes; C recovers A's records and B's in one replay. C
// must equal B's never-killed store and give every series the journal id B
// gave it: B went on with A's ids, so its new series took the ids after
// A's and its points name A's series by A's ids.
func TestRestartRecoveryContinuesIDs(t *testing.T) {
	for _, snapshotted := range []bool{false, true} {
		t.Run(fmt.Sprintf("snapshot=%v", snapshotted), func(t *testing.T) {
			dir := t.TempDir()
			a, w, _ := recoverDir(t, dir, parentStore(t), nil, 0)
			a.Journal(w)
			refs := make([]telemetry.Ref, 8*3)
			var snap []byte
			var seq uint64
			for m := 0; m < 12; m++ {
				if err := a.AppendBatch(restartRound(refs, 0, 4, m)); err != nil {
					t.Fatal(err)
				}
				if m == 6 && snapshotted {
					if err := w.Sync(); err != nil {
						t.Fatal(err)
					}
					seq = w.LastSeq()
					var err error
					if snap, err = a.Snapshot(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
			aIDs := len(a.byID)

			b, w, _ := recoverDir(t, dir, parentStore(t), snap, seq)
			if len(b.byID) != aIDs {
				t.Fatalf("B recovered %d journal ids, A gave out %d", len(b.byID), aIDs)
			}
			b.Journal(w)
			for m := 12; m < 18; m++ {
				// Nodes 2-3 are A's; 4-7 are new, and take ids after A's.
				if err := b.AppendBatch(restartRound(refs, 2, 8, m)); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
			if len(b.byID) != 8*3 {
				t.Fatalf("B gave out %d journal ids, want 24", len(b.byID))
			}

			c, _, kinds := recoverDir(t, dir, parentStore(t), snap, seq)
			if kinds[wal.KindTSDBPoints] == 0 || kinds[wal.KindTSDBAppend] != 0 {
				t.Fatalf("replayed %v, want KindTSDBPoints records only", kinds)
			}
			if x, y := dumpDB(t, b), dumpDB(t, c); string(x) != string(y) {
				t.Fatalf("C diverges from B's never-killed store:\n B: %s\n C: %s", x, y)
			}
			if len(c.byID) != len(b.byID) {
				t.Fatalf("C holds %d journal ids, B %d", len(c.byID), len(b.byID))
			}
			for id, s := range b.byID {
				if cs := c.byID[id]; cs.name != s.name || cs.key != s.key {
					t.Fatalf("journal id %d is %s{%s} in C, %s{%s} in B", id, cs.name, cs.key, s.name, s.key)
				}
			}
		})
	}
}

// refusingJournal records like recordingJournal, except record refuse:
// refused outright (sequence 0, never in the log), or with buffered set,
// taken but reported not durable (a sequence and an error, as a WAL whose
// write failed and will be retried reports it).
type refusingJournal struct {
	recordingJournal
	calls, refuse int
	buffered      bool
}

func (j *refusingJournal) Append(kind uint8, payload []byte) (uint64, error) {
	j.calls++
	if j.calls != j.refuse {
		return j.recordingJournal.Append(kind, payload)
	}
	if !j.buffered {
		return 0, wal.ErrBacklog
	}
	seq, _ := j.recordingJournal.Append(kind, payload)
	return seq, errors.New("write fault")
}

// TestRefusedRecordGivesIDsBack journals three rounds and has the journal
// refuse the second, the first to carry series C and D. A refused record
// never reaches the log, so the ids it defined are given back and the next
// record defines its series again; a record taken but reported not durable
// reaches the log, so its ids stand. Either way the log replays, to the
// store minus what never reached it.
func TestRefusedRecordGivesIDsBack(t *testing.T) {
	at := func(m int, names ...string) []telemetry.Point {
		var pts []telemetry.Point
		for i, n := range names {
			pts = append(pts, telemetry.Point{Name: n, Time: time.Duration(m) * time.Minute, Value: float64(10*m + i)})
		}
		return pts
	}
	rounds := [][]telemetry.Point{at(0, "a", "b"), at(1, "a", "b", "c", "d"), at(2, "a", "b", "d", "c")}
	for _, buffered := range []bool{false, true} {
		t.Run(fmt.Sprintf("buffered=%v", buffered), func(t *testing.T) {
			j := &refusingJournal{refuse: 2, buffered: buffered}
			db, want := New(0), New(0)
			db.Journal(j)
			for r, pts := range rounds {
				if err := db.AppendBatch(pts); (err != nil) != (r == 1) {
					t.Fatalf("round %d: err = %v", r, err)
				}
				if r != 1 || buffered {
					if err := want.AppendBatch(pts); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Refused, c and d took ids 2 and 3, gave them back and took
			// them again in round 2's order; taken, they kept them.
			wantIDs := map[bool]string{false: "abdc", true: "abcd"}[buffered]
			var ids string
			for _, s := range db.byID {
				ids += s.name
			}
			if ids != wantIDs {
				t.Fatalf("journal ids name %q, want %q", ids, wantIDs)
			}
			got := New(0)
			j.replay(t, got)
			if x, y := dumpDB(t, want), dumpDB(t, got); string(x) != string(y) {
				t.Fatalf("replayed log diverges:\n want: %s\n got:  %s", x, y)
			}
		})
	}
}

// TestApplyWALRejectsBadIDs: a point of an id the log never defined, a
// definition out of sequence, without a name or rebinding an id, and a
// series defined twice are decode errors, never skipped.
func TestApplyWALRejectsBadIDs(t *testing.T) {
	entry := func(id uint64, def bool, name string) []byte {
		var b []byte
		if def {
			b = binary.AppendUvarint(b, id<<1|1)
			b = binary.AppendUvarint(b, uint64(len(name)))
			b = append(b, name...)
			b = append(b, 0) // no labels
		} else {
			b = binary.AppendUvarint(b, id<<1)
		}
		b = binary.AppendVarint(b, int64(time.Second))
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(1))
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	cases := map[string][]byte{
		"undefined id":       entry(0, false, ""),
		"id past the next":   entry(1, true, "m"),
		"definition no name": entry(0, true, ""),
		"id rebound":         cat(entry(0, true, "m"), entry(0, true, "n")),
		"series twice":       cat(entry(0, true, "m"), entry(1, true, "m")),
		"empty record":       nil,
	}
	for name, payload := range cases {
		if ok, err := New(0).ApplyWAL(wal.KindTSDBPoints, payload); !ok || err == nil {
			t.Errorf("%s: handled=%v err=%v, want a decode error", name, ok, err)
		}
	}
	// A definition repeating its id's binding is a record the snapshot
	// also reflects, and replays.
	db := New(0)
	for _, rec := range [][]byte{entry(0, true, "m"), entry(0, true, "m"), entry(0, false, "")} {
		if _, err := db.ApplyWAL(wal.KindTSDBPoints, rec); err != nil {
			t.Fatalf("ApplyWAL: %v", err)
		}
	}
	if ok, err := db.ApplyWAL(wal.KindBusEnvelope, []byte("{}")); ok || err != nil {
		t.Fatalf("ApplyWAL of another kind: handled=%v err=%v", ok, err)
	}
}

// FuzzJournalPoint round-trips the journal's id-form record. An accepted
// point, appended through Append and then AppendBatch (with a Ref), and in
// the other order, journals a record that defines its series and one that
// names it by id; each must decode back to the point, replay into an equal
// store, and have every strict prefix rejected without touching the store.
// The id-only record alone is an undefined id. Arbitrary bytes, in either
// of the store's kinds, must never panic ApplyWAL or make it allocate more
// than a fixed multiple of their length.
func FuzzJournalPoint(f *testing.F) {
	f.Add("node.temp.celsius", "node", "n001", "rack", "r01", int64(5*time.Second), math.Float64bits(42.5), []byte{})
	f.Add("facility.pue", "", "", "", "", int64(0), math.Float64bits(1.31), []byte{1, 'm', 1, 1, 'k'})
	f.Add("m", "k", "", "k", "v", int64(-1), math.Float64bits(math.Inf(1)), []byte{1, 'm', 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add("", "a", "b", "c", "d", int64(math.MaxInt64), math.Float64bits(math.NaN()), []byte{0})
	// raw: a definition of id 0 ("m", no labels) at 1 ns, then its point at 2 ns.
	f.Add("m", "", "", "", "", int64(1), math.Float64bits(2), []byte{1, 1, 'm', 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, name, k1, v1, k2, v2 string, at int64, bits uint64, raw []byte) {
		p := telemetry.Point{Name: name, Time: time.Duration(at), Value: math.Float64frombits(bits), Ref: new(telemetry.Ref)}
		if k1 != "" || k2 != "" {
			p.Labels = telemetry.Labels{k1: v1, k2: v2}
		}
		for _, batchFirst := range []bool{false, true} {
			var j recordingJournal
			db1 := New(0)
			db1.Journal(&j)
			single := func() error { return db1.Append(p) }
			batch := func() error { return db1.AppendBatch([]telemetry.Point{p}) }
			if batchFirst {
				single, batch = batch, single
			}
			err := single()
			if berr := batch(); (berr == nil) != (err == nil) {
				t.Fatalf("first append err = %v, second = %v", err, berr)
			}
			if err != nil {
				if len(j.records) != 0 {
					t.Fatalf("rejected point (%v) reached the journal", err)
				}
				continue
			} else if len(j.records) != 2 {
				t.Fatalf("accepted point and its overwrite journaled %d records, want 2", len(j.records))
			}
			db2 := New(0)
			for i, rec := range j.records {
				d := decoder{buf: rec.Payload}
				e := d.entry(0)
				if d.err != nil || len(d.buf) != 0 {
					t.Fatalf("record %d: decode: %v, %d bytes left", i, d.err, len(d.buf))
				}
				if rec.Kind != wal.KindTSDBPoints || e.id != 0 || e.def != (i == 0) || e.time != p.Time ||
					math.Float64bits(e.value) != math.Float64bits(p.Value) {
					t.Fatalf("record %d (kind %#x) decoded %+v, want id 0 defined in the first record at %v = %v", i, rec.Kind, e, p.Time, p.Value)
				}
				if e.def && (e.name != p.Name || !reflect.DeepEqual(e.labels, p.Labels)) {
					t.Fatalf("definition names %s%s, want %s%s", e.name, e.labels, p.Name, p.Labels)
				}
				before := db2.Appended()
				for cut := 0; cut < len(rec.Payload); cut++ {
					if _, err := db2.ApplyWAL(rec.Kind, rec.Payload[:cut]); err == nil {
						t.Fatalf("%d-byte prefix of a %d-byte record replayed", cut, len(rec.Payload))
					}
				}
				if db2.Appended() != before || db2.NumSeries() != i {
					t.Fatal("a rejected prefix changed the store")
				}
				if _, err := db2.ApplyWAL(rec.Kind, rec.Payload); err != nil {
					t.Fatalf("ApplyWAL: %v", err)
				}
			}
			if _, err := New(0).ApplyWAL(j.records[1].Kind, j.records[1].Payload); err == nil {
				t.Fatal("a point of an undefined id replayed")
			}
			if got, want := dumpDB(t, db2), dumpDB(t, db1); string(got) != string(want) {
				t.Fatalf("replayed store diverges:\n live: %s\n rec:  %s", want, got)
			}
		}
		// Arbitrary bytes: errors are fine; panics and runaway allocations
		// are not.
		for _, kind := range []uint8{wal.KindTSDBPoints, wal.KindTSDBAppend} {
			db := New(0)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _ = db.ApplyWAL(kind, raw)
			runtime.ReadMemStats(&after)
			if got, limit := after.TotalAlloc-before.TotalAlloc, 256*uint64(len(raw))+64<<10; got > limit {
				t.Fatalf("replaying %d bytes of kind %#x allocated %d, want <= %d", len(raw), kind, got, limit)
			}
		}
	})
}
