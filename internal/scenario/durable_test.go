package scenario

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"autoloop/internal/telemetry"
	"autoloop/internal/tsdb"
	"autoloop/internal/wal"
)

// TestDecodeDaemonSnapshotParentLayout reads a snapshot the daemon wrote as
// one JSON document, the store's JSON snapshot embedded as its "tsdb"
// member: the store must restore from what the decode hands back.
func TestDecodeDaemonSnapshotParentLayout(t *testing.T) {
	payload, seq, ok, err := wal.LatestSnapshot("../tsdb/testdata/parent_wal", "modad")
	if err != nil || !ok {
		t.Fatalf("LatestSnapshot: ok=%v err=%v", ok, err)
	}
	snap, err := decodeSnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Seq != seq {
		t.Errorf("Seq = %d, want the file's %d", snap.Seq, seq)
	}
	if len(snap.TSDB) == 0 || snap.TSDB[0] != '{' {
		t.Fatalf("TSDB = %.40q, want the embedded JSON document", snap.TSDB)
	}
	db := tsdb.New(10 * time.Minute)
	if err := db.RestoreSnapshot(snap.TSDB); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	if got := db.NumSeries(); got != 13 {
		t.Errorf("restored %d series, want 13", got)
	}
}

// TestDaemonSnapshotRoundTrip writes the header+binary layout and reads it
// back field for field; the TSDB bytes must come back untouched and restore.
func TestDaemonSnapshotRoundTrip(t *testing.T) {
	// Ten samples: the appended counter, uvarint 10, puts a newline inside
	// the TSDB bytes, and only the first newline may end the header.
	db := tsdb.New(0)
	for i := 0; i < 10; i++ {
		p := telemetry.Point{Name: "node.temp.celsius", Labels: telemetry.Labels{"node": "n01"}, Time: time.Duration(i) * time.Minute, Value: 40 + float64(i)}
		if err := db.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	ts, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(ts, []byte{'\n'}) {
		t.Fatal("no newline inside the TSDB snapshot")
	}
	want := Snapshot{
		Seq: 42, Now: 90 * time.Minute,
		Knowledge: json.RawMessage(`{"runs":[]}`), Control: json.RawMessage(`{"groups":[]}`),
		TSDB: ts,
	}
	payload, err := want.encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeSnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
	restored := tsdb.New(0)
	if err := restored.RestoreSnapshot(got.TSDB); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	if again, err := restored.Snapshot(); err != nil || !bytes.Equal(again, ts) {
		t.Fatalf("re-snapshot (err=%v) differs from the written TSDB bytes", err)
	}
}
