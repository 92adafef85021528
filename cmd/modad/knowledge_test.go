package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"autoloop/internal/knowledge"
	"autoloop/internal/scenario"
	"autoloop/internal/wal"
)

// The fixture testdata/parent_kb_wal was written by modad before knowledge
// writes rode the bus, run as
//
//	modad -addr 127.0.0.1:0 -specs testdata/parent_kb_wal.specs.json \
//	      -wal-dir testdata/parent_kb_wal -speed 240 -duration 4s
//
// It holds one segment of 216 records — 5 wal.KindKnowledgeOp (ioqos
// setpoints, seqs 43 to 212), 132 wal.KindTSDBPoints and 79
// wal.KindBusEnvelope — and two snapshots, @ 145 (carrying wal_seq 134) and
// @ 216. parent_kb_wal.want.json is that modad's knowledge base recovered
// from it and saved.

// snapshotKnowledge loads the knowledge base of the newest snapshot in dir
// and returns it with the sequence the snapshot covers.
func snapshotKnowledge(t *testing.T, dir string) (*knowledge.Base, uint64) {
	t.Helper()
	snap, ok, err := scenario.LatestSnapshot(dir)
	if err != nil || !ok {
		t.Fatalf("LatestSnapshot: ok=%v err=%v", ok, err)
	}
	kb := knowledge.NewBase()
	if err := kb.Load(bytes.NewReader(snap.Knowledge)); err != nil {
		t.Fatal(err)
	}
	return kb, snap.Seq
}

// recoverKnowledge restores the knowledge base modad would from a copy of
// dir: the newest snapshot, then the log tail after it folded through
// ApplyWAL (from = 0) or, to check the overlap skip, the log from seq from.
func recoverKnowledge(t *testing.T, dir string, from uint64) *knowledge.Base {
	t.Helper()
	kb, seq := snapshotKnowledge(t, dir)
	w, err := wal.Open(dir, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if from == 0 {
		from = seq + 1
	}
	if _, err := w.Fold(from, func(rec wal.Record) error {
		_, err := kb.ApplyWAL(rec)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return kb
}

func saved(t *testing.T, kb *knowledge.Base) string {
	t.Helper()
	var buf bytes.Buffer
	if err := kb.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestRecoverParentKnowledge recovers the parent-written fixture through
// ApplyWAL to the knowledge the parent reached: from the newest snapshot as
// modad does, from the older one with its tail of parent records, and from
// the older one with the whole log, whose records at or below its wal_seq
// are skipped (they are all idempotent setpoints here, so the knowledge
// package's TestKnowledgeSnapshotTailReplay checks the skip itself). The
// parent's Save also wrote wal_seq, which Save no longer does; it is cut
// from the expected bytes.
func TestRecoverParentKnowledge(t *testing.T) {
	raw, err := os.ReadFile("testdata/parent_kb_wal.want.json")
	if err != nil {
		t.Fatal(err)
	}
	want := regexp.MustCompile(`,\n  "wal_seq": \d+`).ReplaceAllString(string(raw), "")
	if want == string(raw) {
		t.Fatal("the parent's export carries no wal_seq to cut")
	}
	fixture := func(t *testing.T, newest bool) string {
		dir := t.TempDir() // wal.Open truncates in place
		if err := os.CopyFS(dir, os.DirFS("testdata/parent_kb_wal")); err != nil {
			t.Fatal(err)
		}
		if !newest {
			if err := os.Remove(filepath.Join(dir, "modad-00000000000000d8.snap")); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	for _, tc := range []struct {
		name   string
		newest bool
		from   uint64
	}{
		{"newest snapshot", true, 0},
		{"older snapshot and its tail", false, 0},
		{"older snapshot and the whole log", false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := saved(t, recoverKnowledge(t, fixture(t, tc.newest), tc.from)); got != want {
				t.Fatalf("recovered K diverges from the parent's:\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// TestRestoreKeepsKnowledgeSetpoints restarts modad on a copy of the
// fixture for less than one round: re-spawning the restored ioqos group
// must keep the setpoints K recovered, not write the fair shares over them,
// so the final snapshot's K equals the recovered one.
func TestRestoreKeepsKnowledgeSetpoints(t *testing.T) {
	fixture := func() string {
		dir := t.TempDir() // wal.Open truncates in place
		if err := os.CopyFS(dir, os.DirFS("testdata/parent_kb_wal")); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	want, dir := recoverKnowledge(t, fixture(), 0), fixture()
	var out, errOut bytes.Buffer
	if code := run([]string{"-addr=127.0.0.1:0", "-wal-dir=" + dir, "-speed=1", "-duration=600ms"}, &out, &errOut); code != 0 {
		t.Fatalf("modad exit %d: %s%s", code, out.String(), errOut.String())
	}
	got, _ := snapshotKnowledge(t, dir)
	if v, _ := got.Fact("ioqos.alloc_mbps.batch"); v == 500 {
		t.Errorf("the restore wrote batch's fair share, 500 MB/s, over K")
	}
	if g, w := saved(t, got), saved(t, want); g != w {
		t.Fatalf("K after the restore diverges from the recovered K:\n got: %s\nwant: %s", g, w)
	}
}

// TestDaemonJournalsKnowledgeOnTheBus runs a durable daemon with an ioqos
// group, whose parent loop rewrites its setpoints on the blackboard, then
// scans the log: knowledge writes are knowledge.learn envelopes and no
// wal.KindKnowledgeOp is written. Folding the learn records between the two
// snapshots it keeps onto the older one's K gives the newer one's.
func TestDaemonJournalsKnowledgeOnTheBus(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon run skipped in -short mode")
	}
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	if code := run([]string{"-addr=127.0.0.1:0", "-specs=testdata/parent_kb_wal.specs.json", "-wal-dir=" + dir,
		"-snapshot-every=10m", "-speed=320", "-duration=3s"}, &out, &errOut); code != 0 {
		t.Fatalf("modad exit %d: %s%s", code, out.String(), errOut.String())
	}
	newer, last := snapshotKnowledge(t, dir)
	if err := os.Remove(filepath.Join(dir, fmt.Sprintf("modad-%016x.snap", last))); err != nil {
		t.Fatal(err)
	}
	older, first := snapshotKnowledge(t, dir)

	w, err := wal.Open(dir, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	r, err := w.Replay(1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	learn, folded := 0, 0
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.Kind == wal.KindKnowledgeOp {
			t.Fatalf("seq %d is a wal.KindKnowledgeOp record", rec.Seq)
		}
		if rec.Kind == wal.KindBusEnvelope && strings.Contains(string(rec.Payload), `"topic":"knowledge.learn"`) {
			learn++
		}
		if rec.Seq <= first || rec.Seq > last {
			continue
		}
		handled, err := older.ApplyWAL(rec)
		if err != nil {
			t.Fatalf("ApplyWAL seq %d: %v", rec.Seq, err)
		}
		if handled {
			folded++
		}
	}
	t.Logf("%d knowledge.learn envelopes journaled, %d between the snapshots @ %d and @ %d", learn, folded, first, last)
	if learn == 0 {
		t.Fatalf("no knowledge.learn envelope journaled; log:\n%s", out.String())
	}
	if folded == 0 {
		t.Fatalf("no knowledge write between the snapshots @ %d and @ %d", first, last)
	}
	if got, want := saved(t, older), saved(t, newer); got != want {
		t.Fatalf("older snapshot + folded tail diverges from the newer snapshot:\n got: %s\nwant: %s", got, want)
	}
}
