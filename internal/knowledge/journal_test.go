package knowledge

import (
	"bytes"
	"io"
	"reflect"
	"testing"
	"time"

	"autoloop/internal/wal"
)

func dumpBase(b *Base) interface{} {
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		panic(err)
	}
	return buf.String()
}

func mutate(b *Base) {
	b.AddRun(RunRecord{App: "lammps", User: "u1", Nodes: 8, Runtime: time.Hour, Completed: true, At: time.Minute})
	b.AddRun(RunRecord{App: "gromacs", User: "u2", Nodes: 4, Runtime: 30 * time.Minute, Completed: false, At: 2 * time.Minute})
	idx := b.RecordPlan(PlanRecord{Loop: "sched", Action: "boost", At: 3 * time.Minute, Predicted: 10})
	b.RecordPlan(PlanRecord{Loop: "power", Action: "cap", At: 4 * time.Minute, Predicted: 200})
	b.ResolvePlan(idx, 11.5, true)
	b.ResolveCorrection("lammps", 10, 12)
	b.ResolveCorrection("lammps", 10, 9)
	b.SetFact("cluster.power.budget", 42000)
	// Non-mutating calls must not be journaled.
	b.ResolveCorrection("lammps", 0, 9)
	b.ResolvePlan(99, 1, true)
}

// replayInto replays every knowledge record of the WAL into base.
func replayInto(t *testing.T, w *wal.WAL, b *Base, from uint64) {
	t.Helper()
	r, err := w.Replay(from)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	defer r.Close()
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if rec.Kind != wal.KindKnowledgeOp {
			continue
		}
		if err := b.ApplyWAL(rec.Seq, rec.Payload); err != nil {
			t.Fatalf("ApplyWAL seq %d: %v", rec.Seq, err)
		}
	}
}

// TestKnowledgeJournalReplay journals the full mutation vocabulary and
// replays it into a fresh base, requiring an identical export.
func TestKnowledgeJournalReplay(t *testing.T) {
	w, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer w.Close()
	live := NewBase()
	live.Journal(w)
	mutate(live)
	if err := live.JournalErr(); err != nil {
		t.Fatalf("JournalErr: %v", err)
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}

	rec := NewBase()
	replayInto(t, w, rec, 1)
	if a, b := dumpBase(live), dumpBase(rec); a != b {
		t.Fatalf("replayed base diverges:\n live: %s\n rec:  %s", a, b)
	}
	if c := rec.Correction("lammps"); c != live.Correction("lammps") {
		t.Fatalf("correction diverges: %v vs %v", c, live.Correction("lammps"))
	}
}

// TestKnowledgeSnapshotTailReplay loads a mid-stream snapshot and replays
// the whole log over it: records the snapshot covers must be skipped via the
// carried WAL sequence, not double-applied.
func TestKnowledgeSnapshotTailReplay(t *testing.T) {
	w, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer w.Close()
	live := NewBase()
	live.Journal(w)
	mutate(live)
	var snap bytes.Buffer
	if err := live.Save(&snap); err != nil {
		t.Fatalf("Save: %v", err)
	}
	// Mutations after the snapshot form the tail.
	live.AddRun(RunRecord{App: "lammps", User: "u3", Nodes: 16, Runtime: 2 * time.Hour, Completed: true, At: time.Hour})
	live.SetFact("cluster.power.budget", 40000)
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}

	rec := NewBase()
	if err := rec.Load(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatalf("Load: %v", err)
	}
	replayInto(t, w, rec, 1) // full log: overlap must be skipped exactly
	if a, b := dumpBase(live), dumpBase(rec); a != b {
		t.Fatalf("snapshot+tail replay diverges:\n live: %s\n rec:  %s", a, b)
	}
	if got, want := len(rec.runs), len(live.runs); got != want {
		t.Fatalf("run count %d, want %d (double-applied overlap?)", got, want)
	}
	if !reflect.DeepEqual(rec.Plans(), live.Plans()) {
		t.Fatal("plans diverge after snapshot+tail replay")
	}
}
