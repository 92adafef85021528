package knowledge

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/wal"
)

func dumpBase(b *Base) string {
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
	// Non-mutating calls must not be published.
	b.ResolveCorrection("lammps", 0, 9)
	b.ResolvePlan(99, 1, true)
}

// journaled returns a bus whose every envelope is recorded in w, as
// modad's bus journal records it.
func journaled(w *wal.WAL) *bus.Bus {
	b := bus.New()
	b.Journal(func(string) bool { return true }, func(env bus.Envelope) {
		line, err := bus.Encode(env)
		if err == nil {
			_, err = w.Append(wal.KindBusEnvelope, line)
		}
		if err != nil {
			panic(err)
		}
	})
	return b
}

// replayInto folds every record of the WAL from seq from into base,
// requiring each to be the base's.
func replayInto(t *testing.T, w *wal.WAL, b *Base, from uint64) {
	t.Helper()
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
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
		if handled, err := b.ApplyWAL(rec); !handled || err != nil {
			t.Fatalf("ApplyWAL seq %d (kind 0x%02x) = %v, %v", rec.Seq, rec.Kind, handled, err)
		}
	}
}

func openWAL(t *testing.T) *wal.WAL {
	t.Helper()
	w, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// TestKnowledgeJournalReplay publishes the full mutation vocabulary on a
// journaled bus and folds the log into a fresh base, requiring an identical
// export.
func TestKnowledgeJournalReplay(t *testing.T) {
	w := openWAL(t)
	live := NewBase()
	live.PublishTo(journaled(w))
	mutate(live)
	if got := w.LastSeq(); got != 8 {
		t.Fatalf("journaled %d records, want the 8 mutations", got)
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

// TestLearnPublishesOnlyToReceivers: without a receiver on the topic the
// base builds no envelope, and other envelopes are not the base's to fold.
func TestLearnPublishesOnlyToReceivers(t *testing.T) {
	b := bus.New()
	kb := NewBase()
	kb.PublishTo(b)
	b.Subscribe("loop.*", func(bus.Envelope) {})
	mutate(kb)
	if published, _ := b.Stats(); published != 0 {
		t.Fatalf("published %d envelopes with no receiver on %s", published, topicLearn)
	}
	var got []string
	cancel := b.Subscribe("knowledge.*", func(env bus.Envelope) { got = append(got, env.Topic) })
	defer cancel()
	kb.SetFact("x", 1)
	if len(got) != 1 || got[0] != topicLearn {
		t.Fatalf("subscriber saw %v, want one %s", got, topicLearn)
	}

	line, err := bus.Encode(bus.Envelope{Topic: "loop.a.plan", Payload: walOp{Op: "fact", Key: "y", Value: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []wal.Record{
		{Kind: wal.KindBusEnvelope, Payload: line},
		{Kind: wal.KindTSDBPoints, Payload: []byte(`{"op":"fact"}`)},
	} {
		if handled, err := kb.ApplyWAL(rec); handled || err != nil {
			t.Fatalf("ApplyWAL(kind 0x%02x) = %v, %v; want not the base's", rec.Kind, handled, err)
		}
	}
	if _, ok := kb.Fact("y"); ok {
		t.Fatal("a loop envelope was folded into K")
	}
}

// TestMutationWithoutReceiverAllocs: with no bus, and with a bus that has
// no receiver on the topic, a mutation builds no op, so one that grows no
// map or slice allocates nothing.
func TestMutationWithoutReceiverAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		bus  *bus.Bus
	}{{"no bus", nil}, {"no receiver", bus.New()}} {
		t.Run(tc.name, func(t *testing.T) {
			kb := NewBase()
			if tc.bus != nil {
				kb.PublishTo(tc.bus)
				tc.bus.Subscribe("loop.*", func(bus.Envelope) {})
			}
			mutate(kb)
			kb.runs = append(make([]RunRecord, 0, 256), kb.runs...)
			kb.plans = append(make([]PlanRecord, 0, 256), kb.plans...)
			run := RunRecord{App: "lammps", Runtime: time.Hour, Completed: true}
			plan := PlanRecord{Loop: "sched", Action: "boost", Predicted: 10}
			for _, m := range []struct {
				name string
				fn   func()
			}{
				{"SetFact", func() { kb.SetFact("cluster.power.budget", 41000) }},
				{"AddRun", func() { kb.AddRun(run) }},
				{"RecordPlan", func() { kb.RecordPlan(plan) }},
				{"ResolvePlan", func() { _ = kb.ResolvePlan(0, 11, true) }},
				{"ResolveCorrection", func() { kb.ResolveCorrection("lammps", 10, 11) }},
			} {
				if allocs := testing.AllocsPerRun(100, m.fn); allocs != 0 {
					t.Errorf("%s: %v allocations per mutation, want 0", m.name, allocs)
				}
			}
			if tc.bus != nil {
				if published, _ := tc.bus.Stats(); published != 0 {
					t.Errorf("published %d envelopes with no receiver", published)
				}
			}
		})
	}
}

// legacyWriter reproduces the parent's knowledge journal: each op applied in
// place and appended as a wal.KindKnowledgeOp record.
type legacyWriter struct {
	t   *testing.T
	w   *wal.WAL
	b   *Base
	seq uint64 // sequence of the last op written
}

func (lw *legacyWriter) op(op walOp) {
	lw.t.Helper()
	data, err := json.Marshal(&op)
	if err != nil {
		lw.t.Fatal(err)
	}
	if lw.seq, err = lw.w.Append(wal.KindKnowledgeOp, data); err != nil {
		lw.t.Fatal(err)
	}
	lw.b.mu.Lock()
	defer lw.b.mu.Unlock()
	if err := lw.b.applyOpLocked(&op); err != nil {
		lw.t.Fatal(err)
	}
}

// snapshot is the parent's Save: the export plus the sequence of the last
// op it reflects.
func (lw *legacyWriter) snapshot() []byte {
	lw.t.Helper()
	var snap map[string]any
	if err := json.Unmarshal([]byte(dumpBase(lw.b)), &snap); err != nil {
		lw.t.Fatal(err)
	}
	snap["wal_seq"] = lw.seq
	out, err := json.Marshal(snap)
	if err != nil {
		lw.t.Fatal(err)
	}
	return out
}

// TestKnowledgeSnapshotTailReplay loads a parent-format snapshot taken
// mid-stream and folds the whole log over it: the parent's records the
// snapshot covers must be skipped via its carried WAL sequence, not
// double-applied, and the learn envelopes written after the upgrade apply
// on top.
func TestKnowledgeSnapshotTailReplay(t *testing.T) {
	w := openWAL(t)
	live := NewBase()
	lw := &legacyWriter{t: t, w: w, b: live}
	run := RunRecord{App: "lammps", User: "u1", Nodes: 8, Runtime: time.Hour, Completed: true, At: time.Minute}
	lw.op(walOp{Op: "run", Run: &run})
	lw.op(walOp{Op: "plan", Plan: &PlanRecord{Loop: "sched", Action: "boost", At: 3 * time.Minute, Predicted: 10}})
	lw.op(walOp{Op: "resolve_corr", App: "lammps", Predicted: 10, Actual: 12})
	lw.op(walOp{Op: "fact", Key: "cluster.power.budget", Value: 42000})
	snap := lw.snapshot()
	// A bus record between the parent's ops, then parent ops after the
	// snapshot: the tail.
	if _, err := w.Append(wal.KindTSDBPoints, []byte{1}); err != nil {
		t.Fatal(err)
	}
	lw.op(walOp{Op: "run", Run: &RunRecord{App: "lammps", User: "u3", Nodes: 16, Runtime: 2 * time.Hour, Completed: true, At: time.Hour}})
	lw.op(walOp{Op: "resolve_plan", Idx: 0, Actual: 11.5, Honored: true})
	// The upgraded daemon keeps writing the same log through its bus.
	live.PublishTo(journaled(w))
	live.AddRun(RunRecord{App: "gromacs", User: "u2", Nodes: 4, Runtime: 30 * time.Minute, At: 2 * time.Hour})
	live.SetFact("cluster.power.budget", 40000)

	rec := NewBase()
	if err := rec.Load(bytes.NewReader(snap)); err != nil {
		t.Fatalf("Load: %v", err)
	}
	r, err := w.Replay(1) // full log: the overlap must be skipped exactly
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for {
		wr, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		handled, err := rec.ApplyWAL(wr)
		if err != nil || handled != (wr.Kind != wal.KindTSDBPoints) {
			t.Fatalf("ApplyWAL seq %d (kind 0x%02x) = %v, %v", wr.Seq, wr.Kind, handled, err)
		}
	}
	if a, b := dumpBase(live), dumpBase(rec); a != b {
		t.Fatalf("snapshot+tail replay diverges:\n live: %s\n rec:  %s", a, b)
	}
	if got, want := len(rec.runs), 3; got != want {
		t.Fatalf("run count %d, want %d (double-applied overlap?)", got, want)
	}
	if bytes.Contains([]byte(dumpBase(rec)), []byte("wal_seq")) {
		t.Fatal("Save writes wal_seq")
	}
}
