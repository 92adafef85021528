// Crash-recovery integration test: a full deployment (bus + TSDB + knowledge
// base + control plane) journaling through one WAL is hard-stopped
// mid-segment — journal abandoned without Close and a torn half-frame
// smashed onto the live segment, exactly what kill -9 mid-write leaves
// behind — and then recovered into fresh components. The journaled layers
// (TSDB, knowledge) must come back byte-identical to a control run that was
// never killed; the snapshot-only control plane must come back exactly as
// of its last snapshot and re-derive the identical end state when driven
// through the missed rounds.
package autoloop_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/control"
	"autoloop/internal/core"
	"autoloop/internal/fleet"
	"autoloop/internal/knowledge"
	"autoloop/internal/sim"
	"autoloop/internal/telemetry"
	"autoloop/internal/tsdb"
	"autoloop/internal/wal"
)

// recoveryCase is a capability-free control case: every tick plans one
// action, and executions are recorded so the test can observe liveness.
func recoveryCase(executed *[]core.Action) control.CaseFactory {
	return control.CaseFactory{
		Name:     "script",
		Doc:      "test: plans one action per tick",
		Defaults: func() interface{} { return &struct{}{} },
		Priority: 1,
		Build: func(env *control.Env, _ interface{}) ([]control.BuiltLoop, error) {
			l := core.NewLoop("script",
				core.MonitorFunc(func(now time.Duration) (core.Observation, error) {
					return core.Observation{Time: now}, nil
				}),
				core.AnalyzerFunc(func(now time.Duration, obs core.Observation) (core.Symptoms, error) {
					return core.Symptoms{Time: now, Findings: []core.Finding{{Kind: "f", Subject: "s1", Confidence: 1}}}, nil
				}),
				core.PlannerFunc(func(now time.Duration, sym core.Symptoms) (core.Plan, error) {
					return core.Plan{Time: now, Actions: []core.Action{{Kind: "act", Subject: "s1", Amount: 1, Confidence: 1}}}, nil
				}),
				core.ExecutorFunc(func(now time.Duration, a core.Action) (core.ActionResult, error) {
					*executed = append(*executed, a)
					return core.ActionResult{Action: a, Honored: true, Granted: a.Amount}, nil
				}),
			)
			return []control.BuiltLoop{{Loop: l}}, nil
		},
	}
}

// recoveryDeployment is the stateful slice of a daemon: everything modad
// journals and snapshots.
type recoveryDeployment struct {
	b        *bus.Bus
	db       *tsdb.DB
	kb       *knowledge.Base
	ctl      *control.Service
	executed []core.Action
}

func newRecoveryDeployment(t *testing.T) *recoveryDeployment {
	t.Helper()
	d := &recoveryDeployment{b: bus.New(), db: tsdb.New(time.Hour), kb: knowledge.NewBase()}
	d.kb.PublishTo(d.b)
	if err := d.db.AddRollup(tsdb.RollupRule{
		Metric: "rig.temp", Step: time.Minute, Agg: tsdb.AggMean, Retention: 24 * time.Hour,
	}); err != nil {
		t.Fatalf("AddRollup: %v", err)
	}
	reg := control.NewRegistry()
	reg.MustRegister(recoveryCase(&d.executed))
	env := &control.Env{
		Knowledge: d.kb,
		Clock:     sim.VirtualClock{Engine: sim.NewEngine(1)},
		Bus:       d.b,
	}
	d.ctl = control.NewService(reg, env, fleet.New(1), time.Minute).Attach(d.b, "test")
	t.Cleanup(d.ctl.Close)
	return d
}

// spawn deploys the fleet: one human-in-the-loop loop that accumulates
// pending approvals, one autonomous loop that executes.
func (d *recoveryDeployment) spawn(t *testing.T) {
	t.Helper()
	for _, spec := range []control.LoopSpec{
		{Case: "script", Name: "gatekeeper", Mode: "human-in-the-loop"},
		{Case: "script", Name: "sweeper"},
	} {
		if _, err := d.ctl.Spawn(spec); err != nil {
			t.Fatalf("spawn %s: %v", spec.Name, err)
		}
	}
}

// attach wires the deployment's journals to w, as modad does on startup:
// the bus journal records the knowledge base's writes with the rest.
func (d *recoveryDeployment) attach(w *wal.WAL) {
	d.db.Journal(w)
	d.b.Journal(func(string) bool { return true }, func(env bus.Envelope) {
		if line, err := bus.Encode(env); err == nil {
			w.Append(wal.KindBusEnvelope, line)
		}
	})
}

// step applies one deterministic workload beat: telemetry appends (batch and
// single), one of every knowledge mutation, and a control round.
func (d *recoveryDeployment) step(t *testing.T, i int) {
	t.Helper()
	at := time.Duration(i+1) * time.Minute
	node := fmt.Sprintf("n%02d", i%4)
	if err := d.db.AppendBatch([]telemetry.Point{
		{Name: "rig.temp", Labels: telemetry.Labels{"node": node}, Time: at, Value: 20 + float64(i)*0.25},
		{Name: "rig.load", Labels: telemetry.Labels{"node": node}, Time: at, Value: float64(i % 7)},
	}); err != nil {
		t.Fatalf("AppendBatch beat %d: %v", i, err)
	}
	if err := d.db.Append(telemetry.Point{Name: "rig.power", Time: at, Value: 400 + 3*float64(i)}); err != nil {
		t.Fatalf("Append beat %d: %v", i, err)
	}
	d.kb.AddRun(knowledge.RunRecord{
		App: "lmp", User: "ops", Nodes: 4 + i%3,
		Runtime: time.Duration(40+i) * time.Minute, Walltime: time.Hour,
		Completed: i%5 != 0, At: at,
	})
	idx := d.kb.RecordPlan(knowledge.PlanRecord{Loop: "script", Action: "act", At: at, Predicted: float64(10 + i)})
	if i%2 == 0 {
		if err := d.kb.ResolvePlan(idx, float64(9+i), true); err != nil {
			t.Fatalf("ResolvePlan beat %d: %v", i, err)
		}
	}
	d.kb.ResolveCorrection("lmp", 100, 100+float64(i))
	d.kb.SetFact("beat", float64(i))
	d.ctl.Tick(at)
}

// deploySnap mirrors modad's combined snapshot payload: a compact JSON
// header, a newline, then the store's binary snapshot as raw bytes.
type deploySnap struct {
	Seq       uint64          `json:"seq"`
	Knowledge json.RawMessage `json:"knowledge"`
	Control   json.RawMessage `json:"control"`
	TSDB      []byte          `json:"-"`
}

// checkpoint writes one combined snapshot covering the whole log and
// compacts the superseded segments.
func checkpoint(t *testing.T, dir string, w *wal.WAL, d *recoveryDeployment) *deploySnap {
	t.Helper()
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	snap := &deploySnap{Seq: w.LastSeq()}
	var err error
	if snap.TSDB, err = d.db.Snapshot(); err != nil {
		t.Fatalf("tsdb snapshot: %v", err)
	}
	var kbuf bytes.Buffer
	if err := d.kb.Save(&kbuf); err != nil {
		t.Fatalf("kb save: %v", err)
	}
	snap.Knowledge = kbuf.Bytes()
	if snap.Control, err = d.ctl.Snapshot(); err != nil {
		t.Fatalf("ctl snapshot: %v", err)
	}
	hdr, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	payload := append(append(hdr, '\n'), snap.TSDB...)
	if err := wal.WriteSnapshot(dir, "deploy", snap.Seq, payload); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if _, err := w.Compact(snap.Seq + 1); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	return snap
}

// dumpJournaled serializes the journaled layers (TSDB + knowledge) to
// deterministic bytes.
func dumpJournaled(t *testing.T, d *recoveryDeployment) string {
	t.Helper()
	ts, err := d.db.Snapshot()
	if err != nil {
		t.Fatalf("dump tsdb: %v", err)
	}
	var kbuf bytes.Buffer
	if err := d.kb.Save(&kbuf); err != nil {
		t.Fatalf("dump kb: %v", err)
	}
	return string(ts) + "\n" + kbuf.String()
}

func dumpControl(t *testing.T, d *recoveryDeployment) string {
	t.Helper()
	cs, err := d.ctl.Snapshot()
	if err != nil {
		t.Fatalf("dump ctl: %v", err)
	}
	return string(cs)
}

func TestCrashRecoveryByteIdentical(t *testing.T) {
	const total, mid = 9, 5

	// Control run: the same workload, journaled, never killed.
	ctrl := newRecoveryDeployment(t)
	ctrl.spawn(t)
	wc, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatalf("open control wal: %v", err)
	}
	defer wc.Close()
	ctrl.attach(wc)
	for i := 0; i < total; i++ {
		ctrl.step(t, i)
	}
	wantJournaled := dumpJournaled(t, ctrl)
	wantControl := dumpControl(t, ctrl)

	// Crash run: small segments force rotation; checkpoint mid-way, keep
	// going, then hard-stop — the WAL is abandoned without Close and a torn
	// frame (a header promising a 64-byte body, delivering 3) lands on the
	// live segment, as a crash mid-write would leave it.
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways, SegmentBytes: 4096})
	if err != nil {
		t.Fatalf("open crash wal: %v", err)
	}
	crash := newRecoveryDeployment(t)
	crash.spawn(t)
	crash.attach(w)
	for i := 0; i < mid; i++ {
		crash.step(t, i)
	}
	snapAtMid := checkpoint(t, dir, w, crash)
	for i := mid; i < total; i++ {
		crash.step(t, i)
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync before crash: %v", err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	if len(segs) < 2 {
		t.Fatalf("want rotation before the crash, got %d segment(s)", len(segs))
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatalf("open live segment: %v", err)
	}
	torn := []byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 'x', 'y', 'z'}
	if _, err := f.Write(torn); err != nil {
		t.Fatalf("write torn tail: %v", err)
	}
	f.Close()

	// Recover into fresh components.
	w2, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	if w2.Metrics().Truncated == 0 {
		t.Fatal("torn tail not detected on reopen")
	}
	payload, seq, ok, err := wal.LatestSnapshot(dir, "deploy")
	if err != nil || !ok {
		t.Fatalf("LatestSnapshot: ok=%v err=%v", ok, err)
	}
	if seq != snapAtMid.Seq {
		t.Fatalf("snapshot seq = %d, want %d", seq, snapAtMid.Seq)
	}
	var snap deploySnap
	hdr, ts, _ := bytes.Cut(payload, []byte{'\n'})
	if err := json.Unmarshal(hdr, &snap); err != nil {
		t.Fatalf("decode snapshot: %v", err)
	}
	snap.TSDB = ts
	rec2 := newRecoveryDeployment(t)
	if err := rec2.db.RestoreSnapshot(snap.TSDB); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	if err := rec2.kb.Load(bytes.NewReader(snap.Knowledge)); err != nil {
		t.Fatalf("kb load: %v", err)
	}
	if err := rec2.ctl.Restore(snap.Control); err != nil {
		t.Fatalf("ctl restore: %v", err)
	}
	r, err := w2.Replay(seq + 1)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	defer r.Close()
	busRecords, learnRecords := 0, 0
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		var handled bool
		handled, err = rec2.db.ApplyWAL(rec.Kind, rec.Payload)
		if !handled {
			handled, err = rec2.kb.ApplyWAL(rec)
			if handled {
				learnRecords++
			}
		}
		switch {
		case handled:
		case rec.Kind == wal.KindBusEnvelope:
			// Audit trail: must decode, never re-publishes.
			if _, derr := bus.Decode(rec.Payload); derr != nil {
				t.Fatalf("journaled envelope seq %d does not decode: %v", rec.Seq, derr)
			}
			busRecords++
		default:
			t.Fatalf("unknown record kind 0x%02x at seq %d", rec.Kind, rec.Seq)
		}
		if err != nil {
			t.Fatalf("apply seq %d: %v", rec.Seq, err)
		}
	}
	if busRecords == 0 {
		t.Fatal("no bus envelopes journaled — hook never fired")
	}
	if learnRecords == 0 {
		t.Fatal("no knowledge.learn envelopes in the tail — K was not journaled")
	}

	// The journaled layers are byte-identical to the never-killed run.
	if got := dumpJournaled(t, rec2); got != wantJournaled {
		t.Fatalf("journaled state diverges after recovery:\n got: %.2000s\nwant: %.2000s", got, wantJournaled)
	}

	// The snapshot-only control plane restores exactly as of the checkpoint
	// and, driven through the missed rounds, re-derives the identical end
	// state — including the pending-approval queue.
	if got := dumpControl(t, rec2); got != string(snapAtMid.Control) {
		t.Fatalf("control plane diverges from checkpoint:\n got: %s\nwant: %s", got, snapAtMid.Control)
	}
	for i := mid; i < total; i++ {
		rec2.ctl.Tick(time.Duration(i+1) * time.Minute)
	}
	if got := dumpControl(t, rec2); got != wantControl {
		t.Fatalf("control plane diverges after re-driving missed rounds:\n got: %s\nwant: %s", got, wantControl)
	}

	// The recovered pending queue is live: approve the oldest entry and the
	// re-spawned gatekeeper executes it on the next round.
	pr := rec2.ctl.Handle(control.Request{ID: "p", Op: control.OpPending})
	if !pr.OK || len(pr.Pending) == 0 {
		t.Fatalf("no pending approvals after recovery: %+v", pr)
	}
	rec2.b.Publish(bus.Envelope{Topic: control.TopicApprove, Time: (total + 1) * time.Minute,
		Payload: control.Verdict{ID: "v", Seq: pr.Pending[0].Seq}})
	before := len(rec2.executed)
	rec2.ctl.Tick((total + 1) * time.Minute)
	if len(rec2.executed) != before+2 { // approved action + sweeper's autonomous tick
		t.Fatalf("executed %d -> %d after approval, want +2", before, len(rec2.executed))
	}
}
