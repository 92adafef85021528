// Crash-recovery integration test: a full deployment (bus + TSDB + knowledge
// base + control plane) journaling through one WAL is hard-stopped
// mid-segment — journal abandoned without Close and a torn half-frame
// smashed onto the live segment, exactly what kill -9 mid-write leaves
// behind — and then recovered into fresh components by the daemon's own
// routine, scenario.Durable. The journaled layers (TSDB, knowledge) must
// come back byte-identical to a control run that was never killed, and the
// control plane must come back as that run's stood at the kill point.
package autoloop_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/control"
	"autoloop/internal/core"
	"autoloop/internal/knowledge"
	"autoloop/internal/scenario"
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
// journals and snapshots, assembled and recovered by scenario.Durable.
type recoveryDeployment struct {
	dur      *scenario.Durable
	engine   *sim.Engine
	b        *bus.Bus
	db       *tsdb.DB
	kb       *knowledge.Base
	ctl      *control.Service
	executed []core.Action
}

// newRecoveryDeployment recovers a deployment from w, which keeps its log
// and snapshots in dir. A log with no snapshot deploys the fleet: one
// human-in-the-loop loop that accumulates pending approvals, one autonomous
// loop that executes.
func newRecoveryDeployment(t *testing.T, dir string, w *wal.WAL) *recoveryDeployment {
	t.Helper()
	d := &recoveryDeployment{dur: &scenario.Durable{WAL: w, Dir: dir, Logf: t.Logf}}
	db := tsdb.New(time.Hour)
	if err := db.AddRollup(tsdb.RollupRule{
		Metric: "rig.temp", Step: time.Minute, Agg: tsdb.AggMean, Retention: 24 * time.Hour,
	}); err != nil {
		t.Fatalf("AddRollup: %v", err)
	}
	reg := control.NewRegistry()
	reg.MustRegister(recoveryCase(&d.executed))
	rt, err := d.dur.Recover(db, recoveryDoc(
		control.LoopSpec{Case: "script", Name: "gatekeeper", Mode: "human-in-the-loop"},
		control.LoopSpec{Case: "script", Name: "sweeper"},
	), reg)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	d.engine, d.b, d.db, d.kb = rt.Engine, rt.Bus, rt.DB, rt.Knowledge
	d.ctl = rt.Ctl.Attach(rt.Bus, "test")
	t.Cleanup(d.ctl.Close)
	return d
}

// recoveryDoc is a one-node facility deploying loops.
func recoveryDoc(loops ...control.LoopSpec) *scenario.Spec {
	return &scenario.Spec{
		Name: "recovery", Seed: 1, Horizon: control.Duration(24 * time.Hour),
		Facility: scenario.Facility{Nodes: 1}, Loops: scenario.Unscored(loops...),
	}
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
	cs, err := d.ctl.Snapshot(nil)
	if err != nil {
		t.Fatalf("dump ctl: %v", err)
	}
	return string(cs)
}

// openWAL opens a log in dir that syncs every append.
func openWAL(t *testing.T, dir string, segment int64) *wal.WAL {
	t.Helper()
	w, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways, SegmentBytes: segment})
	if err != nil {
		t.Fatalf("open wal: %v", err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

func TestCrashRecoveryByteIdentical(t *testing.T) {
	const total, mid = 9, 5

	// Control run: the same workload, journaled, never killed.
	ctrlDir := t.TempDir()
	ctrl := newRecoveryDeployment(t, ctrlDir, openWAL(t, ctrlDir, 0))
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
	w := openWAL(t, dir, 4096)
	crash := newRecoveryDeployment(t, dir, w)
	for i := 0; i < mid; i++ {
		crash.step(t, i)
	}
	if err := crash.dur.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	snapAtMid, ok, err := scenario.LatestSnapshot(dir)
	if err != nil || !ok {
		t.Fatalf("LatestSnapshot: ok=%v err=%v", ok, err)
	}
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
	w2 := openWAL(t, dir, 0)
	if w2.Metrics().Truncated == 0 {
		t.Fatal("torn tail not detected on reopen")
	}
	busRecords, learnRecords := 0, 0
	if _, err := w2.Fold(snapAtMid.Seq+1, func(rec wal.Record) error {
		switch rec.Kind {
		case wal.KindTSDBPoints:
		case wal.KindBusEnvelope:
			env, err := bus.Decode(rec.Payload)
			if err != nil {
				return fmt.Errorf("journaled envelope does not decode: %w", err)
			}
			if env.Topic == "knowledge.learn" {
				learnRecords++
			}
			busRecords++
		default:
			return fmt.Errorf("unknown record kind 0x%02x", rec.Kind)
		}
		return nil
	}); err != nil {
		t.Fatalf("scan tail: %v", err)
	}
	if busRecords == 0 {
		t.Fatal("no bus envelopes journaled — hook never fired")
	}
	if learnRecords == 0 {
		t.Fatal("no knowledge.learn envelopes in the tail — K was not journaled")
	}
	rec2 := newRecoveryDeployment(t, dir, w2)
	if !rec2.dur.Restored || rec2.dur.Seq != snapAtMid.Seq {
		t.Fatalf("recovered from snapshot %v @ seq %d, want the one @ %d", rec2.dur.Restored, rec2.dur.Seq, snapAtMid.Seq)
	}
	if now := rec2.engine.Now(); now != total*time.Minute {
		t.Fatalf("clock resumed at %v, want the tail's newest time %v", now, total*time.Minute)
	}

	// The journaled layers are byte-identical to the never-killed run.
	if got := dumpJournaled(t, rec2); got != wantJournaled {
		t.Fatalf("journaled state diverges after recovery:\n got: %.2000s\nwant: %.2000s", got, wantJournaled)
	}

	// The control plane recovers to the kill point, pending-approval queue
	// included, not to its snapshot: its tail folds too.
	if got := dumpControl(t, rec2); got != wantControl {
		t.Fatalf("control plane diverges from the never-killed run at the kill point:\n got: %s\nwant: %s", got, wantControl)
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

// TestRecoveredVerdictsApplyOnce kills a deployment, before any snapshot,
// with one approval applied and executed and another acknowledged but not
// yet applied, one sent over each surface: the recovered queue holds the
// second and not the first, and the next rounds execute the second once
// and the first never again.
func TestRecoveredVerdictsApplyOnce(t *testing.T) {
	dir := t.TempDir()
	d := newRecoveryDeployment(t, dir, openWAL(t, dir, 0))
	for i := 0; i < 3; i++ {
		d.step(t, i) // the gatekeeper defers pending actions 1, 2 and 3
	}
	if r := d.ctl.Verdict(true, control.Verdict{Seq: 1}); !r.OK {
		t.Fatalf("approve 1: %+v", r)
	}
	d.step(t, 3) // applies the approval: action 1 executes, 4 is deferred
	d.b.Publish(bus.Envelope{Topic: control.TopicApprove, Payload: control.Verdict{ID: "v", Seq: 2}})
	want := d.ctl.Handle(control.Request{Op: control.OpPending}).Pending
	if len(want) != 3 || want[0].Seq != 2 {
		t.Fatalf("pending before the kill = %+v, want 2, 3 and 4", want)
	}

	rec := newRecoveryDeployment(t, dir, openWAL(t, dir, 0))
	if got := rec.ctl.Handle(control.Request{Op: control.OpPending}).Pending; !reflect.DeepEqual(got, want) {
		t.Fatalf("pending after recovery = %+v, want %+v", got, want)
	}
	rec.ctl.Tick(5 * time.Minute)
	if len(rec.executed) != 2 { // approved action 2 + sweeper
		t.Fatalf("first recovered round executed %d actions, want 2", len(rec.executed))
	}
	rec.ctl.Tick(6 * time.Minute)
	if len(rec.executed) != 3 { // sweeper only
		t.Fatalf("second recovered round executed %d actions in all, want 3", len(rec.executed))
	}
	for _, p := range rec.ctl.Handle(control.Request{Op: control.OpPending}).Pending {
		if p.Seq <= 2 {
			t.Fatalf("action %d pending after its approval applied", p.Seq)
		}
	}
}

// TestRecoverSkipsRecordsOfAbsentLoops restarts a log with no snapshot on a
// fleet without the loop its control records name, as a changed -specs
// does: recovery reports and skips the gatekeeper's pending action and
// pause, and deploys the fleet it was given.
func TestRecoverSkipsRecordsOfAbsentLoops(t *testing.T) {
	dir := t.TempDir()
	d := newRecoveryDeployment(t, dir, openWAL(t, dir, 0))
	d.step(t, 0) // the gatekeeper defers action 1
	if r := d.ctl.Handle(control.Request{Op: control.OpPause, Loop: "gatekeeper"}); !r.OK {
		t.Fatalf("pause: %+v", r)
	}
	var skipped []string
	dur := &scenario.Durable{WAL: openWAL(t, dir, 0), Dir: dir, Logf: func(format string, args ...any) {
		skipped = append(skipped, fmt.Sprintf(format, args...))
	}}
	var executed []core.Action
	reg := control.NewRegistry()
	reg.MustRegister(recoveryCase(&executed))
	rt, err := dur.Recover(tsdb.New(time.Hour), recoveryDoc(control.LoopSpec{Case: "script", Name: "sweeper"}), reg)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if list := rt.Ctl.Handle(control.Request{Op: control.OpList}).Loops; len(list) != 1 || list[0].Name != "sweeper" {
		t.Fatalf("recovered fleet %+v, want the sweeper alone", list)
	}
	if len(skipped) != 2 || !strings.Contains(skipped[0], "control.v1.pending") || !strings.Contains(skipped[1], "control.v1.applied") {
		t.Fatalf("skipped %q, want the pending action and the pause", skipped)
	}
}

// TestRecoverAfterConcurrentOps applies operator ops from another
// goroutine while the deployment ticks and checkpoints, as HTTP handlers
// do against the daemon's engine goroutine, then recovers the abandoned
// log: the control plane must come back exactly as it stood. An op that
// landed between a checkpoint's log position and its control state would
// fold twice (a duplicate guard, a spawn of a loop already there).
func TestRecoverAfterConcurrentOps(t *testing.T) {
	dir := t.TempDir()
	d := newRecoveryDeployment(t, dir, openWAL(t, dir, 0))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 40; i++ {
			name := fmt.Sprintf("op-%d", i)
			for _, req := range []control.Request{
				{Op: control.OpSetGuard, Loop: "sweeper", Guard: &control.GuardSpec{Kind: "confidence"}},
				{Op: control.OpSpawn, Spec: &control.LoopSpec{Case: "script", Name: name}},
				{Op: control.OpPause, Loop: name},
				{Op: control.OpRemove, Loop: name},
			} {
				if r := d.ctl.Handle(req); !r.OK {
					t.Errorf("%s: %+v", req.Op, r)
				}
			}
		}
	}()
	for i := 0; ; i++ {
		select {
		case <-done:
		default:
			d.step(t, i)
			if i%3 == 0 {
				if err := d.dur.Checkpoint(); err != nil {
					t.Fatalf("Checkpoint: %v", err)
				}
			}
			continue
		}
		break
	}
	want := dumpControl(t, d)
	if got := dumpControl(t, newRecoveryDeployment(t, dir, openWAL(t, dir, 0))); got != want {
		t.Fatalf("recovered control plane diverges:\n got: %.3000s\nwant: %.3000s", got, want)
	}
}
