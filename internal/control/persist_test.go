package control_test

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/control"
	"autoloop/internal/core"
	"autoloop/internal/fleet"
	"autoloop/internal/sim"
	"autoloop/internal/wal"
)

// persistService builds a service around a fresh script recorder, registry,
// and bus — the "same binary, new process" side of a recovery.
func persistService(t testing.TB) (*control.Service, *bus.Bus, *script) {
	t.Helper()
	s := &script{}
	reg := control.NewRegistry()
	reg.MustRegister(scriptFactory("script", s))
	engine := sim.NewEngine(1)
	b := bus.New()
	env := &control.Env{Clock: sim.VirtualClock{Engine: engine}, Bus: b}
	svc := control.NewService(reg, env, fleet.New(1), time.Minute).Attach(b, "test")
	t.Cleanup(svc.Close)
	return svc, b, s
}

// TestControlSnapshotRestore drives a service through spawns, a mode change,
// a guard, a pause, and human-in-the-loop deferrals, snapshots it, restores
// into a fresh service, and requires (a) an identical re-snapshot and (b)
// that a restored pending approval executes live through the re-spawned loop.
func TestControlSnapshotRestore(t *testing.T) {
	svc1, b1, s1 := persistService(t)

	r := call(t, b1, control.Request{ID: "1", Op: control.OpSpawn,
		Spec: &control.LoopSpec{Case: "script", Name: "alpha", Mode: "human-in-the-loop"}})
	if !r.OK {
		t.Fatalf("spawn alpha: %+v", r)
	}
	if r = call(t, b1, control.Request{ID: "2", Op: control.OpSpawn,
		Spec: &control.LoopSpec{Case: "script", Name: "beta"}}); !r.OK {
		t.Fatalf("spawn beta: %+v", r)
	}
	if r = call(t, b1, control.Request{ID: "3", Op: control.OpSetGuard, Loop: "beta",
		Guard: &control.GuardSpec{Kind: "rate-limit", Max: 3, Window: control.Duration(10 * time.Minute)}}); !r.OK {
		t.Fatalf("set-guard: %+v", r)
	}
	// Two ticks: alpha (human-in-the-loop) defers two actions into the
	// pending queue; beta executes autonomously.
	svc1.Tick(1 * time.Minute)
	svc1.Tick(2 * time.Minute)
	if r = call(t, b1, control.Request{ID: "4", Op: control.OpPending}); !r.OK || len(r.Pending) != 2 {
		t.Fatalf("pending before crash: %+v", r)
	}
	if r = call(t, b1, control.Request{ID: "5", Op: control.OpPause, Loop: "beta"}); !r.OK {
		t.Fatalf("pause beta: %+v", r)
	}

	snap, err := svc1.Snapshot(nil)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	// "Restart": a fresh service over the same registry shape.
	svc2, b2, s2 := persistService(t)
	if err := svc2.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	again, err := svc2.Snapshot(nil)
	if err != nil {
		t.Fatalf("re-Snapshot: %v", err)
	}
	if string(snap) != string(again) {
		t.Fatalf("restored snapshot diverges:\n before: %s\n after:  %s", snap, again)
	}

	// The restored pending approvals are live: list them, approve the first,
	// and require execution through the re-spawned loop's executor.
	r = call(t, b2, control.Request{ID: "6", Op: control.OpPending})
	if !r.OK || len(r.Pending) != 2 || r.Pending[0].Loop != "alpha" {
		t.Fatalf("pending after restore: %+v", r)
	}
	if r = call(t, b2, control.Request{ID: "7", Op: control.OpGet, Loop: "beta"}); !r.OK || r.Loop.State != "paused" {
		t.Fatalf("beta after restore: %+v", r.Loop)
	}
	if r.Loop.Guards != 1 {
		t.Fatalf("beta guards after restore = %d, want 1", r.Loop.Guards)
	}

	pr := call(t, b2, control.Request{ID: "8", Op: control.OpPending})
	b2.Publish(bus.Envelope{Topic: control.TopicApprove, Time: 3 * time.Minute,
		Payload: control.Verdict{ID: "9", Seq: pr.Pending[0].Seq}})
	before := len(s2.executed)
	svc2.Tick(3 * time.Minute)
	// Exactly one new execution: the approved deferred action fires through
	// the re-spawned alpha; alpha's tick-3 plan defers again (human-in-the-
	// loop) and beta is paused.
	if len(s2.executed) != before+1 {
		t.Fatalf("executed %d -> %d after approval, want +1", before, len(s2.executed))
	}
	if len(s1.executed) == 0 {
		t.Fatal("sanity: original beta never executed")
	}
}

// TestControlRestorePendingStaleOnPausedLoop checks the lifecycle contract
// survives recovery: a pending action whose loop was snapshotted paused
// settles as stale after restore, never executing.
func TestControlRestorePendingStaleOnPausedLoop(t *testing.T) {
	svc1, b1, _ := persistService(t)
	if r := call(t, b1, control.Request{ID: "1", Op: control.OpSpawn,
		Spec: &control.LoopSpec{Case: "script", Name: "alpha", Mode: "human-in-the-loop"}}); !r.OK {
		t.Fatalf("spawn: %+v", r)
	}
	svc1.Tick(1 * time.Minute)
	if r := call(t, b1, control.Request{ID: "2", Op: control.OpPause, Loop: "alpha"}); !r.OK {
		t.Fatalf("pause: %+v", r)
	}
	snap, err := svc1.Snapshot(nil)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	svc2, b2, s2 := persistService(t)
	if err := svc2.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	pr := call(t, b2, control.Request{ID: "3", Op: control.OpPending})
	if !pr.OK || len(pr.Pending) != 1 {
		t.Fatalf("pending after restore: %+v", pr)
	}
	b2.Publish(bus.Envelope{Topic: control.TopicApprove, Time: 2 * time.Minute,
		Payload: control.Verdict{ID: "4", Seq: pr.Pending[0].Seq}})
	svc2.Tick(2 * time.Minute)
	if len(s2.executed) != 0 {
		t.Fatal("stale deferred action executed after restore")
	}
	if pr = call(t, b2, control.Request{ID: "5", Op: control.OpPending}); len(pr.Pending) != 0 {
		t.Fatalf("stale entry still queued: %+v", pr.Pending)
	}
}

// TestControlRestoreIgnoresRetiredPendingFields restores a snapshot written
// by a release whose pending entries still carried a simulated operator's
// "auto_at"/"auto_drop" deadlines: the fields are ignored, the entry stays
// queued for a real verdict, and the re-snapshot drops them.
func TestControlRestoreIgnoresRetiredPendingFields(t *testing.T) {
	svc1, b1, _ := persistService(t)
	if r := call(t, b1, control.Request{ID: "1", Op: control.OpSpawn,
		Spec: &control.LoopSpec{Case: "script", Name: "alpha", Mode: "human-in-the-loop"}}); !r.OK {
		t.Fatalf("spawn: %+v", r)
	}
	svc1.Tick(1 * time.Minute)
	snap, err := svc1.Snapshot(nil)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(snap, &doc); err != nil {
		t.Fatal(err)
	}
	pending := doc["pending"].([]any)[0].(map[string]any)
	pending["auto_at"] = float64(90 * time.Second)
	pending["auto_drop"] = true
	old, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}

	svc2, b2, s2 := persistService(t)
	if err := svc2.Restore(old); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if again, err := svc2.Snapshot(nil); err != nil || string(again) != string(snap) {
		t.Fatalf("re-Snapshot = %s, %v; want %s", again, err, snap)
	}
	seq := uint64(pending["seq"].(float64))
	svc2.Tick(2 * time.Minute)
	pr := call(t, b2, control.Request{ID: "2", Op: control.OpPending})
	if !pr.OK || len(pr.Pending) == 0 || pr.Pending[0].Seq != seq {
		t.Fatalf("restored entry %d not queued after a round: %+v", seq, pr)
	}
	b2.Publish(bus.Envelope{Topic: control.TopicApprove, Time: 3 * time.Minute,
		Payload: control.Verdict{ID: "3", Seq: seq}})
	svc2.Tick(3 * time.Minute)
	if len(s2.executed) != 1 {
		t.Fatalf("executed = %d after approving the restored entry, want 1", len(s2.executed))
	}
}

// TestRestoreUnnamedHierarchicalGroup restores a group spawned without a
// name whose case builds a primary and a child: the snapshot's normalized
// spec names the primary, and re-spawning it must rebuild the child under
// its own name, not namespaced under the primary's.
func TestRestoreUnnamedHierarchicalGroup(t *testing.T) {
	service := func() *control.Service {
		reg := control.NewRegistry()
		reg.MustRegister(control.CaseFactory{
			Name: "hier", Doc: "test: a parent and one child", Defaults: func() interface{} { return &struct{}{} },
			Build: func(*control.Env, interface{}) ([]control.BuiltLoop, error) {
				var out []control.BuiltLoop
				for _, name := range []string{"hier-parent", "hier-child"} {
					out = append(out, control.BuiltLoop{Loop: core.NewLoop(name,
						core.MonitorFunc(func(now time.Duration) (core.Observation, error) { return core.Observation{Time: now}, nil }),
						core.AnalyzerFunc(func(now time.Duration, _ core.Observation) (core.Symptoms, error) {
							return core.Symptoms{Time: now}, nil
						}),
						core.PlannerFunc(func(now time.Duration, _ core.Symptoms) (core.Plan, error) { return core.Plan{Time: now}, nil }),
						core.ExecutorFunc(func(_ time.Duration, a core.Action) (core.ActionResult, error) {
							return core.ActionResult{Action: a}, nil
						}),
					)})
				}
				return out, nil
			},
		})
		env := &control.Env{Clock: sim.VirtualClock{Engine: sim.NewEngine(1)}, Bus: bus.New()}
		svc := control.NewService(reg, env, fleet.New(1), time.Minute)
		t.Cleanup(svc.Close)
		return svc
	}
	svc1 := service()
	if _, err := svc1.Spawn(control.LoopSpec{Case: "hier"}); err != nil {
		t.Fatal(err)
	}
	snap, err := svc1.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := service()
	if err := svc2.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if again, err := svc2.Snapshot(nil); err != nil || string(again) != string(snap) {
		t.Fatalf("restored snapshot (err=%v) diverges:\n before: %s\n after:  %s", err, snap, again)
	}
}

// TestStartedLoopsFoldRunning journals a service's control records, spawns
// two loops, runs one round, then spawns a third. Folding the journal into
// a fresh service lists the two that ran as running and the third as
// created: a loop's first round is journaled once, whether or not its tick
// published anything.
func TestStartedLoopsFoldRunning(t *testing.T) {
	svc1, b1, _ := persistService(t)
	var journal []wal.Record
	b1.Journal(func(topic string) bool { return strings.HasPrefix(topic, "control.v1.") }, func(env bus.Envelope) {
		line, err := bus.Encode(env)
		if err != nil {
			t.Fatal(err)
		}
		journal = append(journal, wal.Record{Kind: wal.KindBusEnvelope, Seq: uint64(len(journal) + 1), Payload: line})
	})
	for _, name := range []string{"alpha", "beta"} {
		if r := call(t, b1, control.Request{Op: control.OpSpawn, Spec: &control.LoopSpec{Case: "script", Name: name}}); !r.OK {
			t.Fatalf("spawn %s: %+v", name, r)
		}
	}
	svc1.Tick(time.Minute)
	svc1.Tick(2 * time.Minute)
	if r := call(t, b1, control.Request{Op: control.OpSpawn, Spec: &control.LoopSpec{Case: "script", Name: "gamma"}}); !r.OK {
		t.Fatalf("spawn gamma: %+v", r)
	}
	started := 0
	for _, rec := range journal {
		if env, _ := bus.Decode(rec.Payload); env.Topic == control.TopicStarted {
			started++
		}
	}
	if started != 1 {
		t.Fatalf("%d started records over two rounds, want 1", started)
	}

	svc2, b2, _ := persistService(t)
	for _, rec := range journal {
		if _, err := svc2.ApplyWAL(rec); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]string{"alpha": "running", "beta": "running", "gamma": "created"}
	r := call(t, b2, control.Request{Op: control.OpList})
	if !r.OK || len(r.Loops) != len(want) {
		t.Fatalf("list after the fold: %+v", r)
	}
	for _, ls := range r.Loops {
		if ls.State != want[ls.Name] {
			t.Errorf("%s folded %s, want %s", ls.Name, ls.State, want[ls.Name])
		}
	}
}
