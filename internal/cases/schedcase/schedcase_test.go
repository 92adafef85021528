package schedcase

import (
	"strings"
	"testing"
	"time"

	"autoloop/internal/app"
	"autoloop/internal/bus"
	"autoloop/internal/core"
	"autoloop/internal/knowledge"
	"autoloop/internal/sched"
	"autoloop/internal/sim"
	"autoloop/internal/tsdb"
)

// rig is a miniature cluster: engine, db, scheduler, app runtime, controller.
type rig struct {
	e    *sim.Engine
	db   *tsdb.DB
	s    *sched.Scheduler
	rt   *app.Runtime
	kb   *knowledge.Base
	ctl  *Controller
	loop *core.Loop
}

func newRig(t *testing.T, cfg Config, policy sched.ExtensionPolicy) *rig {
	t.Helper()
	e := sim.NewEngine(1)
	db := tsdb.New(0)
	nodes := []string{"n00", "n01", "n02", "n03"}
	s := sched.New(e, nodes, policy)
	rt := app.NewRuntime(e, db, nil, nil)
	kb := knowledge.NewBase()
	ctl := New(cfg, db, s, rt, kb, sim.VirtualClock{Engine: e})
	rt.Serve(s)
	loop := ctl.Loop()
	r := &rig{e: e, db: db, s: s, rt: rt, kb: kb, ctl: ctl, loop: loop}
	return r
}

// noteEnds wires terminal-state resolution the way the harness does.
func (r *rig) noteEnds() {
	seen := map[int]bool{}
	r.e.Every(time.Minute, time.Minute, func() bool {
		for _, j := range r.s.Jobs() {
			if seen[j.ID] {
				continue
			}
			switch j.State {
			case sched.JobCompleted, sched.JobKilledWalltime, sched.JobKilledMaint:
				seen[j.ID] = true
				r.ctl.NoteJobEnd(j)
			}
		}
		return true
	})
}

// launch registers a spec whose true runtime exceeds or fits the walltime.
func (r *rig) launch(t *testing.T, name string, iters int, iterTime, wall time.Duration) *sched.Job {
	t.Helper()
	r.rt.RegisterSpec(name, app.Spec{
		Name: name, TotalIters: iters,
		IterTime: sim.Constant{V: iterTime},
	})
	j, err := r.s.Submit(name, "u", 1, wall, 0)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestLoopExtendsUnderestimatedJob(t *testing.T) {
	r := newRig(t, DefaultConfig(), sched.ExtensionPolicy{MaxPerJob: 3, MaxTotalPerJob: 10 * time.Hour})
	r.noteEnds()
	// True runtime 100 min; requested walltime 60 min.
	j := r.launch(t, "under", 100, time.Minute, time.Hour)
	r.loop.RunEvery(sim.VirtualClock{Engine: r.e}, 5*time.Minute, nil)
	r.e.RunUntil(5 * time.Hour)
	if j.State != sched.JobCompleted {
		t.Fatalf("state = %v (ext=%d total=%v), want completed via extension", j.State, j.Extensions, j.ExtensionTotal)
	}
	if j.Extensions == 0 {
		t.Error("job completed without any extension?")
	}
	m := r.loop.Metrics()
	if m.ExecutedActions == 0 || m.HonoredActions == 0 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestLoopLeavesWellEstimatedJobAlone(t *testing.T) {
	r := newRig(t, DefaultConfig(), sched.DefaultExtensionPolicy())
	r.noteEnds()
	// True runtime 30 min; walltime 60 min: nothing to do.
	j := r.launch(t, "fine", 30, time.Minute, time.Hour)
	r.loop.RunEvery(sim.VirtualClock{Engine: r.e}, 5*time.Minute, nil)
	r.e.RunUntil(2 * time.Hour)
	if j.State != sched.JobCompleted {
		t.Fatalf("state = %v", j.State)
	}
	if j.Extensions != 0 {
		t.Errorf("unneeded extensions: %d", j.Extensions)
	}
}

func TestCheckpointFallbackWhenExhausted(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(t, cfg, sched.ExtensionPolicy{MaxPerJob: 1, MaxTotalPerJob: 10 * time.Minute})
	r.noteEnds()
	// Needs far more than policy allows: 3h true vs 1h walltime, max ext 10m.
	spec := app.Spec{
		Name: "huge", TotalIters: 180, IterTime: sim.Constant{V: time.Minute},
		CheckpointCost: time.Minute,
	}
	r.rt.RegisterSpec("huge", spec)
	j, err := r.s.Submit("huge", "u", 1, time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.loop.RunEvery(sim.VirtualClock{Engine: r.e}, 5*time.Minute, nil)
	r.e.RunUntil(6 * time.Hour)
	if j.State != sched.JobKilledWalltime {
		t.Fatalf("state = %v, want killed (policy too tight)", j.State)
	}
	inst, _ := r.rt.Instance(j.ID)
	if inst.CheckpointIter() == 0 {
		t.Error("checkpoint fallback never checkpointed")
	}
	// A resubmission restarts from the checkpoint.
	j2, err := r.s.Submit("huge", "u", 1, 4*time.Hour, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	r.e.RunUntil(12 * time.Hour)
	if j2.State != sched.JobCompleted {
		t.Fatalf("resubmission state = %v", j2.State)
	}
	inst2, _ := r.rt.Instance(j2.ID)
	if inst2.Iter() != 180 {
		t.Errorf("resubmission iters = %d", inst2.Iter())
	}
}

func TestKnowledgeCorrectionImprovesSecondRun(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(t, cfg, sched.ExtensionPolicy{MaxPerJob: 10, MaxTotalPerJob: 100 * time.Hour})
	r.noteEnds()
	r.loop.RunEvery(sim.VirtualClock{Engine: r.e}, 5*time.Minute, nil)

	// An app that decelerates: early rate looks fast, so naive TTC
	// underestimates; Knowledge learns the correction across runs.
	spec := app.Spec{
		Name: "decel", TotalIters: 120, IterTime: sim.Constant{V: time.Minute},
		DriftPerIter: 0.01,
	}
	r.rt.RegisterSpec("decel", spec)
	j1, err := r.s.Submit("decel", "u", 1, 90*time.Minute, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.e.RunUntil(10 * time.Hour)
	if j1.State != sched.JobCompleted {
		t.Fatalf("first run state = %v ext=%d", j1.State, j1.Extensions)
	}
	if r.kb.Correction("decel") == 1.0 {
		t.Error("no correction learned from first run")
	}
	if _, ok := r.kb.TypicalRuntime("decel"); !ok {
		t.Error("run record missing")
	}
}

func TestAssessResolvesPredictions(t *testing.T) {
	r := newRig(t, DefaultConfig(), sched.ExtensionPolicy{MaxPerJob: 5, MaxTotalPerJob: 10 * time.Hour})
	r.noteEnds()
	j := r.launch(t, "under", 100, time.Minute, time.Hour)
	r.loop.RunEvery(sim.VirtualClock{Engine: r.e}, 5*time.Minute, nil)
	r.e.RunUntil(5 * time.Hour)
	if j.State != sched.JobCompleted {
		t.Fatalf("state = %v", j.State)
	}
	if len(r.ctl.pending) != 0 {
		t.Errorf("unresolved predictions: %d", len(r.ctl.pending))
	}
	eff := r.kb.Assess("scheduler-case")
	if eff.Plans == 0 || eff.Resolved != eff.Plans {
		t.Errorf("effectiveness = %+v", eff)
	}
	if eff.MeanRelErr > 0.2 {
		t.Errorf("prediction error %.2f too large for constant-rate app", eff.MeanRelErr)
	}
}

func TestConfidenceGateBlocksEarlyActions(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(t, cfg, sched.ExtensionPolicy{MaxPerJob: 5, MaxTotalPerJob: 10 * time.Hour})
	r.noteEnds()
	// Gate at an unreachably high confidence: nothing executes.
	r.loop.Guards = []core.Guardrail{core.ConfidenceGate{Min: 0.999}}
	j := r.launch(t, "under", 100, time.Minute, time.Hour)
	r.loop.RunEvery(sim.VirtualClock{Engine: r.e}, 5*time.Minute, nil)
	r.e.RunUntil(5 * time.Hour)
	if j.State != sched.JobKilledWalltime {
		t.Fatalf("state = %v, want killed (loop gated)", j.State)
	}
	if r.loop.Metrics().VetoedActions == 0 {
		t.Error("gate never vetoed")
	}
	if j.Extensions != 0 {
		t.Error("extension slipped past the gate")
	}
}

func TestRestartResetsEstimator(t *testing.T) {
	r := newRig(t, DefaultConfig(), sched.DefaultExtensionPolicy())
	r.noteEnds()
	j := r.launch(t, "requeued", 300, time.Minute, 8*time.Hour)
	r.loop.RunEvery(sim.VirtualClock{Engine: r.e}, 5*time.Minute, nil)
	r.e.RunUntil(30 * time.Minute)
	if _, ok := r.ctl.estimators[j.ID]; !ok {
		t.Fatal("estimator missing")
	}
	old := r.ctl.startSeen[j.ID]
	if err := r.s.Requeue(j.ID); err != nil {
		t.Fatal(err)
	}
	r.e.RunUntil(time.Hour)
	if r.ctl.startSeen[j.ID] == old {
		t.Error("estimator not reset after restart")
	}
}

// TestProportionalBufferReducesExtensionCount documents the design choice
// behind Controller.buffer: on a decelerating application, fixed-size buffers
// nibble at the deadline and burn the scheduler's count cap, while the
// proportional margin requests fewer, larger extensions.
func TestProportionalBufferReducesExtensionCount(t *testing.T) {
	run := func(fixedOnly bool) (extensions int, state sched.JobState) {
		cfg := DefaultConfig()
		cfg.FixedBufferOnly = fixedOnly
		r := newRig(t, cfg, sched.ExtensionPolicy{MaxPerJob: 25, MaxTotalPerJob: 100 * time.Hour})
		r.noteEnds()
		r.loop.RunEvery(sim.VirtualClock{Engine: r.e}, 5*time.Minute, nil)
		spec := app.Spec{
			Name: "decel", TotalIters: 120, IterTime: sim.Constant{V: time.Minute},
			DriftPerIter: 0.01,
		}
		r.rt.RegisterSpec("decel", spec)
		j, err := r.s.Submit("decel", "u", 1, 90*time.Minute, 0)
		if err != nil {
			t.Fatal(err)
		}
		r.e.RunUntil(12 * time.Hour)
		return j.Extensions, j.State
	}
	propExt, propState := run(false)
	fixedExt, fixedState := run(true)
	if propState != sched.JobCompleted || fixedState != sched.JobCompleted {
		t.Fatalf("states: prop=%v fixed=%v", propState, fixedState)
	}
	if propExt >= fixedExt {
		t.Errorf("proportional buffer used %d extensions, fixed used %d; want fewer", propExt, fixedExt)
	}
}

func TestRoundUp(t *testing.T) {
	if got := roundUp(7*time.Minute, 5*time.Minute); got != 10*time.Minute {
		t.Errorf("roundUp = %v", got)
	}
	if got := roundUp(10*time.Minute, 5*time.Minute); got != 10*time.Minute {
		t.Errorf("exact roundUp = %v", got)
	}
	if got := roundUp(7*time.Minute, 0); got != 7*time.Minute {
		t.Errorf("zero gran = %v", got)
	}
}

func TestNilDependencyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(DefaultConfig(), nil, nil, nil, nil, nil)
}

// TestLoopEventsOnBus checks the walltime-extension loop publishes its
// lifecycle on an attached bus while extending an underestimated job.
func TestLoopEventsOnBus(t *testing.T) {
	r := newRig(t, DefaultConfig(), sched.ExtensionPolicy{MaxPerJob: 3, MaxTotalPerJob: 10 * time.Hour})
	r.noteEnds()
	r.launch(t, "under", 100, time.Minute, 60*time.Minute)
	b := bus.New()
	counts := map[string]int{}
	b.Subscribe("loop.*", func(e bus.Envelope) {
		counts[e.Topic[strings.LastIndexByte(e.Topic, '.')+1:]]++
	})
	r.loop.Bus = b
	r.loop.RunEvery(sim.VirtualClock{Engine: r.e}, 5*time.Minute, nil)
	r.e.RunUntil(3 * time.Hour)
	if counts["finding"] == 0 || counts["plan"] == 0 || counts["execute"] == 0 {
		t.Errorf("loop events = %v; want finding, plan, and execute envelopes", counts)
	}
}
