package maintcase

import (
	"strings"
	"testing"
	"time"

	"autoloop/internal/app"
	"autoloop/internal/bus"
	"autoloop/internal/core"
	"autoloop/internal/sched"
	"autoloop/internal/sim"
	"autoloop/internal/tsdb"
)

type rig struct {
	e   *sim.Engine
	db  *tsdb.DB
	s   *sched.Scheduler
	rt  *app.Runtime
	ctl *Controller
}

func newRig(t *testing.T) *rig {
	t.Helper()
	e := sim.NewEngine(1)
	db := tsdb.New(0)
	s := sched.New(e, []string{"n00", "n01"}, sched.DefaultExtensionPolicy())
	rt := app.NewRuntime(e, db, nil, nil)
	rt.Serve(s)
	ctl := New(DefaultConfig(), db, s, rt)
	return &rig{e: e, db: db, s: s, rt: rt, ctl: ctl}
}

func (r *rig) run(period time.Duration) {
	r.ctl.Loop().RunEvery(sim.VirtualClock{Engine: r.e}, period, nil)
}

func TestCheckpointsAndRequeuesEndangeredJob(t *testing.T) {
	r := newRig(t)
	// Long job: 300 one-minute iterations with a 2-minute checkpoint.
	r.rt.RegisterSpec("big", app.Spec{
		Name: "big", TotalIters: 300, IterTime: sim.Constant{V: time.Minute},
		CheckpointCost: 2 * time.Minute,
	})
	j, err := r.s.Submit("big", "u", 1, 8*time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Maintenance at t=2h..3h. The job cannot finish by then.
	if err := r.s.AddMaintenance(2*time.Hour, 3*time.Hour); err != nil {
		t.Fatal(err)
	}
	r.run(5 * time.Minute)
	r.e.RunUntil(2 * time.Hour)
	// By maintenance start the job must have been requeued, not running.
	if j.State == sched.JobRunning {
		t.Fatal("job still running into maintenance")
	}
	if j.State == sched.JobKilledMaint {
		t.Fatal("job was killed by maintenance despite the loop")
	}
	if r.ctl.Preserved != 1 {
		t.Errorf("Preserved = %d", r.ctl.Preserved)
	}
	inst, _ := r.rt.Instance(j.ID)
	ckpt := inst.CheckpointIter()
	if ckpt < 80 {
		t.Errorf("checkpoint at iter %d, want near the window (~90+)", ckpt)
	}
	// After the window the job resumes from checkpoint and completes.
	r.e.RunUntil(12 * time.Hour)
	if j.State != sched.JobCompleted {
		t.Fatalf("final state = %v", j.State)
	}
	inst2, _ := r.rt.Instance(j.ID)
	if inst2.Iter() != 300 {
		t.Errorf("iters = %d", inst2.Iter())
	}
}

func TestShortJobLeftAlone(t *testing.T) {
	r := newRig(t)
	r.rt.RegisterSpec("small", app.Spec{
		Name: "small", TotalIters: 30, IterTime: sim.Constant{V: time.Minute},
	})
	j, err := r.s.Submit("small", "u", 1, time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.s.AddMaintenance(2*time.Hour, 3*time.Hour); err != nil {
		t.Fatal(err)
	}
	r.run(5 * time.Minute)
	r.e.RunUntil(4 * time.Hour)
	if j.State != sched.JobCompleted {
		t.Fatalf("state = %v", j.State)
	}
	if j.Requeues != 0 {
		t.Errorf("short job was needlessly requeued %d times", j.Requeues)
	}
	if r.ctl.Preserved != 0 {
		t.Errorf("Preserved = %d", r.ctl.Preserved)
	}
}

func TestNoMaintenanceNoFindings(t *testing.T) {
	r := newRig(t)
	r.rt.RegisterSpec("x", app.Spec{Name: "x", TotalIters: 600, IterTime: sim.Constant{V: time.Minute}})
	if _, err := r.s.Submit("x", "u", 1, 24*time.Hour, 0); err != nil {
		t.Fatal(err)
	}
	loop := r.ctl.Loop()
	loop.RunEvery(sim.VirtualClock{Engine: r.e}, 10*time.Minute, nil)
	r.e.RunUntil(time.Hour)
	if loop.Metrics().Findings != 0 {
		t.Errorf("findings without maintenance: %d", loop.Metrics().Findings)
	}
}

func TestActsOnlyWithinLeadTime(t *testing.T) {
	r := newRig(t)
	r.rt.RegisterSpec("big", app.Spec{
		Name: "big", TotalIters: 600, IterTime: sim.Constant{V: time.Minute},
	})
	j, err := r.s.Submit("big", "u", 1, 20*time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.s.AddMaintenance(5*time.Hour, 6*time.Hour); err != nil {
		t.Fatal(err)
	}
	r.run(10 * time.Minute)
	// Long before the lead time, nothing should happen.
	r.e.RunUntil(4 * time.Hour)
	if j.Requeues != 0 {
		t.Error("acted before lead time")
	}
	r.e.RunUntil(5 * time.Hour)
	if j.Requeues != 1 {
		t.Errorf("Requeues = %d at window start", j.Requeues)
	}
}

func TestBaselineWithoutLoopLosesWork(t *testing.T) {
	r := newRig(t)
	r.rt.RegisterSpec("big", app.Spec{
		Name: "big", TotalIters: 300, IterTime: sim.Constant{V: time.Minute},
	})
	j, err := r.s.Submit("big", "u", 1, 8*time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = r.s.AddMaintenance(2*time.Hour, 3*time.Hour)
	// No loop running.
	r.e.RunUntil(4 * time.Hour)
	if j.State != sched.JobKilledMaint {
		t.Fatalf("state = %v, want killed-maint without loop", j.State)
	}
	inst, _ := r.rt.Instance(j.ID)
	if inst.CheckpointIter() != 0 {
		t.Error("baseline should have no checkpoint")
	}
}

func TestExecuteRejectsUnknownAction(t *testing.T) {
	r := newRig(t)
	if _, err := r.ctl.execute(0, core.Action{Kind: "bogus", Subject: "1"}); err == nil {
		t.Error("expected error for unknown action")
	}
	if _, err := r.ctl.execute(0, core.Action{Kind: "checkpoint-requeue", Subject: "x"}); err == nil {
		t.Error("expected error for bad subject")
	}
}

// TestLoopEventsOnBus checks the maintenance loop's lifecycle lands on an
// attached bus as "loop.<name>.*" envelopes: the endangered-job scenario must
// produce findings, planned actions, and executed checkpoint/requeues.
func TestLoopEventsOnBus(t *testing.T) {
	r := newRig(t)
	r.rt.RegisterSpec("big", app.Spec{
		Name: "big", TotalIters: 300, IterTime: sim.Constant{V: time.Minute},
		CheckpointCost: 2 * time.Minute,
	})
	if _, err := r.s.Submit("big", "u", 1, 8*time.Hour, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.s.AddMaintenance(2*time.Hour, 3*time.Hour); err != nil {
		t.Fatal(err)
	}
	b := bus.New()
	counts := map[string]int{}
	b.Subscribe("loop.*", func(e bus.Envelope) {
		counts[e.Topic[strings.LastIndexByte(e.Topic, '.')+1:]]++
	})
	loop := r.ctl.Loop()
	loop.Bus = b
	loop.RunEvery(sim.VirtualClock{Engine: r.e}, 5*time.Minute, nil)
	r.e.RunUntil(2 * time.Hour)
	if counts["finding"] == 0 || counts["plan"] == 0 || counts["execute"] == 0 {
		t.Errorf("loop events = %v; want finding, plan, and execute envelopes", counts)
	}
}
