package misconfcase

import (
	"strings"
	"testing"
	"time"

	"autoloop/internal/app"
	"autoloop/internal/bus"
	"autoloop/internal/core"
	"autoloop/internal/hw"
	"autoloop/internal/sched"
	"autoloop/internal/sim"
	"autoloop/internal/tsdb"
)

type rig struct {
	e   *sim.Engine
	db  *tsdb.DB
	cl  *hw.Cluster
	s   *sched.Scheduler
	rt  *app.Runtime
	ctl *Controller
}

func newRig(t *testing.T, fix bool) *rig {
	t.Helper()
	e := sim.NewEngine(1)
	db := tsdb.New(0)
	ccfg := hw.DefaultConfig()
	ccfg.Nodes = 8
	ccfg.SensorNoise = 0
	cl := hw.New(e, ccfg)
	s := sched.New(e, cl.UpNodes(), sched.DefaultExtensionPolicy())
	rt := app.NewRuntime(e, db, nil, cl)
	rt.Serve(s)
	cfg := DefaultConfig()
	cfg.FixOnTheFly = fix
	return &rig{e: e, db: db, cl: cl, s: s, rt: rt, ctl: New(cfg, db, s, rt, cl)}
}

func (r *rig) launch(t *testing.T, name string, m app.Misconfig, nodes int) *sched.Job {
	t.Helper()
	r.rt.RegisterSpec(name, app.Spec{
		Name: name, TotalIters: 240, IterTime: sim.Constant{V: 30 * time.Second},
		Misconfig: m,
	})
	j, err := r.s.Submit(name, "u", nodes, 6*time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestDetectsThreadsAndFixes(t *testing.T) {
	r := newRig(t, true)
	j := r.launch(t, "bad-threads", app.MisconfigThreads, 1)
	r.ctl.Loop().RunEvery(sim.VirtualClock{Engine: r.e}, time.Minute, nil)
	r.e.RunUntil(30 * time.Minute)
	kind, ok := r.ctl.Flagged(j.ID)
	if !ok || kind != app.MisconfigThreads {
		t.Fatalf("Flagged = %v, %v", kind, ok)
	}
	if r.ctl.Fixes != 1 {
		t.Errorf("Fixes = %d", r.ctl.Fixes)
	}
	inst, _ := r.rt.Instance(j.ID)
	if !inst.Fixed() {
		t.Error("instance not actually fixed")
	}
	if len(r.ctl.Detections) != 1 {
		t.Errorf("Detections = %d", len(r.ctl.Detections))
	}
}

func TestDetectsWrongLib(t *testing.T) {
	r := newRig(t, true)
	j := r.launch(t, "bad-lib", app.MisconfigWrongLib, 1)
	r.ctl.Loop().RunEvery(sim.VirtualClock{Engine: r.e}, time.Minute, nil)
	r.e.RunUntil(30 * time.Minute)
	kind, ok := r.ctl.Flagged(j.ID)
	if !ok || kind != app.MisconfigWrongLib {
		t.Fatalf("Flagged = %v, %v", kind, ok)
	}
	if r.ctl.Fixes != 1 {
		t.Errorf("Fixes = %d", r.ctl.Fixes)
	}
}

func TestDetectsUnderutilAndNotifies(t *testing.T) {
	r := newRig(t, true)
	j := r.launch(t, "bad-alloc", app.MisconfigUnderutil, 4)
	r.ctl.Loop().RunEvery(sim.VirtualClock{Engine: r.e}, time.Minute, nil)
	r.e.RunUntil(30 * time.Minute)
	kind, ok := r.ctl.Flagged(j.ID)
	if !ok || kind != app.MisconfigUnderutil {
		t.Fatalf("Flagged = %v, %v", kind, ok)
	}
	// Underutilization cannot be fixed: even with FixOnTheFly, notify.
	if r.ctl.Fixes != 0 {
		t.Errorf("Fixes = %d, want 0", r.ctl.Fixes)
	}
	if r.ctl.Notifications != 1 {
		t.Errorf("Notifications = %d", r.ctl.Notifications)
	}
}

func TestCleanJobNotFlagged(t *testing.T) {
	r := newRig(t, true)
	j := r.launch(t, "clean", app.MisconfigNone, 2)
	r.ctl.Loop().RunEvery(sim.VirtualClock{Engine: r.e}, time.Minute, nil)
	r.e.RunUntil(time.Hour)
	if _, ok := r.ctl.Flagged(j.ID); ok {
		t.Error("false positive on clean job")
	}
	if len(r.ctl.Detections) != 0 {
		t.Errorf("Detections = %d", len(r.ctl.Detections))
	}
}

func TestNotifyOnlyPolicy(t *testing.T) {
	r := newRig(t, false)
	j := r.launch(t, "bad-threads", app.MisconfigThreads, 1)
	r.ctl.Loop().RunEvery(sim.VirtualClock{Engine: r.e}, time.Minute, nil)
	r.e.RunUntil(30 * time.Minute)
	if r.ctl.Fixes != 0 {
		t.Errorf("Fixes = %d under notify-only", r.ctl.Fixes)
	}
	if r.ctl.Notifications != 1 {
		t.Errorf("Notifications = %d", r.ctl.Notifications)
	}
	inst, _ := r.rt.Instance(j.ID)
	if inst.Fixed() {
		t.Error("notify-only must not change the job")
	}
}

func TestWarmupSuppressesEarlyDetection(t *testing.T) {
	r := newRig(t, true)
	r.launch(t, "bad-threads", app.MisconfigThreads, 1)
	loop := r.ctl.Loop()
	loop.RunEvery(sim.VirtualClock{Engine: r.e}, 30*time.Second, nil)
	r.e.RunUntil(90 * time.Second) // inside the 2-minute warmup
	if len(r.ctl.Detections) != 0 {
		t.Error("detected during warmup")
	}
}

func TestFixedJobRunsFasterThanUnfixed(t *testing.T) {
	run := func(fix bool) time.Duration {
		r := newRig(t, fix)
		j := r.launch(t, "bad-threads", app.MisconfigThreads, 1)
		r.ctl.Loop().RunEvery(sim.VirtualClock{Engine: r.e}, time.Minute, nil)
		r.e.RunUntil(6 * time.Hour)
		if j.State != sched.JobCompleted {
			t.Fatalf("state = %v (fix=%v)", j.State, fix)
		}
		return j.End - j.Start
	}
	fixed := run(true)
	unfixed := run(false)
	if fixed >= unfixed {
		t.Errorf("fixed runtime %v should beat unfixed %v", fixed, unfixed)
	}
}

func TestExecuteErrors(t *testing.T) {
	r := newRig(t, true)
	if _, err := r.ctl.execute(0, core.Action{Kind: "bogus", Subject: "1"}); err == nil {
		t.Error("unknown action should error")
	}
	if _, err := r.ctl.execute(0, core.Action{Kind: "fix-misconfig", Subject: "zz"}); err == nil {
		t.Error("bad subject should error")
	}
}

// TestLoopEventsOnBus checks the misconfiguration loop publishes its
// detect-and-fix lifecycle on an attached bus.
func TestLoopEventsOnBus(t *testing.T) {
	r := newRig(t, true)
	r.launch(t, "bad-threads", app.MisconfigThreads, 1)
	b := bus.New()
	counts := map[string]int{}
	b.Subscribe("loop.*", func(e bus.Envelope) {
		counts[e.Topic[strings.LastIndexByte(e.Topic, '.')+1:]]++
	})
	loop := r.ctl.Loop()
	loop.Bus = b
	loop.RunEvery(sim.VirtualClock{Engine: r.e}, time.Minute, nil)
	r.e.RunUntil(30 * time.Minute)
	if counts["finding"] == 0 || counts["plan"] == 0 || counts["execute"] == 0 {
		t.Errorf("loop events = %v; want finding, plan, and execute envelopes", counts)
	}
}
