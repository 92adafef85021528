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
	if d := r.ctl.Detections; len(d) != 1 || d[0].JobID != j.ID || d[0].Kind != app.MisconfigThreads {
		t.Fatalf("Detections = %+v, want job %d as %v", d, j.ID, app.MisconfigThreads)
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
	if d := r.ctl.Detections; len(d) != 1 || d[0].JobID != j.ID || d[0].Kind != app.MisconfigWrongLib {
		t.Fatalf("Detections = %+v, want job %d as %v", d, j.ID, app.MisconfigWrongLib)
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
	if d := r.ctl.Detections; len(d) != 1 || d[0].JobID != j.ID || d[0].Kind != app.MisconfigUnderutil {
		t.Fatalf("Detections = %+v, want job %d as %v", d, j.ID, app.MisconfigUnderutil)
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
	r.launch(t, "clean", app.MisconfigNone, 2)
	r.ctl.Loop().RunEvery(sim.VirtualClock{Engine: r.e}, time.Minute, nil)
	r.e.RunUntil(time.Hour)
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

// TestObserveAnalyzeAllocs gates a tick's Monitor and Analyze at zero
// allocations once the controller's buffers are warm: two running jobs past
// warm-up, each with progress markers on two or more nodes. The reads match
// on each instance's own label set, the reading's job list, utilizations
// and running-job list reuse its buffers, and the streaks are updated in
// place.
func TestObserveAnalyzeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	r := newRig(t, true)
	jobs := []*sched.Job{
		r.launch(t, "clean-a", app.MisconfigNone, 2),
		r.launch(t, "clean-b", app.MisconfigNone, 3),
	}
	r.e.RunUntil(10 * time.Minute)
	now := r.e.Now()
	for _, j := range jobs {
		if j.State != sched.JobRunning || now-j.Start < r.ctl.cfg.WarmupAfterStart {
			t.Fatalf("job %d: state %v, started %v; want running past warm-up", j.ID, j.State, j.Start)
		}
	}
	tick := func() {
		obs, _ := r.ctl.observe(now)
		if _, err := r.ctl.analyze(now, obs); err != nil {
			t.Fatal(err)
		}
	}
	tick()
	if _, err := r.ctl.observe(now); err != nil {
		t.Fatal(err)
	}
	// One context-switch rate per job, one utilization per node.
	rd := r.ctl.observed
	ctx := 0
	for _, jr := range rd.jobs {
		if jr.hasCtx {
			ctx++
		}
	}
	if len(rd.jobs) != 2 || ctx != 2 || len(rd.utils) != 2+3 {
		t.Fatalf("observed %d jobs, %d context-switch rates and %d utilizations; want 2, 2 and 5: %+v",
			len(rd.jobs), ctx, len(rd.utils), rd.jobs)
	}
	if allocs := testing.AllocsPerRun(100, tick); allocs != 0 {
		t.Errorf("observe+analyze allocates %.1f times per tick, want 0", allocs)
	}
}

// TestJobWithoutInstance pins the observation of a running job the
// application runtime has no instance for (its scheduler does not start jobs
// through the runtime): it has no handles, so no application read is made
// for it, and its allocation's utilization is still observed under its job
// id, for analyze to classify.
func TestJobWithoutInstance(t *testing.T) {
	r := newRig(t, true)
	orphans := sched.New(r.e, r.cl.UpNodes(), sched.DefaultExtensionPolicy())
	ctl := New(DefaultConfig(), r.db, orphans, r.rt, r.cl)
	j, err := orphans.Submit("orphan", "u", 2, 6*time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.e.RunUntil(10 * time.Minute)
	if j.State != sched.JobRunning {
		t.Fatalf("orphan job state %v, want running", j.State)
	}
	if _, ok := r.rt.Instance(j.ID); ok {
		t.Fatal("orphan job has an instance")
	}
	now := r.e.Now()
	obs, err := ctl.observe(now)
	if err != nil {
		t.Fatal(err)
	}
	rd := ctl.observed
	if len(rd.jobs) != 1 || len(rd.utils) != 2 {
		t.Fatalf("observed %+v with %d utilizations; want one job with 2", rd.jobs, len(rd.utils))
	}
	if jr := rd.jobs[0]; jr.id != j.ID || jr.to-jr.from != 2 || jr.hasCtx || jr.libWarn {
		t.Errorf("observed %+v; want job %d with 2 utilizations and no application telemetry", jr, j.ID)
	}
	if _, err := ctl.analyze(now, obs); err != nil {
		t.Fatal(err)
	}
	if _, ok := ctl.streaks[j.ID]; !ok {
		t.Errorf("analyze did not classify job %d", j.ID)
	}
}

// TestStateBoundedByRunningSet runs many short jobs, a third of them
// misconfigured, through a small cluster and checks after every tick that
// the controller keeps state only for jobs the scheduler has not ended (or
// that ended at or after the tick), so a long-running daemon's per-job maps stay
// bounded by the running set. Jobs that finished are still among the
// Detections.
func TestStateBoundedByRunningSet(t *testing.T) {
	r := newRig(t, false)
	r.rt.RegisterSpec("short", app.Spec{Name: "short", TotalIters: 12, IterTime: sim.Constant{V: 30 * time.Second}})
	r.rt.RegisterSpec("short-bad", app.Spec{Name: "short-bad", TotalIters: 12, IterTime: sim.Constant{V: 30 * time.Second}, Misconfig: app.MisconfigThreads})
	var bad []*sched.Job
	for i := range 60 {
		name := "short"
		if i%3 == 0 {
			name = "short-bad"
		}
		j, err := r.s.Submit(name, "u", 1+i%2, time.Hour, 0)
		if err != nil {
			t.Fatal(err)
		}
		if name == "short-bad" {
			bad = append(bad, j)
		}
	}
	r.ctl.Loop().RunEvery(sim.VirtualClock{Engine: r.e}, time.Minute, nil)
	most := 0
	for tick := time.Minute; tick <= 3*time.Hour; tick += time.Minute {
		r.e.RunUntil(tick + time.Second)
		for id := range r.ctl.streaks {
			if j, _ := r.s.Job(id); j.State.Terminal() && j.End < tick {
				t.Fatalf("at %v: streak kept for job %d, %v at %v", tick, id, j.State, j.End)
			}
		}
		for id := range r.ctl.flagged {
			if j, _ := r.s.Job(id); j.State.Terminal() && j.End < tick {
				t.Fatalf("at %v: flag kept for job %d, %v at %v", tick, id, j.State, j.End)
			}
			if _, ok := r.ctl.streaks[id]; ok {
				t.Fatalf("at %v: flagged job %d still has a streak", tick, id)
			}
		}
		most = max(most, len(r.ctl.streaks)+len(r.ctl.flagged))
	}
	if st := r.s.Stats(); st.Completed != 60 {
		t.Fatalf("%d of 60 jobs completed", st.Completed)
	}
	if len(r.ctl.streaks)+len(r.ctl.flagged) != 0 || most == 0 || most > len(r.cl.Nodes()) {
		t.Errorf("the controller ends with %d streaks and %d flags and peaked at %d entries; want none, and a peak within the %d nodes",
			len(r.ctl.streaks), len(r.ctl.flagged), most, len(r.cl.Nodes()))
	}
	flagged := map[int]app.Misconfig{}
	for _, d := range r.ctl.Detections {
		flagged[d.JobID] = d.Kind
	}
	for _, j := range bad {
		if kind, ok := flagged[j.ID]; !ok || kind != app.MisconfigThreads {
			t.Errorf("finished job %d: detected %v, %v", j.ID, kind, ok)
		}
	}
	if len(r.ctl.Detections) != len(bad) {
		t.Errorf("Detections = %d, want %d", len(r.ctl.Detections), len(bad))
	}
}

// TestRequeuedFlaggedJobKeepsItsFlag checks that a job missing from rounds
// because it was requeued keeps its flag: when it runs again under the same
// ID, unfixed, it is not detected a second time. A whole-cluster job queued
// before the requeue takes the nodes it frees, so it waits pending for
// several ticks.
func TestRequeuedFlaggedJobKeepsItsFlag(t *testing.T) {
	r := newRig(t, false)
	j := r.launch(t, "bad-threads", app.MisconfigThreads, 1)
	r.ctl.Loop().RunEvery(sim.VirtualClock{Engine: r.e}, time.Minute, nil)
	r.e.RunUntil(29 * time.Minute)
	r.rt.RegisterSpec("wide", app.Spec{Name: "wide", TotalIters: 10, IterTime: sim.Constant{V: 30 * time.Second}})
	if _, err := r.s.Submit("wide", "u", len(r.cl.Nodes()), time.Hour, 0); err != nil {
		t.Fatal(err)
	}
	r.e.RunUntil(30 * time.Minute)
	if len(r.ctl.Detections) != 1 {
		t.Fatalf("Detections = %d before the requeue, want 1", len(r.ctl.Detections))
	}
	if err := r.s.Requeue(j.ID); err != nil {
		t.Fatal(err)
	}
	r.e.RunUntil(33 * time.Minute)
	if j.State != sched.JobPending {
		t.Fatalf("requeued job is %v three ticks later, want pending", j.State)
	}
	r.e.RunUntil(time.Hour)
	if j.State != sched.JobRunning || j.Requeues != 1 {
		t.Fatalf("job %v after %d requeues; want running again after 1", j.State, j.Requeues)
	}
	if len(r.ctl.Detections) != 1 {
		t.Errorf("Detections = %d after the requeued job ran again, want 1", len(r.ctl.Detections))
	}
}
