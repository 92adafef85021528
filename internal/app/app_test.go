package app

import (
	"fmt"
	"testing"
	"time"

	"autoloop/internal/hw"
	"autoloop/internal/pfs"
	"autoloop/internal/sched"
	"autoloop/internal/sim"
	"autoloop/internal/telemetry"
	"autoloop/internal/tsdb"
)

// rig assembles engine + db + fs + cluster + scheduler + runtime.
type rig struct {
	e  *sim.Engine
	db *tsdb.DB
	fs *pfs.FS
	cl *hw.Cluster
	s  *sched.Scheduler
	rt *Runtime
}

func newRig(t *testing.T) *rig {
	t.Helper()
	e := sim.NewEngine(1)
	db := tsdb.New(0)
	fs := pfs.New(e, pfs.Config{OSTs: 4, OSTBandwidthMBps: 100, DefaultStripeCount: 2})
	ccfg := hw.DefaultConfig()
	ccfg.Nodes = 4
	ccfg.SensorNoise = 0
	cl := hw.New(e, ccfg)
	s := sched.New(e, cl.UpNodes(), sched.DefaultExtensionPolicy())
	rt := NewRuntime(e, db, fs, cl)
	rt.Serve(s)
	return &rig{e: e, db: db, fs: fs, cl: cl, s: s, rt: rt}
}

func (r *rig) launch(t *testing.T, spec Spec, nodes int, wall time.Duration) *sched.Job {
	t.Helper()
	r.rt.RegisterSpec(spec.Name, spec)
	j, err := r.s.Submit(spec.Name, "alice", nodes, wall, 0)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func basicSpec(name string, iters int, iterTime time.Duration) Spec {
	return Spec{Name: name, TotalIters: iters, IterTime: sim.Constant{V: iterTime}}
}

func TestRunToCompletion(t *testing.T) {
	r := newRig(t)
	j := r.launch(t, basicSpec("sim", 10, time.Minute), 1, time.Hour)
	r.e.Run()
	if j.State != sched.JobCompleted {
		t.Fatalf("state = %v", j.State)
	}
	if j.End != 10*time.Minute {
		t.Errorf("completed at %v, want 10m", j.End)
	}
	inst, _ := r.rt.Instance(j.ID)
	if inst.Iter() != 10 {
		t.Errorf("iters = %d", inst.Iter())
	}
}

func TestProgressMarkersEmitted(t *testing.T) {
	r := newRig(t)
	spec := basicSpec("sim", 10, time.Minute)
	spec.MarkerEvery = 2
	j := r.launch(t, spec, 1, time.Hour)
	r.e.Run()
	label := telemetry.Labels{"job": fmt.Sprintf("%d", j.ID)}
	ss := r.db.Query("app.progress", label, 0, time.Hour)
	if len(ss) != 1 {
		t.Fatalf("got %d progress series", len(ss))
	}
	// markers at start (0) + every 2 iterations = 6 samples.
	markers := ss[0].Samples
	if got := len(markers); got != 6 {
		t.Errorf("got %d markers, want 6", got)
	}
	if n := len(markers); n == 0 || markers[n-1].Value != 10 {
		t.Errorf("final marker of %v, want 10", markers)
	}
	total, ok := r.db.LatestValue(&telemetry.Handle{Name: "app.progress_total", Matcher: label})
	if !ok || total != 10 {
		t.Errorf("progress_total = %v, %v", total, ok)
	}
}

func TestWalltimeKillStopsExecution(t *testing.T) {
	r := newRig(t)
	j := r.launch(t, basicSpec("sim", 1000, time.Minute), 1, 30*time.Minute)
	r.e.RunUntil(2 * time.Hour)
	if j.State != sched.JobKilledWalltime {
		t.Fatalf("state = %v", j.State)
	}
	inst, _ := r.rt.Instance(j.ID)
	if inst.running {
		t.Error("instance still running after kill")
	}
	iterAtKill := inst.Iter()
	r.e.Run()
	if inst.Iter() != iterAtKill {
		t.Error("iterations advanced after kill")
	}
}

func TestIOPhases(t *testing.T) {
	r := newRig(t)
	spec := basicSpec("io", 10, time.Minute)
	spec.IOEvery = 5
	spec.IOSizeMB = 200
	spec.StripeCount = 2
	j := r.launch(t, spec, 1, 2*time.Hour)
	r.e.Run()
	if j.State != sched.JobCompleted {
		t.Fatalf("state = %v", j.State)
	}
	// One I/O phase at iteration 5 (not at 10, the final iteration).
	ss := r.db.Query("app.io.lat_ms", nil, 0, 3*time.Hour)
	if len(ss) != 1 || len(ss[0].Samples) != 1 {
		t.Fatalf("io.lat_ms series = %+v", ss)
	}
	// 200MB over 2 stripes at 100MB/s = 1s per stripe chunk.
	if got := ss[0].Samples[0].Value; got != 1000 {
		t.Errorf("io latency = %vms, want 1000", got)
	}
	// Completion is delayed by the I/O second.
	if j.End != 10*time.Minute+time.Second {
		t.Errorf("end = %v, want 10m1s", j.End)
	}
}

func TestCheckpointAtBoundaryAndResume(t *testing.T) {
	r := newRig(t)
	spec := basicSpec("ck", 100, time.Minute)
	spec.CheckpointCost = 2 * time.Minute
	j := r.launch(t, spec, 1, 24*time.Hour)
	inst, _ := r.rt.Instance(j.ID)

	done := false
	r.e.RunUntil(10*time.Minute + 30*time.Second) // mid-iteration 11
	if err := inst.RequestCheckpoint(func() { done = true }); err != nil {
		t.Fatal(err)
	}
	r.e.RunUntil(13 * time.Minute) // iteration 11 ends at 11m, ckpt at 13m
	if !done {
		t.Fatal("checkpoint callback not fired")
	}
	if inst.CheckpointIter() != 11 {
		t.Errorf("ckpt iter = %d, want 11", inst.CheckpointIter())
	}
	// Requeue: job restarts from checkpoint, not from zero.
	if err := r.s.Requeue(j.ID); err != nil {
		t.Fatal(err)
	}
	inst2, _ := r.rt.Instance(j.ID)
	if inst2.Iter() != 11 {
		t.Errorf("restarted at iter %d, want 11", inst2.Iter())
	}
	r.e.Run()
	if j.State != sched.JobCompleted {
		t.Errorf("state = %v", j.State)
	}
}

func TestAsyncCheckpointOverlapsCompute(t *testing.T) {
	r := newRig(t)
	spec := basicSpec("ck", 10, time.Minute)
	spec.CheckpointCost = 5 * time.Minute
	spec.AsyncCheckpoint = true
	j := r.launch(t, spec, 1, time.Hour)
	inst, _ := r.rt.Instance(j.ID)
	_ = inst.RequestCheckpoint(nil)
	r.e.Run()
	// Synchronous would finish at 15m; async at 10m.
	if j.End != 10*time.Minute {
		t.Errorf("end = %v, want 10m with async checkpoint", j.End)
	}
	if inst.CheckpointIter() != 1 {
		t.Errorf("ckpt iter = %d, want 1", inst.CheckpointIter())
	}
}

func TestLostIters(t *testing.T) {
	r := newRig(t)
	spec := basicSpec("ck", 100, time.Minute)
	j := r.launch(t, spec, 1, 50*time.Minute)
	inst, _ := r.rt.Instance(j.ID)
	r.e.RunUntil(20 * time.Minute)
	_ = inst.RequestCheckpoint(nil)
	r.e.RunUntil(25 * time.Minute)
	r.e.RunUntil(2 * time.Hour) // killed at 50m with ~50 iters done, 21 checkpointed
	if j.State != sched.JobKilledWalltime {
		t.Fatalf("state = %v", j.State)
	}
	// The iterations after the checkpoint are the work the kill lost.
	if inst.CheckpointIter() != 21 || inst.Iter() <= 21 {
		t.Errorf("iter=%d ckpt=%d, want work lost beyond checkpoint 21", inst.Iter(), inst.CheckpointIter())
	}
}

func TestMisconfigThreadsSlowdownAndSignal(t *testing.T) {
	r := newRig(t)
	clean := basicSpec("clean", 10, time.Minute)
	bad := basicSpec("bad", 10, time.Minute)
	bad.Misconfig = MisconfigThreads
	jc := r.launch(t, clean, 1, 2*time.Hour)
	jb := r.launch(t, bad, 1, 2*time.Hour)
	r.e.Run()
	cleanDur := jc.End - jc.Start
	badDur := jb.End - jb.Start
	ratio := float64(badDur) / float64(cleanDur)
	if ratio < 1.55 || ratio > 1.65 {
		t.Errorf("threads slowdown ratio = %.2f, want ~1.6", ratio)
	}
	ctx, ok := r.db.LatestValue(&telemetry.Handle{Name: "app.ctx_switch_rate", Matcher: telemetry.Labels{"app": "bad"}})
	if !ok || ctx < 40000 {
		t.Errorf("ctx_switch_rate = %v, want pathological (>40k)", ctx)
	}
	ctxClean, _ := r.db.LatestValue(&telemetry.Handle{Name: "app.ctx_switch_rate", Matcher: telemetry.Labels{"app": "clean"}})
	if ctxClean > 5000 {
		t.Errorf("clean ctx rate = %v, want nominal", ctxClean)
	}
}

func TestMisconfigWrongLibSignal(t *testing.T) {
	r := newRig(t)
	bad := basicSpec("bad", 5, time.Minute)
	bad.Misconfig = MisconfigWrongLib
	r.launch(t, bad, 1, time.Hour)
	r.e.Run()
	if _, ok := r.db.LatestValue(&telemetry.Handle{Name: "app.lib_warn", Matcher: telemetry.Labels{"app": "bad"}}); !ok {
		t.Error("lib_warn missing")
	}
}

func TestMisconfigUnderutilIdlesHalfAllocation(t *testing.T) {
	r := newRig(t)
	bad := basicSpec("bad", 100, time.Minute)
	bad.Misconfig = MisconfigUnderutil
	j := r.launch(t, bad, 4, 3*time.Hour)
	r.e.RunUntil(5 * time.Minute)
	low, high := 0, 0
	for _, n := range j.AssignedNodes {
		if r.cl.Util(n) < 0.05 {
			low++
		} else {
			high++
		}
	}
	if low != 2 || high != 2 {
		t.Errorf("underutil split = %d low / %d high, want 2/2", low, high)
	}
}

func TestFixMisconfigRestoresSpeed(t *testing.T) {
	r := newRig(t)
	bad := basicSpec("bad", 20, time.Minute)
	bad.Misconfig = MisconfigThreads
	j := r.launch(t, bad, 1, 3*time.Hour)
	inst, _ := r.rt.Instance(j.ID)
	r.e.RunUntil(time.Minute)
	if err := inst.FixMisconfig(); err != nil {
		t.Fatal(err)
	}
	if !inst.Fixed() {
		t.Error("Fixed() should be true")
	}
	r.e.Run()
	// First iteration at 1.6x (96s), remaining 19 at 60s each.
	want := 96*time.Second + 19*time.Minute
	if got := j.End - j.Start; got != want {
		t.Errorf("duration = %v, want %v", got, want)
	}
}

func TestFixMisconfigErrors(t *testing.T) {
	r := newRig(t)
	under := basicSpec("u", 10, time.Minute)
	under.Misconfig = MisconfigUnderutil
	ju := r.launch(t, under, 2, time.Hour)
	iu, _ := r.rt.Instance(ju.ID)
	if err := iu.FixMisconfig(); err == nil {
		t.Error("underutil fix should error")
	}
	clean := basicSpec("c", 10, time.Minute)
	jc := r.launch(t, clean, 1, time.Hour)
	ic, _ := r.rt.Instance(jc.ID)
	if err := ic.FixMisconfig(); err == nil {
		t.Error("fixing a clean app should error")
	}
}

func TestReopenAvoiding(t *testing.T) {
	r := newRig(t)
	spec := basicSpec("io", 50, time.Minute)
	spec.IOEvery = 5
	spec.IOSizeMB = 10
	spec.StripeCount = 2
	j := r.launch(t, spec, 1, 3*time.Hour)
	inst, _ := r.rt.Instance(j.ID)
	r.e.RunUntil(time.Minute)
	if err := inst.ReopenAvoiding(0, 1); err != nil {
		t.Fatal(err)
	}
	if f := inst.File(); f.StripesOver(0) || f.StripesOver(1) {
		t.Error("layout includes an avoided OST")
	}
}

func TestNodeUtilDrivenDuringRun(t *testing.T) {
	r := newRig(t)
	j := r.launch(t, basicSpec("sim", 100, time.Minute), 2, 3*time.Hour)
	r.e.RunUntil(time.Minute)
	for _, n := range j.AssignedNodes {
		if got := r.cl.Util(n); got != 0.9 {
			t.Errorf("util(%s) = %v, want 0.9", n, got)
		}
	}
	r.e.RunUntil(2 * time.Hour)
	r.e.Run()
	for _, n := range []string{"n000", "n001"} {
		if got := r.cl.Util(n); got != 0 {
			t.Errorf("util(%s) = %v after completion, want 0", n, got)
		}
	}
}

func TestUnregisteredSpecPanics(t *testing.T) {
	r := newRig(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unregistered spec")
		}
	}()
	_, _ = r.s.Submit("ghost", "u", 1, time.Hour, 0)
}

func TestDriftSlowsIterations(t *testing.T) {
	r := newRig(t)
	spec := basicSpec("drift", 100, time.Second)
	spec.DriftPerIter = 0.01 // 1% per iteration
	j := r.launch(t, spec, 1, time.Hour)
	r.e.Run()
	// Sum of 1*(1+0.01*i) for i=0..99 = 100 + 0.01*4950 = 149.5s
	want := 149500 * time.Millisecond
	if got := j.End - j.Start; got < want-time.Millisecond || got > want+time.Millisecond {
		t.Errorf("duration = %v, want ~%v", got, want)
	}
}

func TestPhaseShift(t *testing.T) {
	r := newRig(t)
	spec := basicSpec("phase", 10, time.Second)
	spec.PhaseAt = 5
	spec.PhaseFactor = 2
	j := r.launch(t, spec, 1, time.Hour)
	r.e.Run()
	// 5 iterations at 1s + 5 at 2s = 15s
	if got := j.End - j.Start; got != 15*time.Second {
		t.Errorf("duration = %v, want 15s", got)
	}
}

func TestMisconfigString(t *testing.T) {
	for m, want := range map[Misconfig]string{
		MisconfigNone: "none", MisconfigThreads: "threads",
		MisconfigUnderutil: "underutil", MisconfigWrongLib: "wronglib", Misconfig(9): "unknown",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %s", m, m.String())
		}
	}
}
