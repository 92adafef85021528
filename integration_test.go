// Integration tests: several autonomy loops running concurrently on one
// simulated system — the composition the paper's vision requires. The
// individual per-case tests live with their packages; here we verify that
// the loops do not fight each other and that the shared substrate (one
// engine, one TSDB, one scheduler, one filesystem) serves all of them.
package autoloop_test

import (
	"fmt"
	"testing"
	"time"

	"autoloop/internal/app"
	"autoloop/internal/cases"
	"autoloop/internal/cases/maintcase"
	"autoloop/internal/cases/misconfcase"
	"autoloop/internal/cases/ostcase"
	"autoloop/internal/cases/powercase"
	"autoloop/internal/cases/schedcase"
	"autoloop/internal/control"
	"autoloop/internal/facility"
	"autoloop/internal/hw"
	"autoloop/internal/knowledge"
	"autoloop/internal/pfs"
	"autoloop/internal/scenario"
	"autoloop/internal/sched"
	"autoloop/internal/sim"
	"autoloop/internal/tsdb"
)

// world assembles the full substrate shared by every loop.
type world struct {
	engine    *sim.Engine
	db        *tsdb.DB
	cl        *hw.Cluster
	plant     *facility.Plant
	fs        *pfs.FS
	scheduler *sched.Scheduler
	runtime   *app.Runtime
	kb        *knowledge.Base
}

// newWorld assembles the daemon preset's facility bare — no background
// workload, no fleet — through the one full-stack assembler; each test
// attaches its own loops and jobs.
func newWorld(t *testing.T, seed int64) *world {
	t.Helper()
	doc := scenario.Daemon(seed)
	doc.Horizon = control.Duration(24 * time.Hour)
	doc.Workload, doc.Loops = nil, nil
	rt, err := scenario.Assemble(doc, cases.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	return &world{
		engine: rt.Engine, db: rt.DB, cl: rt.Cluster, plant: rt.Plant, fs: rt.FS,
		scheduler: rt.Scheduler, runtime: rt.Apps, kb: rt.Knowledge,
	}
}

// TestFourLoopsCoexist runs the Scheduler, OST, Misconfiguration, and Power
// loops simultaneously against one system carrying a mixed workload with an
// underestimated job, a degraded OST, and a misconfigured job — every loop
// must respond to its own symptom without breaking the others.
func TestFourLoopsCoexist(t *testing.T) {
	w := newWorld(t, 3)
	horizon := 8 * time.Hour
	stop := func() bool { return w.engine.Now() >= horizon }
	clock := sim.VirtualClock{Engine: w.engine}

	schedCtl := schedcase.New(schedcase.DefaultConfig(), w.db, w.scheduler, w.runtime, w.kb, clock)
	schedLoop := schedCtl.Loop()
	schedLoop.RunEvery(clock, 5*time.Minute, stop)

	ostCtl := ostcase.New(ostcase.DefaultConfig(), w.db, w.scheduler, w.runtime)
	ostCtl.Loop().RunEvery(clock, time.Minute, stop)

	misCtl := misconfcase.New(misconfcase.DefaultConfig(), w.db, w.scheduler, w.runtime, w.cl)
	misCtl.Loop().RunEvery(clock, time.Minute, stop)

	powCtl := powercase.New(powercase.DefaultConfig(), w.db, w.plant)
	powCtl.Loop().RunEvery(clock, 10*time.Minute, stop)

	// Workload: an underestimated job (Scheduler loop's problem), an
	// I/O-heavy writer (OST loop's problem once an OST degrades), a
	// misconfigured job (Misconfiguration loop's problem), and background
	// compute load (the Power loop optimizes around it).
	w.runtime.RegisterSpec("under", app.Spec{
		Name: "under", TotalIters: 120, IterTime: sim.Constant{V: time.Minute},
	})
	underJob, err := w.scheduler.Submit("under", "alice", 2, time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.runtime.RegisterSpec("writer", app.Spec{
		Name: "writer", TotalIters: 400, IterTime: sim.Constant{V: 20 * time.Second},
		IOEvery: 3, IOSizeMB: 600, StripeCount: 8,
	})
	writerJob, err := w.scheduler.Submit("writer", "bob", 2, 12*time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.runtime.RegisterSpec("storm", app.Spec{
		Name: "storm", TotalIters: 300, IterTime: sim.Constant{V: time.Minute},
		Misconfig: app.MisconfigThreads,
	})
	stormJob, err := w.scheduler.Submit("storm", "carol", 1, 12*time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("bg%d", i)
		w.runtime.RegisterSpec(name, app.Spec{
			Name: name, TotalIters: 600, IterTime: sim.LogNormal{MeanV: time.Minute, CV: 0.1},
		})
		if _, err := w.scheduler.Submit(name, "ops", 2, 12*time.Hour, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Degrade an OST one hour in.
	w.engine.At(time.Hour, func() { _ = w.fs.SetOSTHealth(2, 0.05) })

	// Resolve terminal jobs for the scheduler loop's Assess step.
	handled := map[int]bool{}
	w.engine.Every(time.Minute, time.Minute, func() bool {
		for _, j := range w.scheduler.Jobs() {
			if !handled[j.ID] && (j.State == sched.JobCompleted || j.State == sched.JobKilledWalltime) {
				handled[j.ID] = true
				schedCtl.NoteJobEnd(j)
			}
		}
		return w.engine.Now() < horizon
	})

	w.engine.RunUntil(horizon)

	// 1. The underestimated job must complete via extension.
	if underJob.State != sched.JobCompleted {
		t.Errorf("underestimated job state = %v, want completed", underJob.State)
	}
	if underJob.Extensions == 0 {
		t.Error("underestimated job completed without extension?")
	}
	// 2. The writer must have been steered off the degraded OST.
	if ostCtl.Responses == 0 {
		t.Error("OST loop never responded to the degraded OST")
	}
	if inst, ok := w.runtime.Instance(writerJob.ID); ok && inst.File() != nil && inst.File().StripesOver(2) {
		t.Error("writer still striped over degraded OST 2")
	}
	// 3. The misconfigured job must be detected and fixed.
	stormFlagged := false
	for _, d := range misCtl.Detections {
		stormFlagged = stormFlagged || d.JobID == stormJob.ID && d.Kind == app.MisconfigThreads
	}
	if !stormFlagged {
		t.Errorf("misconfig detections = %+v, want job %d as %v", misCtl.Detections, stormJob.ID, app.MisconfigThreads)
	}
	if misCtl.Fixes == 0 {
		t.Error("misconfiguration never fixed")
	}
	// 4. The power loop must have acted without breaching the limit.
	if powCtl.Raises == 0 {
		t.Error("power loop never optimized")
	}
	for _, p := range w.db.Latest("node.temp.celsius", nil) {
		if p.Value > powercase.DefaultConfig().TempLimitC {
			t.Errorf("node %s at %.1f°C exceeds limit", p.Labels["node"], p.Value)
		}
	}
	// 5. No loop starved another: the scheduler loop executed, and the
	// shared TSDB served every loop.
	if schedLoop.Metrics().ExecutedActions == 0 {
		t.Error("scheduler loop executed nothing")
	}
	if w.db.NumSeries() < 50 {
		t.Errorf("suspiciously few series: %d", w.db.NumSeries())
	}
}

// TestMaintenanceAndSchedulerLoopsCompose runs the Maintenance loop next to
// the Scheduler loop: a job that is both underestimated AND headed into a
// maintenance window must survive both hazards.
func TestMaintenanceAndSchedulerLoopsCompose(t *testing.T) {
	w := newWorld(t, 5)
	horizon := 16 * time.Hour
	stop := func() bool { return w.engine.Now() >= horizon }
	clock := sim.VirtualClock{Engine: w.engine}

	schedCtl := schedcase.New(schedcase.DefaultConfig(), w.db, w.scheduler, w.runtime, w.kb, clock)
	schedCtl.Loop().RunEvery(clock, 5*time.Minute, stop)
	maintCtl := maintcase.New(maintcase.DefaultConfig(), w.db, w.scheduler, w.runtime)
	maintCtl.Loop().RunEvery(clock, 5*time.Minute, stop)

	// 5h of real work, 3h requested, maintenance announced at t=1h for 4..6h.
	w.runtime.RegisterSpec("both", app.Spec{
		Name: "both", TotalIters: 300, IterTime: sim.Constant{V: time.Minute},
		CheckpointCost: 2 * time.Minute,
	})
	job, err := w.scheduler.Submit("both", "dave", 2, 3*time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.engine.At(time.Hour, func() {
		if err := w.scheduler.AddMaintenance(4*time.Hour, 6*time.Hour); err != nil {
			t.Error(err)
		}
	})
	handled := map[int]bool{}
	w.engine.Every(time.Minute, time.Minute, func() bool {
		for _, j := range w.scheduler.Jobs() {
			if !handled[j.ID] && (j.State == sched.JobCompleted || j.State == sched.JobKilledWalltime || j.State == sched.JobKilledMaint) {
				handled[j.ID] = true
				schedCtl.NoteJobEnd(j)
			}
		}
		return w.engine.Now() < horizon
	})
	w.engine.RunUntil(horizon)

	if job.State != sched.JobCompleted {
		t.Fatalf("job state = %v (requeues=%d ext=%d), want completed", job.State, job.Requeues, job.Extensions)
	}
	if job.Requeues == 0 {
		t.Error("job was never checkpoint-requeued for maintenance")
	}
	inst, _ := w.runtime.Instance(job.ID)
	if inst.Iter() != 300 {
		t.Errorf("iterations = %d, want 300 (work preserved across maintenance)", inst.Iter())
	}
	if maintCtl.Preserved == 0 {
		t.Error("maintenance loop preserved nothing")
	}
}

// TestDeterministicIntegration verifies the whole multi-loop world is
// reproducible: same seed, same history.
func TestDeterministicIntegration(t *testing.T) {
	run := func() (time.Duration, int, uint64) {
		w := newWorld(t, 11)
		clock := sim.VirtualClock{Engine: w.engine}
		stop := func() bool { return w.engine.Now() >= 4*time.Hour }
		schedCtl := schedcase.New(schedcase.DefaultConfig(), w.db, w.scheduler, w.runtime, w.kb, clock)
		schedCtl.Loop().RunEvery(clock, 5*time.Minute, stop)
		w.runtime.RegisterSpec("u", app.Spec{
			Name: "u", TotalIters: 90, IterTime: sim.LogNormal{MeanV: time.Minute, CV: 0.3},
		})
		j, err := w.scheduler.Submit("u", "x", 1, time.Hour, 0)
		if err != nil {
			t.Fatal(err)
		}
		w.engine.RunUntil(4 * time.Hour)
		return j.End, j.Extensions, w.db.Appended()
	}
	end1, ext1, n1 := run()
	end2, ext2, n2 := run()
	if end1 != end2 || ext1 != ext2 || n1 != n2 {
		t.Errorf("runs diverged: (%v,%d,%d) vs (%v,%d,%d)", end1, ext1, n1, end2, ext2, n2)
	}
}
