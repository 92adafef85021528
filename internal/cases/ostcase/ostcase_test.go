package ostcase

import (
	"testing"
	"time"

	"autoloop/internal/app"
	"autoloop/internal/core"
	"autoloop/internal/pfs"
	"autoloop/internal/sched"
	"autoloop/internal/sim"
	"autoloop/internal/telemetry"
	"autoloop/internal/tsdb"
)

type rig struct {
	e   *sim.Engine
	db  *tsdb.DB
	fs  *pfs.FS
	s   *sched.Scheduler
	rt  *app.Runtime
	ctl *Controller
}

func newRig(t *testing.T, osts int) *rig {
	t.Helper()
	e := sim.NewEngine(1)
	db := tsdb.New(0)
	fs := pfs.New(e, pfs.Config{OSTs: osts, OSTBandwidthMBps: 200, DefaultStripeCount: 4})
	s := sched.New(e, []string{"n00", "n01", "n02", "n03"}, sched.DefaultExtensionPolicy())
	rt := app.NewRuntime(e, db, fs, nil)
	rt.Serve(s)
	// Sample filesystem telemetry every 30s so the loop has data.
	pipe := telemetry.NewPipeline(telemetry.NewRegistryOf(fs.Collector()), db)
	e.Every(30*time.Second, 30*time.Second, func() bool {
		pipe.Sample(e.Now())
		return true
	})
	return &rig{e: e, db: db, fs: fs, s: s, rt: rt, ctl: New(DefaultConfig(), db, s, rt)}
}

// ioApp registers and submits an I/O heavy app.
func (r *rig) ioApp(t *testing.T, name string, stripes int) *sched.Job {
	t.Helper()
	r.rt.RegisterSpec(name, app.Spec{
		Name: name, TotalIters: 600, IterTime: sim.Constant{V: 10 * time.Second},
		IOEvery: 3, IOSizeMB: 400, StripeCount: stripes,
	})
	j, err := r.s.Submit(name, "u", 1, 12*time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestDetectsAndAvoidsDegradedOST(t *testing.T) {
	r := newRig(t, 8)
	j := r.ioApp(t, "writer", 8) // stripes over every OST
	loop := r.ctl.Loop()
	loop.RunEvery(sim.VirtualClock{Engine: r.e}, time.Minute, nil)

	// Healthy warmup.
	r.e.RunUntil(20 * time.Minute)
	if r.ctl.Responses != 0 {
		t.Fatalf("false positive: %d responses during healthy phase", r.ctl.Responses)
	}
	// Degrade OST 3 by 10x.
	if err := r.fs.SetOSTHealth(3, 0.1); err != nil {
		t.Fatal(err)
	}
	r.e.RunUntil(60 * time.Minute)
	if r.ctl.Responses != 1 {
		t.Fatalf("Responses = %d, want 1", r.ctl.Responses)
	}
	inst, _ := r.rt.Instance(j.ID)
	for _, o := range inst.File().OSTs() {
		if o == 3 {
			t.Error("layout still includes degraded OST 3")
		}
	}
	got := r.ctl.Avoided()
	if len(got) != 1 || got[0] != 3 {
		t.Errorf("Avoided = %v", got)
	}
}

func TestIOTimeRecoversAfterAvoidance(t *testing.T) {
	run := func(withLoop bool) time.Duration {
		r := newRig(t, 8)
		j := r.ioApp(t, "writer", 8)
		if withLoop {
			r.ctl.Loop().RunEvery(sim.VirtualClock{Engine: r.e}, time.Minute, nil)
		}
		r.e.At(10*time.Minute, func() { _ = r.fs.SetOSTHealth(3, 0.05) })
		r.e.RunUntil(12 * time.Hour)
		if j.State != sched.JobCompleted {
			t.Fatalf("state = %v (withLoop=%v)", j.State, withLoop)
		}
		return j.End - j.Start
	}
	with := run(true)
	without := run(false)
	if with >= without {
		t.Errorf("loop runtime %v should beat baseline %v", with, without)
	}
}

func TestHealthyFleetNoFindings(t *testing.T) {
	r := newRig(t, 8)
	r.ioApp(t, "writer", 8)
	loop := r.ctl.Loop()
	loop.RunEvery(sim.VirtualClock{Engine: r.e}, time.Minute, nil)
	r.e.RunUntil(time.Hour)
	if loop.Metrics().Findings != 0 {
		t.Errorf("findings on healthy fleet: %d", loop.Metrics().Findings)
	}
}

func TestJobNotUsingDegradedOSTUntouched(t *testing.T) {
	r := newRig(t, 8)
	j := r.ioApp(t, "narrow", 2) // stripes over OSTs 0-1 (round robin from 0)
	inst, _ := r.rt.Instance(j.ID)
	layout := inst.File().OSTs()
	for _, o := range layout {
		if o == 5 {
			t.Skip("layout unexpectedly includes OST 5")
		}
	}
	r.ctl.Loop().RunEvery(sim.VirtualClock{Engine: r.e}, time.Minute, nil)
	r.e.RunUntil(10 * time.Minute)
	_ = r.fs.SetOSTHealth(5, 0.05)
	r.e.RunUntil(2 * time.Hour)
	if r.ctl.Responses != 0 {
		t.Errorf("responded for a job not touching the degraded OST (%d)", r.ctl.Responses)
	}
}

func TestExecuteErrors(t *testing.T) {
	r := newRig(t, 4)
	if _, err := r.ctl.execute(0, core.Action{Kind: "bogus"}); err == nil {
		t.Error("unknown action should error")
	}
	if _, err := r.ctl.execute(0, core.Action{Kind: "reopen-avoiding", Subject: "nope"}); err == nil {
		t.Error("bad subject should error")
	}
	res, err := r.ctl.execute(0, core.Action{Kind: "reopen-avoiding", Subject: "424242"})
	if err != nil || res.Honored {
		t.Error("missing instance should be reported unhonored, not an error")
	}
}
