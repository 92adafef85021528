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
	e    *sim.Engine
	db   *tsdb.DB
	fs   *pfs.FS
	s    *sched.Scheduler
	rt   *app.Runtime
	ctl  *controller
	loop *core.Loop
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
	ctl := newController(DefaultConfig(), db, s, rt)
	return &rig{e: e, db: db, fs: fs, s: s, rt: rt, ctl: ctl, loop: ctl.loop()}
}

// reopens counts the files the loop reopened: its honored actions.
func (r *rig) reopens() int { return r.loop.Metrics().HonoredActions }

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
	r.loop.RunEvery(sim.VirtualClock{Engine: r.e}, time.Minute, nil)

	// Healthy warmup.
	r.e.RunUntil(20 * time.Minute)
	if n := r.reopens(); n != 0 {
		t.Fatalf("false positive: %d responses during healthy phase", n)
	}
	// Degrade OST 3 by 10x.
	if err := r.fs.SetOSTHealth(3, 0.1); err != nil {
		t.Fatal(err)
	}
	r.e.RunUntil(60 * time.Minute)
	if n := r.reopens(); n != 1 {
		t.Fatalf("reopens = %d, want 1", n)
	}
	inst, _ := r.rt.Instance(j.ID)
	if inst.File().StripesOver(3) {
		t.Error("layout still includes degraded OST 3")
	}
	if len(r.ctl.avoided) != 1 || !r.ctl.avoided[3] {
		t.Errorf("avoided = %v, want OST 3", r.ctl.avoided)
	}
}

func TestIOTimeRecoversAfterAvoidance(t *testing.T) {
	run := func(withLoop bool) time.Duration {
		r := newRig(t, 8)
		j := r.ioApp(t, "writer", 8)
		if withLoop {
			r.loop.RunEvery(sim.VirtualClock{Engine: r.e}, time.Minute, nil)
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
	r.loop.RunEvery(sim.VirtualClock{Engine: r.e}, time.Minute, nil)
	r.e.RunUntil(time.Hour)
	if n := r.loop.Metrics().Findings; n != 0 {
		t.Errorf("findings on healthy fleet: %d", n)
	}
}

func TestJobNotUsingDegradedOSTUntouched(t *testing.T) {
	r := newRig(t, 8)
	j := r.ioApp(t, "narrow", 2) // stripes over OSTs 0-1 (round robin from 0)
	inst, _ := r.rt.Instance(j.ID)
	if inst.File().StripesOver(5) {
		t.Skip("layout unexpectedly includes OST 5")
	}
	r.loop.RunEvery(sim.VirtualClock{Engine: r.e}, time.Minute, nil)
	r.e.RunUntil(10 * time.Minute)
	_ = r.fs.SetOSTHealth(5, 0.05)
	r.e.RunUntil(2 * time.Hour)
	if n := r.reopens(); n != 0 {
		t.Errorf("responded for a job not touching the degraded OST (%d)", n)
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
