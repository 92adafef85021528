package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"autoloop/internal/app"
	"autoloop/internal/cases/misconfcase"
	"autoloop/internal/hw"
	"autoloop/internal/sched"
	"autoloop/internal/sim"
	"autoloop/internal/tsdb"
)

// runU4 launches a workload with known injected misconfigurations and
// measures per-type precision, recall, time-to-detect, and the core-hours
// recovered by fixing on the fly.
func runU4(opt Options) *Result {
	res := &Result{
		Title: "Injected misconfigurations: detection and response",
		Claim: "detect thread/core mismatch, underutilization, and wrong library paths; inform the " +
			"user or correct on the fly",
		Columns: []string{"kind", "injected", "detected", "recall", "false-pos", "median-ttd", "response"},
	}
	jobs := 120
	if opt.Quick {
		jobs = 48
	}

	engine := sim.NewEngine(opt.Seed)
	db := tsdb.New(0)
	ccfg := hw.DefaultConfig()
	ccfg.Nodes = 48
	ccfg.SensorNoise = 0.01
	cl := hw.New(engine, ccfg)
	scheduler := sched.New(engine, cl.UpNodes(), sched.DefaultExtensionPolicy())
	runtime := app.NewRuntime(engine, db, nil, cl)
	runtime.Serve(scheduler)
	ctl := misconfcase.New(misconfcase.DefaultConfig(), db, scheduler, runtime, cl)
	done := false
	ctl.Loop().RunEvery(sim.VirtualClock{Engine: engine}, time.Minute, func() bool { return done })

	rng := rand.New(rand.NewSource(opt.Seed))
	truth := map[int]app.Misconfig{} // job ID -> injected kind
	starts := map[int]time.Duration{}
	var at time.Duration
	injected := map[app.Misconfig]int{}
	for i := 0; i < jobs; i++ {
		at += sim.Exponential{MeanV: 2 * time.Minute}.Sample(rng)
		name := fmt.Sprintf("job%03d", i)
		kind := app.MisconfigNone
		if rng.Float64() < 0.3 {
			kind = []app.Misconfig{app.MisconfigThreads, app.MisconfigUnderutil, app.MisconfigWrongLib}[rng.Intn(3)]
		}
		injected[kind]++
		nodes := 1
		if kind == app.MisconfigUnderutil {
			nodes = 2 + rng.Intn(3)
		}
		spec := app.Spec{
			Name: name, TotalIters: 60 + rng.Intn(120),
			IterTime:  sim.LogNormal{MeanV: 30 * time.Second, CV: 0.1},
			Misconfig: kind,
		}
		engine.At(at, func() {
			j, err := scheduler.Submit(name, "u", nodes, 6*time.Hour, 0)
			if err != nil {
				return // cluster momentarily full for wide jobs
			}
			truth[j.ID] = kind
			starts[j.ID] = engine.Now()
		})
		runtime.RegisterSpec(name, spec)
	}
	engine.Every(time.Minute, time.Minute, func() bool {
		if engine.Now() > at && scheduler.QueueLen() == 0 && len(scheduler.Running()) == 0 {
			done = true
			return false
		}
		return true
	})
	engine.Run()

	// Score detections against ground truth.
	type score struct {
		detected int
		falsePos int
		ttds     []float64
	}
	scores := map[app.Misconfig]*score{
		app.MisconfigThreads:   {},
		app.MisconfigUnderutil: {},
		app.MisconfigWrongLib:  {},
	}
	for _, d := range ctl.Detections {
		want := truth[d.JobID]
		sc := scores[d.Kind]
		if sc == nil {
			continue
		}
		if d.Kind == want {
			sc.detected++
			sc.ttds = append(sc.ttds, (d.At - starts[d.JobID]).Minutes())
		} else {
			sc.falsePos++
		}
	}
	for _, kind := range []app.Misconfig{app.MisconfigThreads, app.MisconfigUnderutil, app.MisconfigWrongLib} {
		sc := scores[kind]
		response := "notify-user"
		if kind != app.MisconfigUnderutil {
			response = "fix-on-the-fly"
		}
		ttd := "n/a"
		if len(sc.ttds) > 0 {
			ttd = fmt.Sprintf("%.1fm", tsdb.Percentile(sc.ttds, 0.5))
		}
		res.AddRow(kind.String(), injected[kind], sc.detected,
			pct(float64(sc.detected), float64(injected[kind])),
			sc.falsePos, ttd, response)
	}
	falseTotal := 0
	for _, s := range scores {
		falseTotal += s.falsePos
	}
	res.AddRow("clean", injected[app.MisconfigNone], "-", "-", falseTotal, "-", "-")
	res.AddNote("%d fixes applied on the fly, %d user notifications", ctl.Fixes, ctl.Notifications)
	res.AddNote("false-pos counts detections whose classified kind differs from the injected ground truth")
	return res
}
