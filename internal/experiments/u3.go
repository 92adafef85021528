package experiments

import (
	"fmt"
	"time"

	"autoloop/internal/app"
	"autoloop/internal/bus"
	"autoloop/internal/cases/ostcase"
	"autoloop/internal/control"
	"autoloop/internal/core"
	"autoloop/internal/fleet"
	"autoloop/internal/pfs"
	"autoloop/internal/sched"
	"autoloop/internal/sim"
	"autoloop/internal/telemetry"
	"autoloop/internal/tsdb"
)

// runU3 degrades one OST under an I/O-heavy workload and compares
// application I/O latency and runtime with and without the avoidance loop.
func runU3(opt Options) *Result {
	res := &Result{
		Title: "One of 16 OSTs degrades 20x at t=10m under striped writers",
		Claim: "close files using a poorly performing OST and reopen them using different OSTs",
		Columns: []string{"mode", "response-at", "io-p50-after-ms", "io-p99-after-ms",
			"mean-job-runtime", "reopen-actions"},
	}
	writers := 6
	iters := 360
	if opt.Quick {
		writers = 4
		iters = 180
	}
	degradeAt := 10 * time.Minute

	for _, withLoop := range []bool{false, true} {
		engine := sim.NewEngine(opt.Seed)
		db := tsdb.New(0)
		fs := pfs.New(engine, pfs.Config{OSTs: 16, OSTBandwidthMBps: 400, DefaultStripeCount: 8})
		nodes := make([]string, writers)
		for i := range nodes {
			nodes[i] = fmt.Sprintf("n%03d", i)
		}
		scheduler := sched.New(engine, nodes, sched.DefaultExtensionPolicy())
		runtime := app.NewRuntime(engine, db, fs, nil)
		runtime.Serve(scheduler)
		pipe := telemetry.NewPipeline(telemetry.NewRegistryOf(fs.Collector()), db)
		engine.Every(30*time.Second, 30*time.Second, func() bool {
			pipe.Sample(engine.Now())
			return scheduler.QueueLen() > 0 || len(scheduler.Running()) > 0
		})
		// firstReopen is the time of the loop's first honored execute event:
		// its response to the degradation.
		var loop *core.Loop
		firstReopen := time.Duration(-1)
		if withLoop {
			sp := spawn(&control.Env{Querier: db, Scheduler: scheduler, Apps: runtime}, control.LoopSpec{Case: ostcase.CaseName})
			loop = sp.Loop()
			loop.Bus.Subscribe("loop."+loop.Name+".execute", func(env bus.Envelope) {
				if firstReopen < 0 && env.Payload.(*core.ActionResult).Honored {
					firstReopen = env.Time
				}
			})
			coord := fleet.New(0)
			coord.Add(loop, sp.Priority)
			coord.RunEvery(sim.VirtualClock{Engine: engine}, time.Minute,
				func() bool { return len(scheduler.Running()) == 0 && scheduler.QueueLen() == 0 })
		}
		var jobs []*sched.Job
		for i := 0; i < writers; i++ {
			name := fmt.Sprintf("writer%02d", i)
			runtime.RegisterSpec(name, app.Spec{
				Name: name, TotalIters: iters, IterTime: sim.Constant{V: 10 * time.Second},
				IOEvery: 3, IOSizeMB: 800, StripeCount: 8,
			})
			j, err := scheduler.Submit(name, "u", 1, 24*time.Hour, 0)
			if err != nil {
				panic(err)
			}
			jobs = append(jobs, j)
		}
		engine.At(degradeAt, func() { _ = fs.SetOSTHealth(3, 0.05) })
		engine.Run()

		// I/O latency after the degradation, from the apps' own telemetry,
		// windowed through the shared fill-buffer query surface.
		after := db.WindowInto(nil, "app.io.lat_ms", nil, degradeAt, engine.Now())
		var runtimeSum time.Duration
		for _, j := range jobs {
			runtimeSum += j.End - j.Start
		}
		mode := "no-loop"
		responseAt := "-"
		reopens := 0
		if withLoop {
			mode = "autonomy-loop"
			reopens = loop.Metrics().HonoredActions
			if firstReopen >= 0 {
				responseAt = (firstReopen - degradeAt).String() + " after onset"
			}
		}
		res.AddRow(mode, responseAt,
			fmt.Sprintf("%.0f", tsdb.Percentile(after, 0.5)),
			fmt.Sprintf("%.0f", tsdb.Percentile(after, 0.99)),
			(runtimeSum / time.Duration(len(jobs))).Truncate(time.Second).String(),
			reopens,
		)
	}
	res.AddNote("writers stripe 800MB bursts over 8 of 16 OSTs; the slowest stripe gates each write")
	return res
}
