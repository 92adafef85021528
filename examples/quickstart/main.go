// Quickstart: the smallest complete MODA autonomy loop.
//
// A single "classical" MAPE-K loop watches one iterative application's
// progress markers, forecasts its time to completion, and asks the simulated
// SLURM-like scheduler for a walltime extension when the job would otherwise
// be killed — the paper's Fig. 3 in ~100 lines.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	"autoloop/internal/app"
	"autoloop/internal/bus"
	"autoloop/internal/cases/schedcase"
	"autoloop/internal/core"
	"autoloop/internal/knowledge"
	"autoloop/internal/sched"
	"autoloop/internal/sim"
	"autoloop/internal/tsdb"
)

func main() {
	// 1. The substrate: event engine, telemetry store, 4-node scheduler,
	//    application runtime.
	engine := sim.NewEngine(42)
	db := tsdb.New(0)
	scheduler := sched.New(engine, []string{"n00", "n01", "n02", "n03"},
		sched.ExtensionPolicy{MaxPerJob: 3, MaxTotalPerJob: 4 * time.Hour, BackfillGuard: true})
	runtime := app.NewRuntime(engine, db, nil, nil)
	runtime.Serve(scheduler)

	// 2. The managed application: 100 one-minute iterations (about 100
	//    minutes of real work), but its user requested only 60 minutes.
	runtime.RegisterSpec("lbm-sim", app.Spec{
		Name:       "lbm-sim",
		TotalIters: 100,
		IterTime:   sim.LogNormal{MeanV: time.Minute, CV: 0.1},
	})
	job, err := scheduler.Submit("lbm-sim", "alice", 2, time.Hour, 0)
	if err != nil {
		panic(err)
	}

	// 3. The autonomy loop: Monitor progress markers -> Analyze TTC ->
	//    Plan an extension -> Execute through the scheduler -> Assess into
	//    the knowledge base.
	kb := knowledge.NewBase()
	ctl := schedcase.New(schedcase.DefaultConfig(), db, scheduler, runtime, kb,
		sim.VirtualClock{Engine: engine})
	loop := ctl.Loop()
	// The loop explains itself on the bus: every finding, plan and
	// execution is an event on "loop.<name>.<kind>". Keep the executions.
	loop.Bus = bus.New()
	var trail []string
	loop.Bus.Subscribe("loop."+loop.Name+".execute", func(e bus.Envelope) {
		res := e.Payload.(core.ActionResult)
		trail = append(trail, fmt.Sprintf("[%v] %s(%s) honored=%v granted=%.4g: %s",
			e.Time, res.Action.Kind, res.Action.Subject, res.Honored, res.Granted, res.Action.Explanation))
	})
	loop.RunEvery(sim.VirtualClock{Engine: engine}, 5*time.Minute,
		func() bool { return job.State != sched.JobRunning && job.State != sched.JobPending })

	// 4. Run the world.
	engine.RunUntil(6 * time.Hour)
	ctl.NoteJobEnd(job)

	// 5. What happened?
	fmt.Printf("job %d (%s) requested %v, final state: %s\n",
		job.ID, job.Name, job.Walltime, job.State)
	fmt.Printf("ran %v wall time with %d extension(s) totalling %v\n",
		(job.End - job.Start).Truncate(time.Second), job.Extensions, job.ExtensionTotal)
	fmt.Printf("\nloop.%s.execute (the loop explaining itself):\n", loop.Name)
	for _, line := range trail {
		fmt.Println(" ", line)
	}
	eff := kb.Assess("scheduler-case")
	fmt.Printf("\nknowledge: %d plan(s) recorded, %d honored, mean relative prediction error %.1f%%\n",
		eff.Plans, eff.Honored, eff.MeanRelErr*100)
}
