package experiments

import (
	"fmt"
	"time"

	"autoloop/internal/app"
	"autoloop/internal/cases/maintcase"
	"autoloop/internal/control"
	"autoloop/internal/sched"
	"autoloop/internal/sim"
	"autoloop/internal/tsdb"
)

// runU1 runs a fleet of long jobs into a maintenance window with and without
// the maintenance autonomy loop, comparing preserved work and completion.
func runU1(opt Options) *Result {
	res := &Result{
		Title: "Maintenance window at t=6h: loop vs baseline",
		Claim: "responses to system maintenance events ensure continuity of running jobs " +
			"(via the same checkpoint interaction as the Scheduler case)",
		Columns: []string{"mode", "killed-by-maint", "preserved", "completed-by-24h",
			"lost-node-h", "mean-completion-h"},
	}
	jobs := 24
	if opt.Quick {
		jobs = 12
	}
	for _, withLoop := range []bool{false, true} {
		engine := sim.NewEngine(opt.Seed)
		db := tsdb.New(0)
		nodes := make([]string, 16)
		for i := range nodes {
			nodes[i] = fmt.Sprintf("n%03d", i)
		}
		scheduler := sched.New(engine, nodes, sched.DefaultExtensionPolicy())
		runtime := app.NewRuntime(engine, db, nil, nil)
		runtime.Serve(scheduler)
		if withLoop {
			sp := spawn(&control.Env{Querier: db, Scheduler: scheduler, Apps: runtime},
				control.LoopSpec{Case: maintcase.CaseName})
			done := false
			sp.Loop().RunEvery(sim.VirtualClock{Engine: engine}, 5*time.Minute, func() bool { return done })
			engine.At(9*time.Hour, func() { done = true })
		}
		// The window is ANNOUNCED one hour in, after the fleet is already
		// running — the paper's scenario: running jobs must be preserved,
		// not merely scheduled around a long-known reservation.
		engine.At(time.Hour, func() {
			if err := scheduler.AddMaintenance(6*time.Hour, 8*time.Hour); err != nil {
				panic(err)
			}
		})
		rng := sim.NewEngine(opt.Seed + 1).Rand() // independent stream for job shapes
		var js []*sched.Job
		for i := 0; i < jobs; i++ {
			name := fmt.Sprintf("job%02d", i)
			iters := 240 + rng.Intn(480) // 4-12 hours of one-minute iterations
			runtime.RegisterSpec(name, app.Spec{
				Name: name, TotalIters: iters,
				IterTime:       sim.Constant{V: time.Minute},
				CheckpointCost: 2 * time.Minute,
			})
			j, err := scheduler.Submit(name, "u", 1+rng.Intn(2), 14*time.Hour, 0)
			if err != nil {
				panic(err)
			}
			js = append(js, j)
		}
		// Baseline behavior after a maintenance kill: the user resubmits,
		// restarting from scratch (no checkpoint exists).
		resubmitted := map[int]bool{}
		engine.Every(time.Minute, time.Minute, func() bool {
			for _, j := range scheduler.Jobs() {
				if j.State == sched.JobKilledMaint && !resubmitted[j.ID] {
					resubmitted[j.ID] = true
					if _, err := scheduler.Submit(j.Name, j.User, j.Nodes, j.Walltime, j.ID); err != nil {
						panic(err)
					}
				}
			}
			return engine.Now() < 24*time.Hour
		})
		engine.RunUntil(24 * time.Hour)

		st := scheduler.Stats()
		completed := 0
		var completionSum time.Duration
		for _, j := range js {
			final := j
			// Follow the resubmission chain to the terminal attempt.
			for _, k := range scheduler.Jobs() {
				if k.ResubmitOf == final.ID {
					final = k
				}
			}
			if final.State == sched.JobCompleted {
				completed++
				completionSum += final.End
			}
		}
		meanCompl := "n/a"
		if completed > 0 {
			meanCompl = fmt.Sprintf("%.1f", (completionSum / time.Duration(completed)).Hours())
		}
		mode := "no-loop"
		if withLoop {
			mode = "autonomy-loop"
		}
		// A job is preserved when the loop's checkpoint lets the scheduler
		// requeue it; nothing else requeues here.
		res.AddRow(mode, st.KilledMaint, st.Requeued, fmt.Sprintf("%d/%d", completed, jobs),
			fmt.Sprintf("%.1f", st.NodeSecondsWasted/3600), meanCompl)
	}
	res.AddNote("lost-node-h counts occupancy of maintenance-killed jobs (work redone from scratch in the baseline)")
	return res
}
