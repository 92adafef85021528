package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"autoloop/internal/app"
	"autoloop/internal/cases/schedcase"
	"autoloop/internal/core"
	"autoloop/internal/knowledge"
	"autoloop/internal/sched"
	"autoloop/internal/sim"
	"autoloop/internal/tsdb"
)

// schedScenario describes the shared workload for the Scheduler-case
// experiment family (EXP-F3, F3b, A1, A2, A3): a batch workload whose users
// mis-estimate walltime, on a cluster running the walltime-extension
// autonomy loop in a configurable mode.
type schedScenario struct {
	Seed  int64
	Nodes int
	Jobs  int
	// UnderestimateFrac is the fraction of users whose walltime request
	// falls short of the true runtime.
	UnderestimateFrac float64
	// PaddingFactor multiplies every walltime request (the "users just pad"
	// baseline uses 2.0).
	PaddingFactor float64
	// Oracle sets walltime to true runtime + 5% (the perfect-user baseline).
	Oracle bool

	// LoopEnabled turns the autonomy loop on.
	LoopEnabled bool
	LoopConfig  schedcase.Config
	LoopMode    core.Mode
	Human       core.HumanModel
	// ConfidenceGate adds a confidence guardrail at this threshold (>0).
	ConfidenceGate float64
	Policy         sched.ExtensionPolicy

	// MaxResubmits bounds how many times a killed job is resubmitted with a
	// 1.5x larger walltime request (user behavior after a kill).
	MaxResubmits int

	// Hard makes the applications much noisier and more often drifting, so
	// that live progress fits alone are unreliable and historical Knowledge
	// has real signal to add (used by the Knowledge ablation).
	Hard bool

	// WarmKB pre-populates the knowledge base by replaying the workload once.
	WarmKB *knowledge.Base
}

// defaultScenario returns the headline configuration: 32 nodes, 40% of
// users underestimating.
func defaultScenario(opt Options) schedScenario {
	jobs := 240
	if opt.Quick {
		jobs = 60
	}
	return schedScenario{
		Seed:              opt.Seed,
		Nodes:             32,
		Jobs:              jobs,
		UnderestimateFrac: 0.4,
		PaddingFactor:     1.0,
		LoopConfig:        schedcase.DefaultConfig(),
		Policy:            sched.ExtensionPolicy{MaxPerJob: 3, MaxTotalPerJob: 6 * time.Hour, BackfillGuard: true},
		MaxResubmits:      2,
	}
}

// schedOutcome aggregates the measurements the experiment family reports.
type schedOutcome struct {
	Submitted      int // original submissions (excluding resubmits)
	CompletedFirst int // completed without any resubmission
	CompletedAll   int // workload items eventually completed
	KilledWall     int
	Resubmits      int
	WastedNodeH    float64
	UsedNodeH      float64
	MeanWait       time.Duration
	Makespan       time.Duration
	BackfillStarts int

	ExtReq, ExtGranted, ExtPartial, ExtDenied int
	ExtGrantedTotal                           time.Duration
	UntakenBackfill                           time.Duration
	OverExtensionH                            float64 // granted-but-unused extension node-hours

	Assess knowledge.Effectiveness
	Loop   core.Metrics
	KB     *knowledge.Base

	// MeanDecisionLatency is DecisionLatency / ExecutedActions.
	MeanDecisionLatency time.Duration
}

// jobSpec pairs a generated application with its user-requested walltime.
type jobSpec struct {
	name     string
	spec     app.Spec
	nodes    int
	walltime time.Duration
	submitAt time.Duration
}

// generateJobs builds the workload deterministically from the seed. The mix
// follows the paper's motivation: iterative applications with noisy,
// sometimes drifting iteration times, whose users guess walltimes with
// asymmetric error.
func generateJobs(sc schedScenario) []jobSpec {
	rng := rand.New(rand.NewSource(sc.Seed))
	specs := make([]jobSpec, 0, sc.Jobs)
	var at time.Duration
	for i := 0; i < sc.Jobs; i++ {
		at += sim.Exponential{MeanV: 6 * time.Minute}.Sample(rng)
		iters := 40 + rng.Intn(160)
		iterMean := time.Duration(20+rng.Intn(70)) * time.Second
		cv := 0.15
		if sc.Hard {
			cv = 0.45
		}
		spec := app.Spec{
			Name:        fmt.Sprintf("app%03d", i),
			TotalIters:  iters,
			IterTime:    sim.LogNormal{MeanV: iterMean, CV: cv},
			MarkerEvery: 1,
		}
		// A third of the applications drift or shift phase, defeating naive
		// constant-rate forecasts (two thirds in the hard mix).
		mod := 6
		if sc.Hard {
			mod = 3
		}
		switch rng.Intn(mod) {
		case 0:
			spec.DriftPerIter = 0.002 + rng.Float64()*0.004
		case 1:
			spec.PhaseAt = iters / 2
			spec.PhaseFactor = 1.2 + rng.Float64()*0.5
		}
		trueRuntime := expectedRuntime(spec)
		var factor float64
		if rng.Float64() < sc.UnderestimateFrac {
			factor = 0.55 + rng.Float64()*0.4 // 0.55..0.95: underestimated
		} else {
			factor = 1.1 + rng.Float64()*0.9 // 1.1..2.0: safe
		}
		wall := time.Duration(float64(trueRuntime) * factor * sc.PaddingFactor)
		if sc.Oracle {
			wall = time.Duration(float64(trueRuntime) * 1.05)
		}
		if wall < 10*time.Minute {
			wall = 10 * time.Minute
		}
		specs = append(specs, jobSpec{
			name:     spec.Name,
			spec:     spec,
			nodes:    1 + rng.Intn(4),
			walltime: wall,
			submitAt: at,
		})
	}
	return specs
}

// expectedRuntime accounts for drift and phase factors analytically.
func expectedRuntime(s app.Spec) time.Duration {
	total := 0.0
	mean := float64(s.IterTime.Mean())
	for i := 0; i < s.TotalIters; i++ {
		f := 1 + s.DriftPerIter*float64(i)
		if s.PhaseAt > 0 && i >= s.PhaseAt && s.PhaseFactor > 0 {
			f *= s.PhaseFactor
		}
		total += mean * f
	}
	return time.Duration(total)
}

// runSchedScenario executes the scenario and collects the outcome.
func runSchedScenario(sc schedScenario) schedOutcome {
	engine := sim.NewEngine(sc.Seed)
	db := tsdb.New(0)
	nodes := make([]string, sc.Nodes)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("n%03d", i)
	}
	scheduler := sched.New(engine, nodes, sc.Policy)
	runtime := app.NewRuntime(engine, db, nil, nil)
	runtime.Serve(scheduler)

	specs := generateJobs(sc)
	// terminalItems counts workload items that reached a final fate
	// (completed, or killed with resubmissions exhausted); it terminates the
	// periodic loop and watcher events so the engine can drain.
	terminalItems := 0
	finished := func() bool { return terminalItems >= len(specs) }

	kb := sc.WarmKB
	if kb == nil {
		kb = knowledge.NewBase()
	}
	var ctl *schedcase.Controller
	var loop *core.Loop
	if sc.LoopEnabled {
		ctl = schedcase.New(sc.LoopConfig, db, scheduler, runtime, kb, sim.VirtualClock{Engine: engine})
		loop = ctl.Loop()
		loop.Mode = sc.LoopMode
		loop.Human = sc.Human
		loop.Rng = rand.New(rand.NewSource(sc.Seed + 7))
		if sc.ConfidenceGate > 0 {
			loop.Guards = append(loop.Guards, core.ConfidenceGate{Min: sc.ConfidenceGate})
		}
		loop.RunEvery(sim.VirtualClock{Engine: engine}, 5*time.Minute, finished)
	}

	// resubmits tracks per-workload-item resubmission counts; completedItem
	// marks items that finished (originally or after resubmission).
	resubmits := map[string]int{}
	completedItem := map[string]bool{}
	walltimes := map[string]time.Duration{}
	var out schedOutcome

	for _, js := range specs {
		js := js
		runtime.RegisterSpec(js.name, js.spec)
		walltimes[js.name] = js.walltime
		engine.At(js.submitAt, func() {
			_, err := scheduler.Submit(js.name, "user"+js.name[3:], js.nodes, js.walltime, 0)
			if err != nil {
				panic(err)
			}
		})
	}
	out.Submitted = len(specs)

	// Terminal-state watcher: resolves loop predictions and models the user
	// resubmitting killed jobs with 1.5x the previous request.
	handled := map[int]bool{}
	engine.Every(time.Minute, time.Minute, func() bool {
		for _, j := range scheduler.Jobs() {
			if handled[j.ID] {
				continue
			}
			switch j.State {
			case sched.JobCompleted:
				handled[j.ID] = true
				if ctl != nil {
					ctl.NoteJobEnd(j)
				}
				if !completedItem[j.Name] {
					completedItem[j.Name] = true
					terminalItems++
					if j.ResubmitOf == 0 {
						out.CompletedFirst++
					}
					out.CompletedAll++
				}
			case sched.JobKilledWalltime, sched.JobKilledMaint:
				handled[j.ID] = true
				if ctl != nil {
					ctl.NoteJobEnd(j)
				}
				if resubmits[j.Name] < sc.MaxResubmits {
					resubmits[j.Name]++
					out.Resubmits++
					walltimes[j.Name] = time.Duration(float64(walltimes[j.Name]) * 1.5)
					if _, err := scheduler.Submit(j.Name, j.User, j.Nodes, walltimes[j.Name], j.ID); err != nil {
						panic(err)
					}
				} else {
					terminalItems++ // permanently failed
				}
			}
		}
		return !finished()
	})

	engine.Run()

	st := scheduler.Stats()
	out.KilledWall = st.KilledWall
	out.WastedNodeH = st.NodeSecondsWasted / 3600
	out.UsedNodeH = st.NodeSecondsUsed / 3600
	out.MeanWait = st.MeanWait()
	out.Makespan = engine.Now()
	out.BackfillStarts = st.BackfillStart
	out.ExtReq = st.ExtensionRequests
	out.ExtGranted = st.ExtensionsGranted
	out.ExtPartial = st.ExtensionsPartial
	out.ExtDenied = st.ExtensionsDenied
	out.ExtGrantedTotal = st.ExtensionGranted
	out.UntakenBackfill = st.UntakenBackfillDelay
	out.KB = kb
	if ctl != nil {
		out.Assess = kb.Assess("scheduler-case")
	}
	if loop != nil {
		out.Loop = loop.Metrics()
		if out.Loop.ExecutedActions > 0 {
			out.MeanDecisionLatency = out.Loop.DecisionLatency / time.Duration(out.Loop.ExecutedActions)
		}
	}
	// Over-extension: unused granted time of completed extended jobs.
	for _, j := range scheduler.Jobs() {
		if j.State == sched.JobCompleted && j.ExtensionTotal > 0 {
			unused := j.Deadline - j.End
			if unused > 0 {
				out.OverExtensionH += unused.Seconds() / 3600 * float64(j.Nodes)
			}
		}
	}
	return out
}
