// Package schedcase implements the paper's initial use case (Fig. 3): a
// MAPE-K autonomy loop that monitors application progress markers, analyzes
// projected time-to-completion against the remaining allocation — informed by
// prior Knowledge of the application's history — plans a walltime extension
// (or a checkpoint, when extensions are exhausted), and executes it through
// the scheduler's extension hook, then assesses the outcome to refine the
// Knowledge.
//
// The paper prescribes each piece:
//
//   - Monitor: "progress of an application ... via markers that could be
//     output by an application (e.g., simulation time-step)".
//   - Analyze: "the progress relative to representative historical
//     application run times" stored with metadata in the knowledge base.
//   - Plan: "take into account prior Knowledge of running time and progress
//     rate", planning a run-time extension.
//   - Execute: "the scheduler may deny the request or provide a shorter
//     extension than requested" — the loop must observe whether it was
//     honored.
//   - Assess: record over/under-estimation and refine Knowledge.
package schedcase

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"autoloop/internal/analytics"
	"autoloop/internal/app"
	"autoloop/internal/core"
	"autoloop/internal/knowledge"
	"autoloop/internal/sched"
	"autoloop/internal/sim"
	"autoloop/internal/telemetry"
)

// Config tunes the Scheduler-case loop.
type Config struct {
	// Window is the number of progress markers the rate fit uses.
	Window int
	// Z is the z-score for the TTC safety bound (1.645 ~ 90%).
	Z float64
	// Buffer is the minimum safety margin added to extensions.
	Buffer time.Duration
	// Granularity rounds extension requests up (schedulers think in
	// minutes, not nanoseconds).
	Granularity time.Duration
	// MinSamples gates analysis until enough markers arrived.
	MinSamples int
	// UseKnowledge applies learned per-app correction factors and
	// prior-run history (EXP-A1 ablates this).
	UseKnowledge bool
	// CheckpointFallback plans a checkpoint when the job still projects
	// to overrun but extensions are exhausted or denied.
	CheckpointFallback bool
	// FixedBufferOnly disables the proportional safety margin on extension
	// sizes (ablation: without it the planner nibbles small extensions and
	// exhausts the scheduler's per-job count cap on drifting applications).
	FixedBufferOnly bool
}

// DefaultConfig returns the configuration used by the headline experiment.
func DefaultConfig() Config {
	return Config{
		Window:             30,
		Z:                  1.645,
		Buffer:             5 * time.Minute,
		Granularity:        5 * time.Minute,
		MinSamples:         5,
		UseKnowledge:       true,
		CheckpointFallback: true,
	}
}

// Controller holds the loop's state and wires the MAPE phases. One
// controller manages every running job; per-job estimator state makes it
// semantically "one classical loop per application" as the paper describes,
// multiplexed for efficiency.
type Controller struct {
	cfg   Config
	db    telemetry.Querier
	sch   *sched.Scheduler
	apps  *app.Runtime
	kb    *knowledge.Base
	clock sim.Clock

	estimators map[int]*analytics.TTCEstimator
	startSeen  map[int]time.Duration
	lastPoll   map[int]time.Duration
	// conf tracks realized TTC accuracy per application name.
	conf map[string]*analytics.ConfidenceTracker
	// predictions awaiting resolution: jobID -> predicted completion time
	// and the KB plan index.
	pending map[int]prediction
}

type prediction struct {
	predictedEnd time.Duration
	planIdx      int
	honored      bool
}

// New builds the controller.
func New(cfg Config, db telemetry.Querier, sch *sched.Scheduler, apps *app.Runtime, kb *knowledge.Base, clock sim.Clock) *Controller {
	if db == nil || sch == nil || apps == nil || kb == nil {
		panic("schedcase: nil dependency")
	}
	if cfg.Window < 2 {
		cfg.Window = 30
	}
	if cfg.MinSamples < 2 {
		cfg.MinSamples = 2
	}
	return &Controller{
		cfg: cfg, db: db, sch: sch, apps: apps, kb: kb, clock: clock,
		estimators: make(map[int]*analytics.TTCEstimator),
		startSeen:  make(map[int]time.Duration),
		lastPoll:   make(map[int]time.Duration),
		conf:       make(map[string]*analytics.ConfidenceTracker),
		pending:    make(map[int]prediction),
	}
}

// Loop assembles the core.Loop around this controller. Callers may further
// configure mode, guards, and bus before running it.
func (c *Controller) Loop() *core.Loop {
	l := core.NewLoop("scheduler-case",
		core.MonitorFunc(c.observe),
		core.AnalyzerFunc(c.analyze),
		core.PlannerFunc(c.plan),
		core.ExecutorFunc(c.execute),
	)
	l.K = c.kb
	l.Clock = c.clock
	l.Assess = core.AssessorFunc(c.assess)
	return l
}

// observe is the Monitor phase: gather fresh progress markers per running
// job from the TSDB. Markers stream straight from the store into the
// observation through QueryVisit — no intermediate []Series materialization
// per job per tick.
func (c *Controller) observe(now time.Duration) (core.Observation, error) {
	obs := core.Observation{Time: now}
	for _, j := range c.sch.Running() {
		label := telemetry.Labels{"job": strconv.Itoa(j.ID)}
		from := c.lastPoll[j.ID]
		c.db.QueryVisit("app.progress", label, from, now, func(labels telemetry.Labels, samples []telemetry.Sample) {
			for _, smp := range samples {
				obs.Points = append(obs.Points, telemetry.Point{
					Name: "app.progress", Labels: labels, Time: smp.Time, Value: smp.Value,
				})
			}
		})
		if total, ok := c.db.LatestValue("app.progress_total", label); ok {
			obs.Points = append(obs.Points, telemetry.Point{
				Name: "app.progress_total", Labels: label, Time: now, Value: total,
			})
		}
		c.lastPoll[j.ID] = now + 1 // half-open window for the next poll
	}
	return obs, nil
}

// analyze is the Analyze phase: update per-job estimators and flag jobs whose
// projected completion exceeds the remaining allocation.
func (c *Controller) analyze(now time.Duration, obs core.Observation) (core.Symptoms, error) {
	sym := core.Symptoms{Time: now}
	// Feed markers into estimators.
	for _, p := range obs.Points {
		id, err := strconv.Atoi(p.Labels["job"])
		if err != nil {
			continue
		}
		j, ok := c.sch.Job(id)
		if !ok || j.State != sched.JobRunning {
			continue
		}
		est := c.estimator(j)
		switch p.Name {
		case "app.progress":
			est.Observe(p.Time.Seconds(), p.Value)
		case "app.progress_total":
			est.SetTotal(p.Value)
		}
	}
	// Evaluate every running job with a warmed-up estimator.
	for _, j := range c.sch.Running() {
		est, ok := c.estimators[j.ID]
		if !ok {
			continue
		}
		ttc := est.Estimate(c.cfg.Z)
		if !ttc.OK() || ttc.N < c.cfg.MinSamples {
			continue
		}
		remaining := j.Remaining(now)
		basis := c.correctedRemaining(j, ttc)
		if basis+c.cfg.Buffer <= remaining {
			continue // on track
		}
		// Act only when genuinely short, but then ask for proportional
		// headroom: few meaningful extensions instead of deadline nibbles
		// that exhaust the scheduler's count cap.
		shortfall := basis + c.buffer(basis) - remaining
		sym.Findings = append(sym.Findings, core.Finding{
			Kind:       "ttc-exceeds-walltime",
			Subject:    strconv.Itoa(j.ID),
			Value:      shortfall.Seconds(),
			Confidence: c.confidence(j, ttc),
			Detail: fmt.Sprintf("projected %v remaining (rate %.3f/s, n=%d) vs %v allocation left",
				basis.Truncate(time.Second), ttc.Rate, ttc.N, remaining.Truncate(time.Second)),
		})
	}
	return sym, nil
}

// estimator returns the job's estimator, resetting it when the job restarted
// (requeue/resubmit changes Start).
func (c *Controller) estimator(j *sched.Job) *analytics.TTCEstimator {
	est, ok := c.estimators[j.ID]
	if !ok || c.startSeen[j.ID] != j.Start {
		est = analytics.NewTTCEstimator(c.cfg.Window)
		c.estimators[j.ID] = est
		c.startSeen[j.ID] = j.Start
	}
	return est
}

// correctedRemaining blends the live estimate with Knowledge: the safety
// bound of the fit, scaled by the application's learned correction factor,
// and sanity-checked against the typical historical runtime.
func (c *Controller) correctedRemaining(j *sched.Job, ttc analytics.TTC) time.Duration {
	basis := ttc.Hi
	if !c.cfg.UseKnowledge {
		return basis
	}
	corr := c.kb.Correction(j.Name)
	basis = time.Duration(float64(basis) * corr)
	// Historical sanity check: the projection of remaining+elapsed should not
	// wildly exceed the historical median; if it does, trust history's scale.
	if typical, ok := c.kb.TypicalRuntime(j.Name); ok {
		elapsed := c.clock.Now() - j.Start
		projected := elapsed + basis
		if projected > 3*typical {
			basis = 3*typical - elapsed
			if basis < 0 {
				basis = ttc.Hi
			}
		}
	}
	return basis
}

// confidence combines the estimator's interval tightness with the
// application's realized forecast accuracy.
func (c *Controller) confidence(j *sched.Job, ttc analytics.TTC) float64 {
	tight := 1.0
	if ttc.Remaining > 0 {
		width := float64(ttc.Hi-ttc.Lo) / float64(2*ttc.Remaining)
		tight = 1 / (1 + width)
	}
	tracker := c.tracker(j.Name)
	conf := math.Sqrt(tight * tracker.Confidence())
	if conf > 1 {
		conf = 1
	}
	return conf
}

// buffer returns the safety margin for a projected remaining time: at least
// the configured floor, and proportionally larger for long projections so
// extensions come in few, meaningful chunks rather than nibbles that exhaust
// the scheduler's count cap.
func (c *Controller) buffer(basis time.Duration) time.Duration {
	if c.cfg.FixedBufferOnly {
		return c.cfg.Buffer
	}
	prop := time.Duration(float64(basis) * 0.15)
	if prop > c.cfg.Buffer {
		return prop
	}
	return c.cfg.Buffer
}

func (c *Controller) tracker(appName string) *analytics.ConfidenceTracker {
	tr, ok := c.conf[appName]
	if !ok {
		tr = analytics.NewConfidenceTracker(0.25, 0.3)
		c.conf[appName] = tr
	}
	return tr
}

// plan is the Plan phase: turn shortfall findings into extension requests,
// falling back to checkpoints when the scheduler can no longer extend.
func (c *Controller) plan(now time.Duration, sym core.Symptoms) (core.Plan, error) {
	plan := core.Plan{Time: now}
	policy := c.sch.Policy()
	for _, f := range sym.Findings {
		if f.Kind != "ttc-exceeds-walltime" {
			continue
		}
		id, err := strconv.Atoi(f.Subject)
		if err != nil {
			continue
		}
		j, ok := c.sch.Job(id)
		if !ok || j.State != sched.JobRunning {
			continue
		}
		need := time.Duration(f.Value * float64(time.Second))
		need = roundUp(need, c.cfg.Granularity)

		exhausted := (policy.MaxPerJob > 0 && j.Extensions >= policy.MaxPerJob) ||
			(policy.MaxTotalPerJob > 0 && j.ExtensionTotal >= policy.MaxTotalPerJob)
		if exhausted {
			if c.cfg.CheckpointFallback {
				plan.Actions = append(plan.Actions, core.Action{
					Kind: "checkpoint", Subject: f.Subject, Confidence: f.Confidence,
					Explanation: fmt.Sprintf("extensions exhausted (%d used, %v total); checkpoint to preserve work",
						j.Extensions, j.ExtensionTotal),
				})
			}
			continue
		}
		plan.Actions = append(plan.Actions, core.Action{
			Kind: "extend-walltime", Subject: f.Subject, Amount: need.Seconds(),
			Confidence:  f.Confidence,
			Explanation: f.Detail,
		})
	}
	return plan, nil
}

// execute is the Execute phase: drive the scheduler extension hook or the
// application checkpoint hook.
func (c *Controller) execute(now time.Duration, a core.Action) (core.ActionResult, error) {
	id, err := strconv.Atoi(a.Subject)
	if err != nil {
		return core.ActionResult{}, fmt.Errorf("schedcase: bad subject %q", a.Subject)
	}
	switch a.Kind {
	case "extend-walltime":
		res := c.sch.RequestExtension(id, time.Duration(a.Amount*float64(time.Second)))
		return core.ActionResult{
			Action:  a,
			Honored: res.Granted > 0,
			Granted: res.Granted.Seconds(),
			Detail:  res.Reason,
		}, nil
	case "checkpoint":
		inst, ok := c.apps.Instance(id)
		if !ok {
			return core.ActionResult{}, fmt.Errorf("schedcase: no instance for job %d", id)
		}
		if err := inst.RequestCheckpoint(nil); err != nil {
			return core.ActionResult{Action: a, Detail: err.Error()}, nil
		}
		return core.ActionResult{Action: a, Honored: true, Detail: "checkpoint requested"}, nil
	default:
		return core.ActionResult{}, fmt.Errorf("schedcase: unknown action %q", a.Kind)
	}
}

// assess is the Assess step: record executed plans in Knowledge, to be
// resolved when the job ends.
func (c *Controller) assess(now time.Duration, plan core.Plan, outcome core.Outcome) {
	for _, res := range outcome.Results {
		if res.Action.Kind != "extend-walltime" {
			continue
		}
		id, err := strconv.Atoi(res.Action.Subject)
		if err != nil {
			continue
		}
		j, ok := c.sch.Job(id)
		if !ok {
			continue
		}
		est, ok := c.estimators[id]
		if !ok {
			continue
		}
		ttc := est.Estimate(c.cfg.Z)
		predictedEnd := now + ttc.Remaining
		if p, exists := c.pending[id]; exists {
			// Re-extension: keep the first plan index, refresh the forecast.
			p.predictedEnd = predictedEnd
			p.honored = p.honored || res.Honored
			c.pending[id] = p
			continue
		}
		idx := c.kb.RecordPlan(knowledge.PlanRecord{
			Loop:      "scheduler-case",
			Action:    "extend-walltime",
			At:        now,
			Predicted: predictedEnd.Seconds(),
			Honored:   res.Honored,
			Note:      fmt.Sprintf("job %d (%s)", id, j.Name),
		})
		c.pending[id] = prediction{predictedEnd: predictedEnd, planIdx: idx, honored: res.Honored}
	}
}

// NoteJobEnd must be called by the harness whenever a job reaches a terminal
// state (completed or killed). It resolves outstanding predictions, updates
// confidence and correction factors, and records the run in Knowledge.
func (c *Controller) NoteJobEnd(j *sched.Job) {
	if p, ok := c.pending[j.ID]; ok {
		_ = c.kb.ResolvePlan(p.planIdx, j.End.Seconds(), p.honored)
		if j.State == sched.JobCompleted {
			c.tracker(j.Name).Resolve(p.predictedEnd.Seconds(), j.End.Seconds())
			if c.cfg.UseKnowledge {
				predictedRemaining := (p.predictedEnd - j.Start).Seconds()
				actualRemaining := (j.End - j.Start).Seconds()
				c.kb.ResolveCorrection(j.Name, predictedRemaining, actualRemaining)
			}
		}
		delete(c.pending, j.ID)
	}
	if j.State == sched.JobCompleted || j.State == sched.JobKilledWalltime || j.State == sched.JobKilledMaint {
		c.kb.AddRun(knowledge.RunRecord{
			App:       j.Name,
			User:      j.User,
			Nodes:     j.Nodes,
			Runtime:   j.End - j.Start,
			Walltime:  j.Walltime,
			Completed: j.State == sched.JobCompleted,
			Signature: c.signature(j),
			At:        j.End,
		})
	}
	delete(c.estimators, j.ID)
	delete(c.startSeen, j.ID)
	delete(c.lastPoll, j.ID)
}

// signature summarizes the run's behavior from its telemetry, reducing the
// iteration-time series in place during the visit instead of copying it out.
func (c *Controller) signature(j *sched.Job) analytics.Signature {
	label := telemetry.Labels{"job": strconv.Itoa(j.ID)}
	sig := analytics.Signature{"nodes": float64(j.Nodes)}
	matches := 0
	var mean float64
	c.db.QueryVisit("app.iter_time_ms", label, 0, j.End, func(_ telemetry.Labels, samples []telemetry.Sample) {
		matches++
		var sum float64
		for _, smp := range samples {
			sum += smp.Value
		}
		mean = sum / float64(len(samples))
	})
	if matches == 1 {
		sig["iter_ms"] = mean
	}
	return sig
}

func roundUp(d, gran time.Duration) time.Duration {
	if gran <= 0 {
		return d
	}
	if rem := d % gran; rem != 0 {
		return d + gran - rem
	}
	return d
}
