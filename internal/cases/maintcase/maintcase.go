// Package maintcase implements the paper's Maintenance use case: "responses
// to system maintenance events to ensure continuity of running jobs". The
// loop watches upcoming maintenance reservations, analyzes which running
// jobs cannot finish before the window opens, and executes the same
// application interaction the Scheduler case's extension path uses —
// "equivalent application interaction as invoking asynchronous
// checkpointing" — followed by a graceful requeue, so the work survives the
// outage instead of being killed with it.
package maintcase

import (
	"fmt"
	"strconv"
	"time"

	"autoloop/internal/app"
	"autoloop/internal/core"
	"autoloop/internal/sched"
	"autoloop/internal/telemetry"
	"autoloop/internal/tsdb"
)

// Config tunes the maintenance loop.
type Config struct {
	// LeadTime is how far ahead of a maintenance window the loop acts; it
	// must cover checkpoint cost plus scheduling slack.
	LeadTime time.Duration
	// SafetyMargin pads the completion estimate when deciding whether a job
	// will finish in time on its own.
	SafetyMargin time.Duration
}

// DefaultConfig acts 30 minutes ahead with a 5-minute margin.
func DefaultConfig() Config {
	return Config{LeadTime: 30 * time.Minute, SafetyMargin: 5 * time.Minute}
}

// Controller wires the maintenance MAPE loop.
type Controller struct {
	cfg  Config
	db   telemetry.Querier
	sch  *sched.Scheduler
	apps *app.Runtime

	// handled remembers jobs already checkpoint-requeued for the upcoming
	// window, so one window triggers one response per job.
	handled map[int]bool

	// running, ptsBuf and rates are Monitor and Analyze scratch reused
	// across ticks: the loop drops each observation after Analyze.
	running []*sched.Job
	ptsBuf  []telemetry.Point
	rates   []jobRate
	// visit is the progress-window visitor, bound once; it folds one
	// window into matches, n and rate.
	visit   telemetry.SeriesVisitor
	matches int
	n       int
	rate    float64

	// Preserved counts jobs saved ahead of maintenance (experiment metric).
	Preserved int
}

// New builds the controller.
func New(cfg Config, db telemetry.Querier, sch *sched.Scheduler, apps *app.Runtime) *Controller {
	if db == nil || sch == nil || apps == nil {
		panic("maintcase: nil dependency")
	}
	c := &Controller{cfg: cfg, db: db, sch: sch, apps: apps, handled: make(map[int]bool)}
	c.visit = c.foldProgress
	return c
}

// jobRate is one observed job's progress rate.
type jobRate struct {
	id   int
	rate float64
}

// Loop assembles the core loop.
func (c *Controller) Loop() *core.Loop {
	return core.NewLoop("maintenance-case",
		core.MonitorFunc(c.observe),
		core.AnalyzerFunc(c.analyze),
		core.PlannerFunc(c.plan),
		core.ExecutorFunc(c.execute),
	)
}

// observe reports the next maintenance window and per-job progress rates.
// A job's progress is read under its instance's label set; a job with no
// instance has no progress to read.
func (c *Controller) observe(now time.Duration) (core.Observation, error) {
	obs := core.Observation{Time: now}
	start, ok := c.sch.NextMaintenance(now)
	if !ok {
		return obs, nil
	}
	pts := append(c.ptsBuf[:0], telemetry.Point{
		Name: "maint.next.start", Time: now, Value: start.Seconds(),
	})
	c.running = c.sch.RunningInto(c.running[:0])
	for _, j := range c.running {
		inst, ok := c.apps.Instance(j.ID)
		if !ok {
			continue
		}
		// Rate needs only the window's endpoints, so the progress series is
		// reduced during the visit instead of being copied out of the store.
		c.matches, c.n, c.rate = 0, 0, 0
		c.db.QueryVisit("app.progress", inst.Labels(), now-c.cfg.LeadTime, now, c.visit)
		if c.matches == 1 && c.n >= 2 {
			pts = append(pts, telemetry.Point{
				Name: "app.progress.rate", Labels: inst.Labels(), Time: now, Value: c.rate,
			})
		}
	}
	c.ptsBuf = pts
	obs.Points = pts
	return obs, nil
}

// foldProgress is the visitor observe reads each job's progress window
// through.
func (c *Controller) foldProgress(_ telemetry.Labels, samples []telemetry.Sample) {
	c.matches++
	c.n = len(samples)
	c.rate = tsdb.Rate(telemetry.Series{Samples: samples})
}

// analyze flags running jobs that will not finish before the window.
func (c *Controller) analyze(now time.Duration, obs core.Observation) (core.Symptoms, error) {
	sym := core.Symptoms{Time: now}
	var maintStart time.Duration
	for _, p := range obs.Points {
		if p.Name == "maint.next.start" {
			maintStart = time.Duration(p.Value * float64(time.Second))
		}
	}
	if maintStart == 0 || maintStart-now > c.cfg.LeadTime {
		return sym, nil // no window close enough to act on
	}
	rates := c.rates[:0]
	for _, p := range obs.Points {
		if p.Name == "app.progress.rate" {
			if id, err := strconv.Atoi(p.Labels["job"]); err == nil {
				rates = append(rates, jobRate{id: id, rate: p.Value})
			}
		}
	}
	c.rates = rates
	c.running = c.sch.RunningInto(c.running[:0])
	for _, j := range c.running {
		if c.handled[j.ID] {
			continue
		}
		finishBy := c.estimateEnd(now, j, rateOf(rates, j.ID))
		if finishBy+c.cfg.SafetyMargin < maintStart {
			continue // will finish on its own
		}
		sym.Findings = append(sym.Findings, core.Finding{
			Kind:       "job-hits-maintenance",
			Subject:    strconv.Itoa(j.ID),
			Value:      (maintStart - now).Seconds(),
			Confidence: 0.9,
			Detail: fmt.Sprintf("estimated completion %v vs maintenance at %v",
				finishBy.Truncate(time.Second), maintStart),
		})
	}
	return sym, nil
}

// rateOf returns the observed progress rate of job id, or 0 when it has
// none.
func rateOf(rates []jobRate, id int) float64 {
	for _, r := range rates {
		if r.id == id {
			return r.rate
		}
	}
	return 0
}

// estimateEnd projects a job's completion: progress-rate based when markers
// exist, otherwise pessimistically its deadline.
func (c *Controller) estimateEnd(now time.Duration, j *sched.Job, rate float64) time.Duration {
	inst, ok := c.apps.Instance(j.ID)
	if !ok || rate <= 0 {
		return j.Deadline
	}
	total, okT := c.db.LatestValue(inst.Handle("app.progress_total"))
	done, okD := c.db.LatestValue(inst.Handle("app.progress"))
	if okT && okD && total > done {
		return now + time.Duration((total-done)/rate*float64(time.Second))
	}
	return j.Deadline
}

// plan orders checkpoint-then-requeue for each endangered job.
func (c *Controller) plan(now time.Duration, sym core.Symptoms) (core.Plan, error) {
	plan := core.Plan{Time: now}
	for _, f := range sym.Findings {
		if f.Kind != "job-hits-maintenance" {
			continue
		}
		plan.Actions = append(plan.Actions, core.Action{
			Kind:        "checkpoint-requeue",
			Subject:     f.Subject,
			Confidence:  f.Confidence,
			Explanation: f.Detail,
		})
	}
	return plan, nil
}

// execute checkpoints the application and requeues the job once the
// checkpoint is durable.
func (c *Controller) execute(now time.Duration, a core.Action) (core.ActionResult, error) {
	if a.Kind != "checkpoint-requeue" {
		return core.ActionResult{}, fmt.Errorf("maintcase: unknown action %q", a.Kind)
	}
	id, err := strconv.Atoi(a.Subject)
	if err != nil {
		return core.ActionResult{}, fmt.Errorf("maintcase: bad subject %q", a.Subject)
	}
	inst, ok := c.apps.Instance(id)
	if !ok {
		return core.ActionResult{Action: a, Detail: "no instance"}, nil
	}
	c.handled[id] = true
	err = inst.RequestCheckpoint(func() {
		if err := c.sch.Requeue(id); err == nil {
			c.Preserved++
		}
	})
	if err != nil {
		return core.ActionResult{Action: a, Detail: err.Error()}, nil
	}
	return core.ActionResult{Action: a, Honored: true, Detail: "checkpoint+requeue scheduled"}, nil
}
