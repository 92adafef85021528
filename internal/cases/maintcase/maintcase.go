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
	"autoloop/internal/control"
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

// controller wires the maintenance MAPE loop.
type controller struct {
	cfg  Config
	db   telemetry.Querier
	sch  *sched.Scheduler
	apps *app.Runtime

	// handled remembers jobs already checkpoint-requeued for the upcoming
	// window, so one window triggers one response per job.
	handled map[int]bool

	// window is the round's reading of the next window within LeadTime,
	// shared by every maintenance loop of a Service with the same LeadTime;
	// observed is the tick's, from observe to analyze.
	window   *control.Reading
	observed *upcoming
	// running is Analyze scratch reused across ticks.
	running []*sched.Job
}

// newController builds the controller; Spawn has checked that db, sch and
// apps are present.
func newController(cfg Config, db telemetry.Querier, sch *sched.Scheduler, apps *app.Runtime) *controller {
	return &controller{
		cfg: cfg, db: db, sch: sch, apps: apps, handled: make(map[int]bool),
		window: control.NewReading(db, upcomingKey{sch: sch, apps: apps, lead: cfg.LeadTime}),
	}
}

// jobRate is one observed job's progress rate.
type jobRate struct {
	id   int
	rate float64
}

// loop assembles the core loop.
func (c *controller) loop() *core.Loop {
	return core.NewLoop("maintenance-case",
		core.MonitorFunc(c.observe),
		core.AnalyzerFunc(c.analyze),
		core.PlannerFunc(c.plan),
		core.ExecutorFunc(c.execute),
	)
}

// upcomingKey names the upcoming-window reading over one scheduler and
// application runtime for one lead time, which bounds both the window and
// the progress history read.
type upcomingKey struct {
	sch  *sched.Scheduler
	apps *app.Runtime
	lead time.Duration
}

// New implements control.ReadingKey.
func (k upcomingKey) New() control.ReadingValue {
	u := &upcoming{key: k}
	u.visit = u.foldProgress
	return u
}

// upcoming is the next maintenance window, when it opens within the lead
// time, and the progress rate of every running job with an instance and a
// progress window to read; start is zero when no window is that close.
// matches, n and rate fold one job's progress window through visit, which
// is bound once.
type upcoming struct {
	key     upcomingKey
	start   time.Duration
	rates   []jobRate
	running []*sched.Job
	visit   telemetry.SeriesVisitor
	matches int
	n       int
	rate    float64
}

// Read implements control.ReadingValue. A job's progress is read under its
// instance's label set; a job with no instance has no progress to read. The
// window start is taken as float seconds give it back, which can be a
// nanosecond short of a sub-second start; the decisions and their Details
// are pinned to that value.
func (u *upcoming) Read(q telemetry.Querier, now time.Duration) {
	k := u.key
	u.start, u.rates = 0, u.rates[:0]
	start, ok := k.sch.NextMaintenance(now)
	if !ok {
		return
	}
	start = time.Duration(start.Seconds() * float64(time.Second))
	if start == 0 || start-now > k.lead {
		return // no window close enough to act on
	}
	u.start = start
	u.running = k.sch.RunningInto(u.running[:0])
	for _, j := range u.running {
		inst, ok := k.apps.Instance(j.ID)
		if !ok {
			continue
		}
		// Rate needs only the window's endpoints, so the progress series is
		// reduced during the visit instead of being copied out of the store.
		u.matches, u.n, u.rate = 0, 0, 0
		q.QueryVisit("app.progress", inst.Labels(), now-k.lead, now, u.visit)
		if u.matches == 1 && u.n >= 2 {
			u.rates = append(u.rates, jobRate{id: j.ID, rate: u.rate})
		}
	}
}

// foldProgress is the visitor Read folds each job's progress window
// through.
func (u *upcoming) foldProgress(_ telemetry.Labels, samples []telemetry.Sample) {
	u.matches++
	u.n = len(samples)
	u.rate = tsdb.Rate(telemetry.Series{Samples: samples})
}

// observe takes the round's upcoming-window reading; the observation
// carries it outside Points.
func (c *controller) observe(now time.Duration) (core.Observation, error) {
	c.observed = c.window.Get(now).(*upcoming)
	return core.Observation{Time: now}, nil
}

// hitsReason explains a job-hits-maintenance finding; it is rendered only
// when the finding is read.
var hitsReason = core.NewReason("estimated completion %v vs maintenance at %v")

// analyze flags running jobs that will not finish before the window.
func (c *controller) analyze(now time.Duration, _ core.Observation) (core.Symptoms, error) {
	sym := core.Symptoms{Time: now}
	maintStart, rates := c.observed.start, c.observed.rates
	if maintStart == 0 {
		return sym, nil // no window close enough to act on
	}
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
			Detail:     hitsReason.With(float64(finishBy.Truncate(time.Second)), float64(maintStart)),
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
func (c *controller) estimateEnd(now time.Duration, j *sched.Job, rate float64) time.Duration {
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
func (c *controller) plan(now time.Duration, sym core.Symptoms) (core.Plan, error) {
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
func (c *controller) execute(now time.Duration, a core.Action) (core.ActionResult, error) {
	if a.Kind != "checkpoint-requeue" {
		return core.ActionResult{}, fmt.Errorf("maintcase: unknown action %q", a.Kind)
	}
	id, err := strconv.Atoi(a.Subject)
	if err != nil {
		return core.ActionResult{}, fmt.Errorf("maintcase: bad subject %q", a.Subject)
	}
	inst, ok := c.apps.Instance(id)
	if !ok {
		return core.ActionResult{Action: a, Detail: core.Text("no instance")}, nil
	}
	c.handled[id] = true
	// A job that ends while it checkpoints has nothing left to requeue.
	err = inst.RequestCheckpoint(func() { _ = c.sch.Requeue(id) })
	if err != nil {
		return core.ActionResult{Action: a, Detail: core.Text(err.Error())}, nil
	}
	return core.ActionResult{Action: a, Honored: true, Detail: core.Text("checkpoint+requeue scheduled")}, nil
}
