// Package misconfcase implements the paper's Misconfiguration use case:
// "detection of misconfiguration of user jobs such as unintended mismatch of
// threads to cores, underutilization of CPUs or GPUs, or wrong library
// search paths. Depending on the type of misconfiguration, users could
// either be informed about their mistake along with suggestions for better
// configurations, or the misconfiguration could be corrected on the fly."
//
// Detection is rule-plus-statistics over application and node telemetry:
// a context-switch storm indicates thread oversubscription, a loader warning
// indicates a wrong library path, and a bimodal utilization split across the
// allocation indicates underutilization. The response policy decides per
// type: threads and library issues are corrected on the fly; allocation
// shape cannot be changed mid-run, so the user is notified with a concrete
// suggestion.
package misconfcase

import (
	"fmt"
	"strconv"
	"time"

	"autoloop/internal/app"
	"autoloop/internal/control"
	"autoloop/internal/core"
	"autoloop/internal/hw"
	"autoloop/internal/sched"
	"autoloop/internal/telemetry"
)

// Config tunes detection.
type Config struct {
	// CtxSwitchStorm is the context-switch rate above which threads are
	// considered oversubscribed.
	CtxSwitchStorm float64
	// IdleUtil is the utilization below which an allocated node counts as
	// idle.
	IdleUtil float64
	// BusyUtil is the utilization above which a node counts as working.
	BusyUtil float64
	// Consecutive debounces each detector.
	Consecutive int
	// FixOnTheFly corrects thread/library issues instead of only notifying.
	FixOnTheFly bool
	// WarmupAfterStart ignores jobs younger than this (startup transients).
	WarmupAfterStart time.Duration
}

// DefaultConfig returns production-shaped thresholds.
func DefaultConfig() Config {
	return Config{
		CtxSwitchStorm:   20000,
		IdleUtil:         0.05,
		BusyUtil:         0.5,
		Consecutive:      2,
		FixOnTheFly:      true,
		WarmupAfterStart: 2 * time.Minute,
	}
}

// Detection records one confirmed misconfiguration finding (experiment
// ground-truth comparison).
type Detection struct {
	JobID int
	Kind  app.Misconfig
	At    time.Duration
}

// Controller wires the misconfiguration MAPE loop.
type Controller struct {
	cfg  Config
	sch  *sched.Scheduler
	apps *app.Runtime

	// streaks counts, per warm job not yet flagged, the consecutive ticks
	// each kind was classified (index kind-1). flagged holds each flagged
	// job's finding. A job leaves both once the scheduler reports it
	// terminal (forget), so they stay bounded by the running set.
	streaks map[int][3]int
	flagged map[int]app.Misconfig

	// fleet is the round's running-job reading, shared by every
	// misconfiguration loop of a Service; observed is the tick's, from
	// observe to analyze.
	fleet    *control.Reading
	observed *jobsReading

	// Detections lists confirmed findings in order (experiment metric).
	Detections []Detection
	// Notifications counts user notifications sent.
	Notifications int
	// Fixes counts on-the-fly corrections applied.
	Fixes int
}

// New builds the controller. cl may be nil when node telemetry is
// unavailable (underutilization detection is then disabled).
func New(cfg Config, db telemetry.Querier, sch *sched.Scheduler, apps *app.Runtime, cl *hw.Cluster) *Controller {
	if db == nil || sch == nil || apps == nil {
		panic("misconfcase: nil dependency")
	}
	if cfg.Consecutive < 1 {
		cfg.Consecutive = 1
	}
	return &Controller{
		cfg: cfg, sch: sch, apps: apps,
		streaks: make(map[int][3]int),
		flagged: make(map[int]app.Misconfig),
		fleet:   control.NewReading(db, jobsKey{sch: sch, apps: apps, cl: cl}),
	}
}

// Loop assembles the core loop.
func (c *Controller) Loop() *core.Loop {
	return core.NewLoop("misconfig-case",
		core.MonitorFunc(c.observe),
		core.AnalyzerFunc(c.analyze),
		core.PlannerFunc(c.plan),
		core.ExecutorFunc(c.execute),
	)
}

// runningJob is one running job's telemetry in the jobs reading: its
// context-switch rate and loader warning, when its instance reports them,
// and its allocation's utilizations, utils[from:to] of the reading.
type runningJob struct {
	id       int
	start    time.Duration
	ctx      float64
	hasCtx   bool
	libWarn  bool
	from, to int
}

// jobsKey names the running-job reading over one scheduler, application
// runtime and (optional) cluster. It carries no config: the warm-up filter,
// the thresholds and classify are each loop's own.
type jobsKey struct {
	sch  *sched.Scheduler
	apps *app.Runtime
	cl   *hw.Cluster
}

// New implements control.ReadingKey.
func (k jobsKey) New() control.ReadingValue { return &jobsReading{key: k} }

// jobsReading is every running job with telemetry to read, in running
// order. running is the read's scratch.
type jobsReading struct {
	key     jobsKey
	jobs    []runningJob
	utils   []float64
	running []*sched.Job
}

// Read implements control.ReadingValue. A job's application metrics are
// read through its instance's handles; a running job with no instance has
// no application telemetry to read, only its allocation's utilization. A
// job with neither is left out.
func (r *jobsReading) Read(q telemetry.Querier, _ time.Duration) {
	k := r.key
	r.jobs, r.utils = r.jobs[:0], r.utils[:0]
	r.running = k.sch.RunningInto(r.running[:0])
	for _, j := range r.running {
		jr := runningJob{id: j.ID, start: j.Start, from: len(r.utils)}
		hasLib := false
		if inst, ok := k.apps.Instance(j.ID); ok {
			jr.ctx, jr.hasCtx = q.LatestValue(inst.Handle("app.ctx_switch_rate"))
			lib, ok := q.LatestValue(inst.Handle("app.lib_warn"))
			jr.libWarn, hasLib = lib > 0, ok
		}
		if k.cl != nil {
			for _, n := range j.AssignedNodes {
				r.utils = append(r.utils, k.cl.Util(n))
			}
		}
		jr.to = len(r.utils)
		if jr.hasCtx || hasLib || jr.to > jr.from {
			r.jobs = append(r.jobs, jr)
		}
	}
}

// observe takes the round's running-job reading; the observation carries
// it outside Points.
func (c *Controller) observe(now time.Duration) (core.Observation, error) {
	c.observed = c.fleet.Get(now).(*jobsReading)
	return core.Observation{Time: now}, nil
}

// analyze classifies misconfigurations per job past warm-up, with
// debouncing, in running order.
func (c *Controller) analyze(now time.Duration, _ core.Observation) (core.Symptoms, error) {
	sym := core.Symptoms{Time: now}
	rd := c.observed
	warm := 0
	for i := range rd.jobs {
		jr := &rd.jobs[i]
		if now-jr.start < c.cfg.WarmupAfterStart {
			continue
		}
		warm++
		if _, done := c.flagged[jr.id]; done {
			continue
		}
		kind := c.classify(jr, rd.utils[jr.from:jr.to])
		streak := c.streaks[jr.id]
		for m := range streak {
			if app.Misconfig(m+1) == kind {
				streak[m]++
			} else {
				streak[m] = 0
			}
		}
		if kind == app.MisconfigNone || streak[kind-1] < c.cfg.Consecutive {
			c.streaks[jr.id] = streak
			continue
		}
		// A flagged job is never classified again: its streak is done.
		delete(c.streaks, jr.id)
		c.flagged[jr.id] = kind
		c.Detections = append(c.Detections, Detection{JobID: jr.id, Kind: kind, At: now})
		sym.Findings = append(sym.Findings, core.Finding{
			Kind:       "misconfig-" + kind.String(),
			Subject:    strconv.Itoa(jr.id),
			Value:      float64(kind),
			Confidence: 0.85,
			Detail:     core.Text(explain(kind)),
		})
	}
	// Every warm job of the round now holds exactly one entry, so more
	// entries than warm jobs means some job has left the round since it
	// was classified: only then is there anything to forget.
	if len(c.streaks)+len(c.flagged) > warm {
		c.forget()
	}
	return sym, nil
}

// forget drops the entries of jobs the scheduler reports terminal. A job
// missing from a round is not forgotten for that alone: Requeue returns a
// running job to the queue, and it runs again under the same ID.
func (c *Controller) forget() {
	for id := range c.streaks {
		if c.ended(id) {
			delete(c.streaks, id)
		}
	}
	for id := range c.flagged {
		if c.ended(id) {
			delete(c.flagged, id)
		}
	}
}

// ended reports whether the scheduler reports the job terminal.
func (c *Controller) ended(id int) bool {
	j, ok := c.sch.Job(id)
	return !ok || j.State.Terminal()
}

// classify applies the detection rules to one job's observation. Rule order
// matters: an explicit loader warning is the most specific signal, a
// context-switch storm next, and the utilization split last (it can be a
// side effect of the other two).
func (c *Controller) classify(jr *runningJob, utils []float64) app.Misconfig {
	if jr.libWarn {
		return app.MisconfigWrongLib
	}
	if jr.hasCtx && jr.ctx > c.cfg.CtxSwitchStorm {
		return app.MisconfigThreads
	}
	idle, busy := 0, 0
	for _, u := range utils {
		switch {
		case u < c.cfg.IdleUtil:
			idle++
		case u > c.cfg.BusyUtil:
			busy++
		}
	}
	if len(utils) >= 2 && idle > 0 && busy > 0 && idle+busy == len(utils) {
		return app.MisconfigUnderutil
	}
	return app.MisconfigNone
}

// explain renders a user-facing diagnosis.
func explain(kind app.Misconfig) string {
	switch kind {
	case app.MisconfigThreads:
		return "context-switch storm indicates more threads than cores; suggest OMP_NUM_THREADS=cores"
	case app.MisconfigWrongLib:
		return "loader warning indicates an unoptimized library on LD_LIBRARY_PATH"
	case app.MisconfigUnderutil:
		return "half the allocated nodes are idle; suggest requesting fewer nodes"
	}
	return ""
}

// plan maps each finding to fix-on-the-fly or notify-user per policy.
func (c *Controller) plan(now time.Duration, sym core.Symptoms) (core.Plan, error) {
	plan := core.Plan{Time: now}
	for _, f := range sym.Findings {
		kind := app.Misconfig(int(f.Value))
		fixable := kind == app.MisconfigThreads || kind == app.MisconfigWrongLib
		if c.cfg.FixOnTheFly && fixable {
			plan.Actions = append(plan.Actions, core.Action{
				Kind: "fix-misconfig", Subject: f.Subject, Amount: f.Value,
				Confidence: f.Confidence, Explanation: f.Detail,
			})
			continue
		}
		plan.Actions = append(plan.Actions, core.Action{
			Kind: "notify-user", Subject: f.Subject, Amount: f.Value,
			Confidence: f.Confidence, Explanation: f.Detail,
		})
	}
	return plan, nil
}

// execute applies the fix or records the notification.
func (c *Controller) execute(now time.Duration, a core.Action) (core.ActionResult, error) {
	id, err := strconv.Atoi(a.Subject)
	if err != nil {
		return core.ActionResult{}, fmt.Errorf("misconfcase: bad subject %q", a.Subject)
	}
	switch a.Kind {
	case "fix-misconfig":
		inst, ok := c.apps.Instance(id)
		if !ok {
			return core.ActionResult{Action: a, Detail: core.Text("no instance")}, nil
		}
		if err := inst.FixMisconfig(); err != nil {
			return core.ActionResult{Action: a, Detail: core.Text(err.Error())}, nil
		}
		c.Fixes++
		return core.ActionResult{Action: a, Honored: true, Detail: core.Text("corrected on the fly")}, nil
	case "notify-user":
		c.Notifications++
		return core.ActionResult{Action: a, Honored: true, Detail: core.Text("user notified: " + a.Explanation.String())}, nil
	default:
		return core.ActionResult{}, fmt.Errorf("misconfcase: unknown action %q", a.Kind)
	}
}
