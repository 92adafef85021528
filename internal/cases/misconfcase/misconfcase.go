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
	db   telemetry.Querier
	sch  *sched.Scheduler
	apps *app.Runtime
	cl   *hw.Cluster

	// streaks counts, per job, the consecutive ticks each kind was
	// classified (index kind-1).
	streaks map[int][3]int
	flagged map[int]app.Misconfig

	// running, ptsBuf and jobs are Monitor and Analyze scratch reused across
	// ticks: the loop drops each observation after Analyze.
	running []*sched.Job
	ptsBuf  []telemetry.Point
	jobs    []jobObs

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
		cfg: cfg, db: db, sch: sch, apps: apps, cl: cl,
		streaks: make(map[int][3]int),
		flagged: make(map[int]app.Misconfig),
	}
}

// Flagged returns the confirmed misconfiguration for a job, if any.
func (c *Controller) Flagged(jobID int) (app.Misconfig, bool) {
	m, ok := c.flagged[jobID]
	return m, ok
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

// observe gathers per-job context-switch rates, loader warnings, and
// per-node utilization of each allocation. A job's application metrics are
// read through its instance's handles, and every point of a job carries the
// instance's label set. A running job with no instance has no application
// telemetry to read; its utilization points carry {job} alone.
func (c *Controller) observe(now time.Duration) (core.Observation, error) {
	pts := c.ptsBuf[:0]
	c.running = c.sch.RunningInto(c.running[:0])
	for _, j := range c.running {
		if now-j.Start < c.cfg.WarmupAfterStart {
			continue
		}
		var labels telemetry.Labels
		if inst, ok := c.apps.Instance(j.ID); ok {
			labels = inst.Labels()
			if v, ok := c.db.LatestValue(inst.Handle("app.ctx_switch_rate")); ok {
				pts = append(pts, telemetry.Point{Name: "app.ctx_switch_rate", Labels: labels, Time: now, Value: v})
			}
			if v, ok := c.db.LatestValue(inst.Handle("app.lib_warn")); ok {
				pts = append(pts, telemetry.Point{Name: "app.lib_warn", Labels: labels, Time: now, Value: v})
			}
		} else {
			labels = telemetry.Labels{"job": strconv.Itoa(j.ID)}
		}
		if c.cl != nil {
			for _, n := range j.AssignedNodes {
				pts = append(pts, telemetry.Point{Name: "node.cpu.util", Labels: labels, Time: now, Value: c.cl.Util(n)})
			}
		}
	}
	c.ptsBuf = pts
	return core.Observation{Time: now, Points: pts}, nil
}

// jobObs folds one job's telemetry for a single analysis pass.
type jobObs struct {
	// key is the job label of the job's points; id is its parsed form.
	key     string
	id      int
	ctx     float64
	hasCtx  bool
	libWarn bool
	// n counts the allocation's nodes; idle and busy those below IdleUtil
	// and above BusyUtil.
	n, idle, busy int
}

// analyze classifies misconfigurations per job with debouncing, in the
// order the jobs were observed. Points are folded by their job label, which
// is parsed only where it changes: a job's points arrive together.
func (c *Controller) analyze(now time.Duration, obs core.Observation) (core.Symptoms, error) {
	sym := core.Symptoms{Time: now}
	jobs := c.jobs[:0]
	var jo *jobObs
	for _, p := range obs.Points {
		if key := p.Labels["job"]; jo == nil || key != jo.key {
			id, err := strconv.Atoi(key)
			if err != nil {
				jo = nil
				continue
			}
			i := len(jobs) - 1
			for i >= 0 && jobs[i].id != id {
				i--
			}
			if i < 0 {
				jobs = append(jobs, jobObs{key: key, id: id})
				i = len(jobs) - 1
			}
			jo = &jobs[i]
		}
		switch p.Name {
		case "app.ctx_switch_rate":
			jo.ctx, jo.hasCtx = p.Value, true
		case "app.lib_warn":
			jo.libWarn = p.Value > 0
		case "node.cpu.util":
			jo.n++
			switch {
			case p.Value < c.cfg.IdleUtil:
				jo.idle++
			case p.Value > c.cfg.BusyUtil:
				jo.busy++
			}
		}
	}
	c.jobs = jobs
	for i := range jobs {
		jo := &jobs[i]
		if _, done := c.flagged[jo.id]; done {
			continue
		}
		kind := c.classify(jo)
		streak := c.streaks[jo.id]
		for m := range streak {
			if app.Misconfig(m+1) == kind {
				streak[m]++
			} else {
				streak[m] = 0
			}
		}
		c.streaks[jo.id] = streak
		if kind == app.MisconfigNone || streak[kind-1] < c.cfg.Consecutive {
			continue
		}
		c.flagged[jo.id] = kind
		c.Detections = append(c.Detections, Detection{JobID: jo.id, Kind: kind, At: now})
		sym.Findings = append(sym.Findings, core.Finding{
			Kind:       "misconfig-" + kind.String(),
			Subject:    strconv.Itoa(jo.id),
			Value:      float64(kind),
			Confidence: 0.85,
			Detail:     explain(kind),
		})
	}
	return sym, nil
}

// classify applies the detection rules to one job's observation. Rule order
// matters: an explicit loader warning is the most specific signal, a
// context-switch storm next, and the utilization split last (it can be a
// side effect of the other two).
func (c *Controller) classify(jo *jobObs) app.Misconfig {
	if jo.libWarn {
		return app.MisconfigWrongLib
	}
	if jo.hasCtx && jo.ctx > c.cfg.CtxSwitchStorm {
		return app.MisconfigThreads
	}
	if jo.n >= 2 && jo.idle > 0 && jo.busy > 0 && jo.idle+jo.busy == jo.n {
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
			return core.ActionResult{Action: a, Detail: "no instance"}, nil
		}
		if err := inst.FixMisconfig(); err != nil {
			return core.ActionResult{Action: a, Detail: err.Error()}, nil
		}
		c.Fixes++
		return core.ActionResult{Action: a, Honored: true, Detail: "corrected on the fly"}, nil
	case "notify-user":
		c.Notifications++
		return core.ActionResult{Action: a, Honored: true, Detail: "user notified: " + a.Explanation}, nil
	default:
		return core.ActionResult{}, fmt.Errorf("misconfcase: unknown action %q", a.Kind)
	}
}
