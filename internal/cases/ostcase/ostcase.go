// Package ostcase implements the paper's OST use case: "response by an
// application, from continuous evaluation of storage back-end write
// performance, to close files using a poorly performing OST ... The
// application would then reopen them using different OSTs".
//
// The loop continuously compares per-OST write latency across the fleet; a
// robust MAD outlier test (one slow OST among many healthy ones) yields a
// degraded-OST finding, the plan selects every running application whose
// file layout touches that OST, and the execute phase drives the
// application-side close/reopen hook.
package ostcase

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"autoloop/internal/analytics"
	"autoloop/internal/app"
	"autoloop/internal/control"
	"autoloop/internal/core"
	"autoloop/internal/sched"
	"autoloop/internal/telemetry"
)

// FleetPriority is the case's recommended arbitration priority under a
// fleet coordinator: storage avoidance is remedial but not safety-critical,
// so it yields to facility-domain loops on a shared subject.
const FleetPriority = 10

// Config tunes the OST loop.
type Config struct {
	// Threshold is the MAD multiple beyond which an OST is an outlier.
	Threshold float64
	// MinLatMS ignores idle OSTs (no meaningful latency signal).
	MinLatMS float64
	// Consecutive requires the outlier to persist this many ticks before
	// responding (debounce against transient queueing).
	Consecutive int
}

// DefaultConfig flags an OST after 2 consecutive observations beyond 4 MADs.
func DefaultConfig() Config {
	return Config{Threshold: 4, MinLatMS: 0.5, Consecutive: 2}
}

// controller wires the OST MAPE loop.
type controller struct {
	cfg  Config
	sch  *sched.Scheduler
	apps *app.Runtime

	streak map[int]int // consecutive outlier observations per OST
	// avoided remembers OSTs already being avoided.
	avoided map[int]bool

	// fleet is the round's per-OST latency reading, shared by every OST
	// loop of a Service; observed is the tick's, from observe to analyze.
	fleet    *control.Reading
	observed *ostLats
	// ids/lats are the per-tick scratch of the busy OSTs the outlier test
	// runs on, and outliers the set of those it flags.
	ids      []int
	lats     []float64
	outliers map[int]bool
	// running is the plan phase's running-job scratch, refilled per
	// finding.
	running []*sched.Job
	// subjects holds each OST's finding subject, "ost%02d", formatted the
	// first time the OST is flagged.
	subjects map[int]string
}

// newController builds the controller; Spawn has checked that db, sch and
// apps are present.
func newController(cfg Config, db telemetry.Querier, sch *sched.Scheduler, apps *app.Runtime) *controller {
	if cfg.Consecutive < 1 {
		cfg.Consecutive = 1
	}
	return &controller{
		cfg: cfg, sch: sch, apps: apps,
		streak: make(map[int]int), avoided: make(map[int]bool), subjects: make(map[int]string),
		outliers: make(map[int]bool), fleet: control.NewReading(db, ostLatsKey{}),
	}
}

// ostLat is one OST's newest write latency.
type ostLat struct {
	id  int
	lat float64
}

// ostLats is every OST's newest write latency, in label order, with its id
// parsed. pts is the read's scratch.
type ostLats struct {
	osts []ostLat
	pts  []telemetry.Point
}

// ostLatsKey names the per-OST latency reading: config-free, so every OST
// loop shares one; the MinLatMS filter is each loop's own.
type ostLatsKey struct{}

// New implements control.ReadingKey.
func (ostLatsKey) New() control.ReadingValue { return new(ostLats) }

// Read implements control.ReadingValue.
func (o *ostLats) Read(q telemetry.Querier, _ time.Duration) {
	o.pts = q.LatestInto(o.pts[:0], "pfs.ost.lat_ms", nil)
	o.osts = o.osts[:0]
	for _, p := range o.pts {
		id, err := strconv.Atoi(strings.TrimPrefix(p.Labels["ost"], "ost"))
		if err != nil {
			continue
		}
		o.osts = append(o.osts, ostLat{id: id, lat: p.Value})
	}
}

// loop assembles the core loop.
func (c *controller) loop() *core.Loop {
	return core.NewLoop("ost-case",
		core.MonitorFunc(c.observe),
		core.AnalyzerFunc(c.analyze),
		core.PlannerFunc(c.plan),
		core.ExecutorFunc(c.execute),
	)
}

// observe takes the round's per-OST latency reading; the observation
// carries it outside Points.
func (c *controller) observe(now time.Duration) (core.Observation, error) {
	c.observed = c.fleet.Get(now).(*ostLats)
	return core.Observation{Time: now}, nil
}

// The case's reasons, rendered only when read. The explanation repeats the
// finding's subject and detail, so it takes the finding's arguments too.
var (
	degradedReason = core.NewReason("write latency %.1fms is a %d-tick high outlier across %d busy OSTs")
	reopenReason   = core.NewReason("job %d stripes over degraded ost%02d: write latency %.1fms is a %d-tick high outlier across %d busy OSTs")
)

// subject returns OST id's finding subject.
func (c *controller) subject(id int) string {
	s, ok := c.subjects[id]
	if !ok {
		s = fmt.Sprintf("ost%02d", id)
		c.subjects[id] = s
	}
	return s
}

// analyze runs the fleet outlier test on busy OSTs.
func (c *controller) analyze(now time.Duration, _ core.Observation) (core.Symptoms, error) {
	sym := core.Symptoms{Time: now}
	ids := c.ids[:0]
	lats := c.lats[:0]
	for _, o := range c.observed.osts {
		if o.lat < c.cfg.MinLatMS {
			continue
		}
		ids = append(ids, o.id)
		lats = append(lats, o.lat)
	}
	c.ids, c.lats = ids, lats
	clear(c.outliers)
	for _, idx := range analytics.MADOutliers(lats, c.cfg.Threshold, 1) {
		c.outliers[ids[idx]] = true
	}
	for _, id := range ids {
		if c.outliers[id] {
			c.streak[id]++
		} else {
			c.streak[id] = 0
		}
	}
	for i, id := range ids {
		if c.streak[id] >= c.cfg.Consecutive && !c.avoided[id] {
			sym.Findings = append(sym.Findings, core.Finding{
				Kind:       "ost-degraded",
				Subject:    c.subject(id),
				Value:      lats[i],
				Confidence: 0.9,
				Detail:     degradedReason.With(lats[i], float64(c.streak[id]), float64(len(ids))),
			})
		}
	}
	return sym, nil
}

// plan targets every running application whose file layout includes the
// degraded OST. It runs in the tick analyze ran in, so c.streak and c.ids
// still hold the streak and busy count the finding's detail was given.
func (c *controller) plan(now time.Duration, sym core.Symptoms) (core.Plan, error) {
	plan := core.Plan{Time: now}
	for _, f := range sym.Findings {
		if f.Kind != "ost-degraded" {
			continue
		}
		ostID, err := strconv.Atoi(strings.TrimPrefix(f.Subject, "ost"))
		if err != nil {
			continue
		}
		c.running = c.sch.RunningInto(c.running[:0])
		for _, j := range c.running {
			inst, ok := c.apps.Instance(j.ID)
			if !ok || inst.File() == nil {
				continue
			}
			if !inst.File().StripesOver(ostID) {
				continue
			}
			plan.Actions = append(plan.Actions, core.Action{
				Kind:       "reopen-avoiding",
				Subject:    strconv.Itoa(j.ID),
				Amount:     float64(ostID),
				Confidence: f.Confidence,
				Explanation: reopenReason.With(float64(j.ID), float64(ostID), f.Value,
					float64(c.streak[ostID]), float64(len(c.ids))),
			})
		}
		// Mark the OST handled even when no job currently stripes over it,
		// so new layouts steer clear via the planner's avoided set.
		c.avoided[ostID] = true
	}
	return plan, nil
}

// execute drives the application's close/reopen hook.
func (c *controller) execute(now time.Duration, a core.Action) (core.ActionResult, error) {
	if a.Kind != "reopen-avoiding" {
		return core.ActionResult{}, fmt.Errorf("ostcase: unknown action %q", a.Kind)
	}
	id, err := strconv.Atoi(a.Subject)
	if err != nil {
		return core.ActionResult{}, fmt.Errorf("ostcase: bad subject %q", a.Subject)
	}
	inst, ok := c.apps.Instance(id)
	if !ok {
		return core.ActionResult{Action: a, Detail: core.Text("no instance")}, nil
	}
	if err := inst.ReopenAvoiding(int(a.Amount)); err != nil {
		return core.ActionResult{Action: a, Detail: core.Text(err.Error())}, nil
	}
	return core.ActionResult{Action: a, Honored: true, Granted: a.Amount, Detail: core.Text("file reopened on healthy OSTs")}, nil
}
