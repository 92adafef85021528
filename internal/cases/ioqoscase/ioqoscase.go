// Package ioqoscase implements the paper's I/O QoS use case: "refinement of
// a storage system whose users receive QoS allocations through the use of
// MAPE-K loops of decreasing size and increasing automation ... to adapt QoS
// parameters based on the current application performance and system I/O
// load to decrease interference, reduce tail latency, and provide more
// consistent results for deadline dependent workflows".
//
// The implementation is the hierarchical Fig. 2(d) pattern: a slow *campaign*
// parent loop observes global latency and decides per-tenant rate
// allocations, publishing them as setpoints on the shared Knowledge fact
// blackboard; fast per-tenant child loops enact their setpoint on the
// filesystem's token-bucket actuators. Separation of time scales keeps the
// fast layer responsive without the global layer thrashing.
package ioqoscase

import (
	"fmt"
	"math"
	"time"

	"autoloop/internal/core"
	"autoloop/internal/knowledge"
	"autoloop/internal/pfs"
	"autoloop/internal/telemetry"
)

// Tenant describes one QoS tenant.
type Tenant struct {
	Name string
	// Priority weights the parent's allocation (deadline workflows high).
	Priority float64
	// TargetLatMS is the tenant's tail-latency objective; zero means
	// best-effort.
	TargetLatMS float64
}

// Config tunes the hierarchy.
type Config struct {
	Tenants []Tenant
	// CapacityMBps is the aggregate bandwidth the parent may allocate.
	CapacityMBps float64
	// MinShareMBps floors any tenant's allocation.
	MinShareMBps float64
	// ThrottleFactor shrinks an offender's allocation per violation tick.
	ThrottleFactor float64
	// RecoverFactor regrows throttled allocations when latencies are healthy.
	RecoverFactor float64
}

// DefaultConfig returns a config for the standard experiment topology.
func DefaultConfig(tenants []Tenant, capacityMBps float64) Config {
	return Config{
		Tenants:        tenants,
		CapacityMBps:   capacityMBps,
		MinShareMBps:   10,
		ThrottleFactor: 0.6,
		RecoverFactor:  1.15,
	}
}

// factKey names a tenant's allocation setpoint on the Knowledge blackboard.
func factKey(tenant string) string { return "ioqos.alloc_mbps." + tenant }

// Controller wires the hierarchical QoS loops.
type Controller struct {
	cfg Config
	db  telemetry.Querier
	fs  *pfs.FS
	kb  *knowledge.Base

	// alloc mirrors the blackboard for quick reads.
	alloc map[string]float64
	// violAlloc remembers, per best-effort tenant, the allocation in force
	// when a latency violation last occurred — Knowledge that caps recovery
	// probing below the level that caused trouble.
	violAlloc map[string]float64

	// Violations counts parent-observed latency violations (experiment
	// metric).
	Violations int
}

// New builds the controller and seeds fair-share allocations.
func New(cfg Config, db telemetry.Querier, fs *pfs.FS, kb *knowledge.Base) *Controller {
	if db == nil || fs == nil || kb == nil {
		panic("ioqoscase: nil dependency")
	}
	if len(cfg.Tenants) == 0 {
		panic("ioqoscase: no tenants")
	}
	c := &Controller{
		cfg: cfg, db: db, fs: fs, kb: kb,
		alloc: make(map[string]float64), violAlloc: make(map[string]float64),
	}
	var wsum float64
	for _, t := range cfg.Tenants {
		wsum += math.Max(t.Priority, 0.01)
	}
	for _, t := range cfg.Tenants {
		share := cfg.CapacityMBps * math.Max(t.Priority, 0.01) / wsum
		c.setAlloc(t.Name, share)
	}
	return c
}

func (c *Controller) setAlloc(tenant string, mbps float64) {
	if mbps < c.cfg.MinShareMBps {
		mbps = c.cfg.MinShareMBps
	}
	if mbps > c.cfg.CapacityMBps {
		mbps = c.cfg.CapacityMBps
	}
	c.alloc[tenant] = mbps
	c.kb.SetFact(factKey(tenant), mbps)
}

// Hierarchy assembles the full pattern: one fast child loop per tenant plus
// the slow campaign parent, with the parent ticking once per parentEvery
// child ticks.
func (c *Controller) Hierarchy(parentEvery int) *core.Hierarchical {
	var children []*core.Loop
	for _, t := range c.cfg.Tenants {
		children = append(children, c.childLoop(t))
	}
	return core.NewHierarchical("ioqos", c.parentLoop(), children, parentEvery)
}

// childLoop enacts the tenant's setpoint: monitor the blackboard and the
// live bucket, plan a change when they diverge, execute SetQoS.
func (c *Controller) childLoop(t Tenant) *core.Loop {
	name := "ioqos-child-" + t.Name
	monitor := core.MonitorFunc(func(now time.Duration) (core.Observation, error) {
		obs := core.Observation{Time: now}
		setpoint, ok := c.kb.Fact(factKey(t.Name))
		if !ok {
			return obs, nil
		}
		rate, _, limited := c.fs.QoS(t.Name)
		if !limited {
			rate = -1 // sentinel: no bucket installed yet
		}
		obs.Points = append(obs.Points,
			telemetry.Point{Name: "ioqos.setpoint", Labels: telemetry.Labels{"tenant": t.Name}, Time: now, Value: setpoint},
			telemetry.Point{Name: "ioqos.current", Labels: telemetry.Labels{"tenant": t.Name}, Time: now, Value: rate},
		)
		return obs, nil
	})
	analyzer := core.AnalyzerFunc(func(now time.Duration, obs core.Observation) (core.Symptoms, error) {
		sym := core.Symptoms{Time: now}
		var setpoint, current float64
		seen := false
		for _, p := range obs.Points {
			switch p.Name {
			case "ioqos.setpoint":
				setpoint, seen = p.Value, true
			case "ioqos.current":
				current = p.Value
			}
		}
		if !seen {
			return sym, nil
		}
		if current < 0 || math.Abs(current-setpoint) > 0.01*setpoint {
			sym.Findings = append(sym.Findings, core.Finding{
				Kind: "qos-divergence", Subject: t.Name, Value: setpoint, Confidence: 1,
				Detail: fmt.Sprintf("bucket %.1f MB/s vs setpoint %.1f MB/s", current, setpoint),
			})
		}
		return sym, nil
	})
	planner := core.PlannerFunc(func(now time.Duration, sym core.Symptoms) (core.Plan, error) {
		plan := core.Plan{Time: now}
		for _, f := range sym.Findings {
			if f.Kind != "qos-divergence" {
				continue
			}
			plan.Actions = append(plan.Actions, core.Action{
				Kind: "set-qos", Subject: f.Subject, Amount: f.Value, Confidence: 1,
				Explanation: f.Detail,
			})
		}
		return plan, nil
	})
	executor := core.ExecutorFunc(func(now time.Duration, a core.Action) (core.ActionResult, error) {
		if a.Kind != "set-qos" {
			return core.ActionResult{}, fmt.Errorf("ioqoscase: unknown action %q", a.Kind)
		}
		c.fs.SetQoS(a.Subject, a.Amount, a.Amount*2) // burst = 2s of rate
		return core.ActionResult{Action: a, Honored: true, Granted: a.Amount}, nil
	})
	l := core.NewLoop(name, monitor, analyzer, planner, executor)
	l.K = c.kb
	return l
}

// parentLoop is the slow campaign loop: it watches per-tenant latency
// against objectives and reallocates bandwidth — throttling best-effort
// offenders when a deadline tenant suffers, and regrowing them when healthy.
func (c *Controller) parentLoop() *core.Loop {
	// The monitor fills one buffer, reused across ticks, through the
	// zero-copy LatestInto surface (the loop drops observations after
	// Analyze, so the backing array is safe to recycle).
	var ptsBuf []telemetry.Point
	monitor := core.MonitorFunc(func(now time.Duration) (core.Observation, error) {
		obs := core.Observation{Time: now}
		ptsBuf = c.db.LatestInto(ptsBuf[:0], "pfs.tenant.lat_ms", nil)
		ptsBuf = c.db.LatestInto(ptsBuf, "pfs.tenant.mbps", nil)
		obs.Points = ptsBuf
		return obs, nil
	})
	analyzer := core.AnalyzerFunc(func(now time.Duration, obs core.Observation) (core.Symptoms, error) {
		sym := core.Symptoms{Time: now}
		lat := map[string]float64{}
		for _, p := range obs.Points {
			if p.Name == "pfs.tenant.lat_ms" {
				lat[p.Labels["tenant"]] = p.Value
			}
		}
		anyViolation := false
		for _, t := range c.cfg.Tenants {
			if t.TargetLatMS <= 0 {
				continue
			}
			observed, ok := lat[t.Name]
			if !ok {
				continue
			}
			if observed > t.TargetLatMS {
				anyViolation = true
				c.Violations++
				sym.Findings = append(sym.Findings, core.Finding{
					Kind: "latency-violation", Subject: t.Name, Value: observed, Confidence: 0.9,
					Detail: fmt.Sprintf("latency %.1fms exceeds objective %.1fms", observed, t.TargetLatMS),
				})
			}
		}
		if !anyViolation {
			sym.Findings = append(sym.Findings, core.Finding{
				Kind: "headroom", Subject: "*", Value: 1, Confidence: 0.9,
				Detail: "all latency objectives met",
			})
		}
		return sym, nil
	})
	planner := core.PlannerFunc(func(now time.Duration, sym core.Symptoms) (core.Plan, error) {
		plan := core.Plan{Time: now}
		violation := false
		for _, f := range sym.Findings {
			if f.Kind == "latency-violation" {
				violation = true
			}
		}
		for _, t := range c.cfg.Tenants {
			cur := c.alloc[t.Name]
			var next float64
			switch {
			case violation && t.TargetLatMS <= 0:
				// Best-effort tenants absorb the squeeze; remember the level
				// that proved too aggressive.
				c.violAlloc[t.Name] = cur
				next = cur * c.cfg.ThrottleFactor
			case !violation && t.TargetLatMS <= 0:
				next = cur * c.cfg.RecoverFactor
				// Knowledge-capped recovery: stay below the allocation that
				// last caused a violation instead of probing back into it.
				// The memory decays while the system stays healthy, so a
				// vanished interferer eventually gets its bandwidth back.
				if bad, ok := c.violAlloc[t.Name]; ok {
					c.violAlloc[t.Name] = bad * 1.05
					if next > 0.8*bad {
						next = 0.8 * bad
					}
				}
			default:
				continue // objective tenants keep their allocation
			}
			if math.Abs(next-cur) < 0.01*cur {
				continue
			}
			verb := "throttle"
			if next > cur {
				verb = "recover"
			}
			plan.Actions = append(plan.Actions, core.Action{
				Kind: "set-allocation", Subject: t.Name, Amount: next, Confidence: 0.9,
				Explanation: fmt.Sprintf("%s best-effort tenant %s: %.1f -> %.1f MB/s", verb, t.Name, cur, next),
			})
		}
		return plan, nil
	})
	executor := core.ExecutorFunc(func(now time.Duration, a core.Action) (core.ActionResult, error) {
		if a.Kind != "set-allocation" {
			return core.ActionResult{}, fmt.Errorf("ioqoscase: unknown action %q", a.Kind)
		}
		c.setAlloc(a.Subject, a.Amount)
		return core.ActionResult{Action: a, Honored: true, Granted: c.alloc[a.Subject]}, nil
	})
	l := core.NewLoop("ioqos-campaign", monitor, analyzer, planner, executor)
	l.K = c.kb
	return l
}
