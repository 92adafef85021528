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
	"strings"
	"time"

	"autoloop/internal/control"
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

// tenantNames is what the controller writes and says about one tenant,
// built once in newController: its allocation setpoint's key on the
// Knowledge blackboard, and the campaign's reasons for moving that
// allocation.
type tenantNames struct {
	key               string
	throttle, recover *core.Reason
}

func newTenantNames(tenant string) tenantNames {
	reason := func(verb string) *core.Reason {
		return core.NewReason(verb + " best-effort tenant " + strings.ReplaceAll(tenant, "%", "%%") + ": %.1f -> %.1f MB/s")
	}
	return tenantNames{key: "ioqos.alloc_mbps." + tenant, throttle: reason("throttle"), recover: reason("recover")}
}

// The loops' tenant-independent reasons, rendered only when read.
var (
	divergenceReason = core.NewReason("bucket %.1f MB/s vs setpoint %.1f MB/s")
	violationReason  = core.NewReason("latency %.1fms exceeds objective %.1fms")
)

// headroom is the campaign's findings when every objective is met. It is
// never written, so every such tick returns it and allocates nothing.
var headroom = []core.Finding{{
	Kind: "headroom", Subject: "*", Value: 1, Confidence: 0.9,
	Detail: core.Text("all latency objectives met"),
}}

// controller wires the hierarchical QoS loops.
type controller struct {
	cfg Config
	db  telemetry.Querier
	fs  *pfs.FS
	kb  *knowledge.Base

	names map[string]tenantNames

	// alloc mirrors the blackboard for quick reads.
	alloc map[string]float64
	// violAlloc remembers, per best-effort tenant, the allocation in force
	// when a latency violation last occurred — Knowledge that caps recovery
	// probing below the level that caused trouble.
	violAlloc map[string]float64
}

// newController builds the controller and seeds each tenant's allocation:
// the one K already holds, as after a restore, or else its fair share.
// Spawn has checked that db, fs and kb are present.
func newController(cfg Config, db telemetry.Querier, fs *pfs.FS, kb *knowledge.Base) *controller {
	if len(cfg.Tenants) == 0 {
		panic("ioqoscase: no tenants")
	}
	c := &controller{
		cfg: cfg, db: db, fs: fs, kb: kb,
		names: make(map[string]tenantNames, len(cfg.Tenants)),
		alloc: make(map[string]float64), violAlloc: make(map[string]float64),
	}
	for _, t := range cfg.Tenants {
		c.names[t.Name] = newTenantNames(t.Name)
	}
	var wsum float64
	for _, t := range cfg.Tenants {
		wsum += math.Max(t.Priority, 0.01)
	}
	for _, t := range cfg.Tenants {
		if held, ok := kb.Fact(c.names[t.Name].key); ok {
			c.alloc[t.Name] = held
			continue
		}
		share := cfg.CapacityMBps * math.Max(t.Priority, 0.01) / wsum
		c.setAlloc(t.Name, share)
	}
	return c
}

func (c *controller) setAlloc(tenant string, mbps float64) {
	if mbps < c.cfg.MinShareMBps {
		mbps = c.cfg.MinShareMBps
	}
	if mbps > c.cfg.CapacityMBps {
		mbps = c.cfg.CapacityMBps
	}
	c.alloc[tenant] = mbps
	c.kb.SetFact(c.names[tenant].key, mbps)
}

// builtLoops assembles the hierarchy flat, the one form every caller runs:
// the slow campaign parent first — the case's primary loop, where
// mode/approval policy bites — planning once per parentEvery rounds, then
// one fast child loop per tenant enforcing its setpoint every round.
// Registered in this order on a fleet coordinator, the children plan against
// the setpoints in force at the start of the round and the parent's
// reallocation reaches them on the next one.
func (c *controller) builtLoops(parentEvery int) []control.BuiltLoop {
	out := []control.BuiltLoop{{Loop: c.parentLoop(), EveryMul: parentEvery}}
	for _, t := range c.cfg.Tenants {
		out = append(out, control.BuiltLoop{Loop: c.childLoop(t)})
	}
	return out
}

// childLoop enacts the tenant's setpoint: monitor the blackboard and the
// live bucket, plan a change when they diverge, execute SetQoS.
//
// The tenant's label set and fact key are built once, and the monitor fills
// one two-point buffer, reused across ticks (the loop drops observations
// after Analyze).
func (c *controller) childLoop(t Tenant) *core.Loop {
	name := "ioqos-child-" + t.Name
	key := c.names[t.Name].key
	labels := telemetry.Labels{"tenant": t.Name}
	pts := [2]telemetry.Point{
		{Name: "ioqos.setpoint", Labels: labels},
		{Name: "ioqos.current", Labels: labels},
	}
	monitor := core.MonitorFunc(func(now time.Duration) (core.Observation, error) {
		obs := core.Observation{Time: now}
		setpoint, ok := c.kb.Fact(key)
		if !ok {
			return obs, nil
		}
		rate, _, limited := c.fs.QoS(t.Name)
		if !limited {
			rate = -1 // sentinel: no bucket installed yet
		}
		pts[0].Time, pts[0].Value = now, setpoint
		pts[1].Time, pts[1].Value = now, rate
		obs.Points = pts[:]
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
				Detail: divergenceReason.With(current, setpoint),
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
func (c *controller) parentLoop() *core.Loop {
	// The monitor fills one buffer, reused across ticks, through the
	// zero-copy LatestInto surface (the loop drops observations after
	// Analyze, so the backing array is safe to recycle). The analyzer folds
	// latencies into lat, one slot per tenant, and returns a new findings
	// slice on each tick with a violation: the loop publishes pointers into
	// it.
	var ptsBuf []telemetry.Point
	lat := make([]float64, len(c.cfg.Tenants))
	seen := make([]bool, len(c.cfg.Tenants))
	monitor := core.MonitorFunc(func(now time.Duration) (core.Observation, error) {
		obs := core.Observation{Time: now}
		ptsBuf = c.db.LatestInto(ptsBuf[:0], "pfs.tenant.lat_ms", nil)
		ptsBuf = c.db.LatestInto(ptsBuf, "pfs.tenant.mbps", nil)
		obs.Points = ptsBuf
		return obs, nil
	})
	analyzer := core.AnalyzerFunc(func(now time.Duration, obs core.Observation) (core.Symptoms, error) {
		var findings []core.Finding
		clear(seen)
		for _, p := range obs.Points {
			if p.Name != "pfs.tenant.lat_ms" {
				continue
			}
			tenant := p.Labels["tenant"]
			for i := range c.cfg.Tenants {
				if c.cfg.Tenants[i].Name == tenant {
					lat[i], seen[i] = p.Value, true
				}
			}
		}
		for i, t := range c.cfg.Tenants {
			if t.TargetLatMS <= 0 || !seen[i] {
				continue
			}
			observed := lat[i]
			if observed > t.TargetLatMS {
				findings = append(findings, core.Finding{
					Kind: "latency-violation", Subject: t.Name, Value: observed, Confidence: 0.9,
					Detail: violationReason.With(observed, t.TargetLatMS),
				})
			}
		}
		if len(findings) == 0 {
			findings = headroom
		}
		return core.Symptoms{Time: now, Findings: findings}, nil
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
			reason := c.names[t.Name].throttle
			if next > cur {
				reason = c.names[t.Name].recover
			}
			plan.Actions = append(plan.Actions, core.Action{
				Kind: "set-allocation", Subject: t.Name, Amount: next, Confidence: 0.9,
				Explanation: reason.With(cur, next),
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
