// Package powercase implements a facility-domain autonomy loop beyond the
// paper's initial five cases, exercising the §IV requirement that
// "confidence measures are required ... particularly for safe operations of
// power and energy controls": a cooling-energy optimization loop that raises
// the plant's supply-air setpoint (improving the coefficient of performance)
// whenever the fleet has thermal headroom, and backs it down the moment any
// node runs hot.
//
// The loop is deliberately asymmetric, as safe energy control must be:
// raising the setpoint (saving energy, spending thermal margin) requires
// headroom on *every* node plus a confidence gate, while lowering it
// (spending energy, restoring margin) is immediate and ungated.
package powercase

import (
	"fmt"
	"time"

	"autoloop/internal/core"
	"autoloop/internal/facility"
	"autoloop/internal/telemetry"
)

// FleetPriority is the case's recommended arbitration priority under a
// fleet coordinator: facility-domain thermal safety outranks workload-side
// loops, so on a shared subject this loop's actions win cross-loop conflicts.
const FleetPriority = 20

// Config tunes the power loop.
type Config struct {
	// TempLimitC is the component temperature that must never be exceeded.
	TempLimitC float64
	// HeadroomC is the margin below the limit required before the loop
	// spends any of it on energy savings.
	HeadroomC float64
	// StepC is the setpoint increment per action.
	StepC float64
	// MaxSetpointC bounds how far the loop may raise the supply setpoint.
	MaxSetpointC float64
}

// DefaultConfig operates against an 85°C limit with 12°C of required
// headroom, 1°C steps, and a 28°C setpoint ceiling.
func DefaultConfig() Config {
	return Config{TempLimitC: 85, HeadroomC: 12, StepC: 1, MaxSetpointC: 28}
}

// Controller wires the power/energy MAPE loop.
type Controller struct {
	cfg   Config
	db    telemetry.Querier
	plant *facility.Plant

	// ptsBuf is the observation buffer reused across ticks (the loop drops
	// observations after Analyze, so the backing array is safe to recycle).
	ptsBuf []telemetry.Point

	// Raises and Lowers count setpoint movements (experiment metrics).
	Raises int
	Lowers int
}

// New builds the controller.
func New(cfg Config, db telemetry.Querier, plant *facility.Plant) *Controller {
	if db == nil || plant == nil {
		panic("powercase: nil dependency")
	}
	return &Controller{cfg: cfg, db: db, plant: plant}
}

// Loop assembles the core loop. Callers typically add a ConfidenceGate;
// the experiments run it both gated and ungated.
func (c *Controller) Loop() *core.Loop {
	return core.NewLoop("power-case",
		core.MonitorFunc(c.observe),
		core.AnalyzerFunc(c.analyze),
		core.PlannerFunc(c.plan),
		core.ExecutorFunc(c.execute),
	)
}

// observe reads every node's newest temperature through the zero-copy
// fill-buffer surface, reusing one point buffer across ticks. The plant
// state plan needs is read from the plant itself.
func (c *Controller) observe(now time.Duration) (core.Observation, error) {
	obs := core.Observation{Time: now}
	c.ptsBuf = c.db.LatestInto(c.ptsBuf[:0], "node.temp.celsius", nil)
	obs.Points = c.ptsBuf
	return obs, nil
}

// analyze classifies the thermal state: hot (must cool), headroom (may
// save energy), or neutral.
func (c *Controller) analyze(now time.Duration, obs core.Observation) (core.Symptoms, error) {
	sym := core.Symptoms{Time: now}
	hottest := -1.0
	nodes := 0
	for _, p := range obs.Points {
		if p.Name != "node.temp.celsius" {
			continue
		}
		nodes++
		if p.Value > hottest {
			hottest = p.Value
		}
	}
	if nodes == 0 {
		return sym, nil
	}
	switch {
	case hottest > c.cfg.TempLimitC-c.cfg.HeadroomC/2:
		sym.Findings = append(sym.Findings, core.Finding{
			Kind: "thermal-pressure", Subject: "plant", Value: hottest, Confidence: 1,
			Detail: fmt.Sprintf("hottest node %.1f°C within half-headroom of the %.0f°C limit", hottest, c.cfg.TempLimitC),
		})
	case hottest < c.cfg.TempLimitC-c.cfg.HeadroomC:
		// Confidence scales with how much headroom is left beyond the
		// requirement: deep margin -> confident raise; scraping the
		// requirement -> low confidence, which a gate will veto.
		margin := (c.cfg.TempLimitC - c.cfg.HeadroomC) - hottest
		conf := margin / c.cfg.HeadroomC
		if conf > 1 {
			conf = 1
		}
		sym.Findings = append(sym.Findings, core.Finding{
			Kind: "thermal-headroom", Subject: "plant", Value: hottest, Confidence: conf,
			Detail: fmt.Sprintf("hottest node %.1f°C leaves %.1f°C beyond required headroom", hottest, margin),
		})
	}
	return sym, nil
}

// plan maps the thermal state to a setpoint movement.
func (c *Controller) plan(now time.Duration, sym core.Symptoms) (core.Plan, error) {
	plan := core.Plan{Time: now}
	for _, f := range sym.Findings {
		switch f.Kind {
		case "thermal-pressure":
			plan.Actions = append(plan.Actions, core.Action{
				Kind: "lower-setpoint", Subject: "plant", Amount: c.cfg.StepC,
				Confidence:  1, // safety action: never gated
				Explanation: f.Detail,
			})
		case "thermal-headroom":
			if c.plant.SupplySetpointC() >= c.cfg.MaxSetpointC {
				continue
			}
			plan.Actions = append(plan.Actions, core.Action{
				Kind: "raise-setpoint", Subject: "plant", Amount: c.cfg.StepC,
				Confidence:  f.Confidence,
				Explanation: f.Detail,
			})
		}
	}
	return plan, nil
}

// execute moves the plant's supply-air setpoint actuator.
func (c *Controller) execute(now time.Duration, a core.Action) (core.ActionResult, error) {
	cur := c.plant.SupplySetpointC()
	switch a.Kind {
	case "raise-setpoint":
		next := cur + a.Amount
		if next > c.cfg.MaxSetpointC {
			next = c.cfg.MaxSetpointC
		}
		c.plant.SetSupplySetpointC(next)
		c.Raises++
		return core.ActionResult{Action: a, Honored: true, Granted: c.plant.SupplySetpointC() - cur}, nil
	case "lower-setpoint":
		c.plant.SetSupplySetpointC(cur - a.Amount)
		c.Lowers++
		return core.ActionResult{Action: a, Honored: true, Granted: cur - c.plant.SupplySetpointC()}, nil
	default:
		return core.ActionResult{}, fmt.Errorf("powercase: unknown action %q", a.Kind)
	}
}
