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

	"autoloop/internal/control"
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

// controller wires the power/energy MAPE loop.
type controller struct {
	cfg   Config
	plant *facility.Plant

	// fleet is the round's thermal reading, shared by every power loop of a
	// Service; observed is the tick's, from observe to analyze.
	fleet    *control.Reading
	observed *thermal
}

// newController builds the controller; Spawn has checked that db and plant
// are present.
func newController(cfg Config, db telemetry.Querier, plant *facility.Plant) *controller {
	return &controller{cfg: cfg, plant: plant, fleet: control.NewReading(db, thermalKey{})}
}

// thermal is the fleet's thermal state: the hottest node's temperature and
// how many nodes report one. pts is the read's scratch.
type thermal struct {
	hottest float64
	nodes   int
	pts     []telemetry.Point
}

// thermalKey names the thermal reading: config-free, so every power loop
// shares one.
type thermalKey struct{}

// New implements control.ReadingKey.
func (thermalKey) New() control.ReadingValue { return new(thermal) }

// Read implements control.ReadingValue: every node's newest temperature,
// folded.
func (t *thermal) Read(q telemetry.Querier, _ time.Duration) {
	t.pts = q.LatestInto(t.pts[:0], "node.temp.celsius", nil)
	t.hottest, t.nodes = -1, len(t.pts)
	for _, p := range t.pts {
		if p.Value > t.hottest {
			t.hottest = p.Value
		}
	}
}

// loop assembles the core loop. Callers typically add a ConfidenceGate;
// the experiments run it both gated and ungated.
func (c *controller) loop() *core.Loop {
	return core.NewLoop("power-case",
		core.MonitorFunc(c.observe),
		core.AnalyzerFunc(c.analyze),
		core.PlannerFunc(c.plan),
		core.ExecutorFunc(c.execute),
	)
}

// observe takes the round's thermal reading; the observation carries it
// outside Points. The plant state plan needs is read from the plant itself.
func (c *controller) observe(now time.Duration) (core.Observation, error) {
	c.observed = c.fleet.Get(now).(*thermal)
	return core.Observation{Time: now}, nil
}

// The analyzer's reasons, rendered only when a finding is read.
var (
	pressureReason = core.NewReason("hottest node %.1f°C within half-headroom of the %.0f°C limit")
	headroomReason = core.NewReason("hottest node %.1f°C leaves %.1f°C beyond required headroom")
)

// analyze classifies the thermal state: hot (must cool), headroom (may
// save energy), or neutral.
func (c *controller) analyze(now time.Duration, _ core.Observation) (core.Symptoms, error) {
	sym := core.Symptoms{Time: now}
	if c.observed.nodes == 0 {
		return sym, nil
	}
	hottest := c.observed.hottest
	switch {
	case hottest > c.cfg.TempLimitC-c.cfg.HeadroomC/2:
		sym.Findings = append(sym.Findings, core.Finding{
			Kind: "thermal-pressure", Subject: "plant", Value: hottest, Confidence: 1,
			Detail: pressureReason.With(hottest, c.cfg.TempLimitC),
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
			Detail: headroomReason.With(hottest, margin),
		})
	}
	return sym, nil
}

// plan maps the thermal state to a setpoint movement.
func (c *controller) plan(now time.Duration, sym core.Symptoms) (core.Plan, error) {
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
func (c *controller) execute(now time.Duration, a core.Action) (core.ActionResult, error) {
	cur := c.plant.SupplySetpointC()
	switch a.Kind {
	case "raise-setpoint":
		next := cur + a.Amount
		if next > c.cfg.MaxSetpointC {
			next = c.cfg.MaxSetpointC
		}
		c.plant.SetSupplySetpointC(next)
		return core.ActionResult{Action: a, Honored: true, Granted: c.plant.SupplySetpointC() - cur}, nil
	case "lower-setpoint":
		c.plant.SetSupplySetpointC(cur - a.Amount)
		return core.ActionResult{Action: a, Honored: true, Granted: cur - c.plant.SupplySetpointC()}, nil
	default:
		return core.ActionResult{}, fmt.Errorf("powercase: unknown action %q", a.Kind)
	}
}
