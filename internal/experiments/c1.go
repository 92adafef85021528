package experiments

import (
	"fmt"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/core"
	"autoloop/internal/facility"
	"autoloop/internal/fleet"
	"autoloop/internal/tsdb"
)

// The C1 loops' reasons, rendered only when a decision is read.
var (
	nearLimitReason = core.NewReason("hottest node %.1f°C near the %.0f°C limit")
	overspendReason = core.NewReason("setpoint %.1f°C below the 27°C economic ceiling")
)

// c1Loops builds the two deliberately contradictory facility loops of the
// scenario: a thermal guard that lowers the supply setpoint whenever the
// fleet runs hot (safety), and a naive energy saver that raises it whenever
// it is below its ceiling (economy). Both act on the same subject, "plant",
// so any round in which both plan is a cross-loop conflict.
func c1Loops(db *tsdb.DB, plant *facility.Plant, tempLimit float64) (guard, saver *core.Loop) {
	guard = core.NewLoop("thermal-guard",
		core.MonitorFunc(func(now time.Duration) (core.Observation, error) {
			return core.Observation{Time: now, Points: db.Latest("node.temp.celsius", nil)}, nil
		}),
		core.AnalyzerFunc(func(now time.Duration, obs core.Observation) (core.Symptoms, error) {
			sym := core.Symptoms{Time: now}
			hottest := -1.0
			for _, p := range obs.Points {
				if p.Value > hottest {
					hottest = p.Value
				}
			}
			if hottest > tempLimit-8 {
				sym.Findings = append(sym.Findings, core.Finding{
					Kind: "thermal-pressure", Subject: "plant", Value: hottest, Confidence: 1,
					Detail: nearLimitReason.With(hottest, tempLimit),
				})
			}
			return sym, nil
		}),
		core.PlannerFunc(func(now time.Duration, sym core.Symptoms) (core.Plan, error) {
			plan := core.Plan{Time: now}
			for _, f := range sym.Findings {
				plan.Actions = append(plan.Actions, core.Action{
					Kind: "lower-setpoint", Subject: "plant", Amount: 1, Confidence: 1, Explanation: f.Detail,
				})
			}
			return plan, nil
		}),
		core.ExecutorFunc(func(now time.Duration, a core.Action) (core.ActionResult, error) {
			plant.SetSupplySetpointC(plant.SupplySetpointC() - a.Amount)
			return core.ActionResult{Action: a, Honored: true, Granted: a.Amount}, nil
		}),
	)
	saver = core.NewLoop("energy-saver",
		core.MonitorFunc(func(now time.Duration) (core.Observation, error) {
			return core.Observation{Time: now}, nil
		}),
		core.AnalyzerFunc(func(now time.Duration, obs core.Observation) (core.Symptoms, error) {
			sym := core.Symptoms{Time: now}
			if sp := plant.SupplySetpointC(); sp < 27 {
				sym.Findings = append(sym.Findings, core.Finding{
					Kind: "cooling-overspend", Subject: "plant", Value: sp, Confidence: 1,
					Detail: overspendReason.With(sp),
				})
			}
			return sym, nil
		}),
		core.PlannerFunc(func(now time.Duration, sym core.Symptoms) (core.Plan, error) {
			plan := core.Plan{Time: now}
			for _, f := range sym.Findings {
				plan.Actions = append(plan.Actions, core.Action{
					Kind: "raise-setpoint", Subject: "plant", Amount: 1, Confidence: 1, Explanation: f.Detail,
				})
			}
			return plan, nil
		}),
		core.ExecutorFunc(func(now time.Duration, a core.Action) (core.ActionResult, error) {
			plant.SetSupplySetpointC(plant.SupplySetpointC() + a.Amount)
			return core.ActionResult{Action: a, Honored: true, Granted: a.Amount}, nil
		}),
	)
	return guard, saver
}

// runC1 contrasts sequential unarbitrated ticking with the fleet
// coordinator: same two contradictory loops, same workload, same seed. The
// unarbitrated rows show the failure mode the paper's multi-loop vision
// walks into — contradictory same-round actuation thrashing the plant —
// and the coordinator rows show the arbiter suppressing the losing action,
// with every loss accounted on the loop's ArbitratedActions metric and the
// bus's "loop.<name>.arbitrated" topic.
func runC1(opt Options) *Result {
	res := &Result{
		Title: "Two contradictory facility loops on one plant: sequential vs fleet-arbitrated",
		Claim: "autonomy loops will operate simultaneously at the level of the facility, the system, " +
			"and jobs — concurrent loops must not issue contradictory actions on a shared subject",
		Columns: []string{"mode", "setpoint-moves", "conflicts", "arbitrated", "thermal-breaches",
			"final-setpoint", "hottest-node"},
	}
	horizon := 8 * time.Hour
	if opt.Quick {
		horizon = 4 * time.Hour
	}
	const tempLimit = 70.0

	for _, arbitrated := range []bool{false, true} {
		w := newPlantWorld(opt, horizon, tempLimit)
		b := bus.New()
		guard, saver := c1Loops(w.db, w.plant, tempLimit)
		guard.Bus = b
		saver.Bus = b

		var arbitratedLost int
		b.Subscribe("loop.energy-saver.arbitrated", func(bus.Envelope) { arbitratedLost++ })

		var coord *fleet.Coordinator
		if arbitrated {
			// The coordinator plans both loops concurrently and the arbiter
			// lets the thermal guard's lower-setpoint win the plant.
			coord = fleet.New(0).PublishTo(b, "exp-c1")
			coord.Add(guard, 20)
			coord.Add(saver, 5)
			w.pipe.Drive(coord, 10) // loops tick every 10th sample = every 5 minutes
		} else {
			// Sequential status quo: both loops tick back to back and both
			// actions execute, contradictions and all.
			w.pipe.Drive(tickPair{saver, guard}, 10)
		}
		w.engine.RunUntil(horizon)

		mode := "sequential-unarbitrated"
		conflicts, lost := "-", "-"
		if arbitrated {
			mode = "fleet-arbitrated"
			m := coord.Metrics()
			conflicts = fmt.Sprintf("%d", m.Conflicts)
			lost = fmt.Sprintf("%d (%d on bus)", saver.Metrics().ArbitratedActions, arbitratedLost)
		}
		// Every execute moves the setpoint.
		moved := guard.Metrics().HonoredActions + saver.Metrics().HonoredActions
		res.AddRow(mode, moved, conflicts, lost, w.breaches,
			fmt.Sprintf("%.1f°C", w.plant.SupplySetpointC()),
			fmt.Sprintf("%.1f°C", w.hottest))
	}
	res.AddNote("both loops tick every 5m on the telemetry cadence; the guard defends %.0f°C, the saver pushes toward 27°C", tempLimit)
	res.AddNote("unarbitrated, every hot round actuates twice (raise then lower); arbitrated, the saver's raise loses the round and is published on loop.energy-saver.arbitrated")
	return res
}

// tickPair ticks two loops sequentially — the pre-fleet status quo.
type tickPair struct{ first, second *core.Loop }

// Tick implements telemetry.Ticker.
func (p tickPair) Tick(now time.Duration) {
	p.first.Tick(now)
	p.second.Tick(now)
}
