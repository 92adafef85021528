package powercase

import (
	"testing"
	"time"

	"autoloop/internal/core"
	"autoloop/internal/fleet"
	"autoloop/internal/sim"
)

// TestLoopUnderFleetCoordinator converts the case to the concurrent fleet
// coordinator and checks it behaves exactly as the directly ticked loop:
// same cadence, same setpoint trajectory, same raise/lower counts.
func TestLoopUnderFleetCoordinator(t *testing.T) {
	run := func(underFleet bool) (raises, lowers int, setpoint float64) {
		r := newRig(t)
		for _, n := range r.cl.UpNodes() {
			r.cl.SetUtil(n, 0.5)
		}
		stop := func() bool { return r.e.Now() > 6*time.Hour }
		if underFleet {
			coord := fleet.New(0)
			coord.Add(r.loop, FleetPriority)
			coord.RunEvery(sim.VirtualClock{Engine: r.e}, 5*time.Minute, stop)
		} else {
			r.loop.RunEvery(sim.VirtualClock{Engine: r.e}, 5*time.Minute, stop)
		}
		r.e.RunUntil(6 * time.Hour)
		return r.moves["raise-setpoint"], r.moves["lower-setpoint"], r.plant.SupplySetpointC()
	}
	dr, dl, dsp := run(false)
	fr, fl, fsp := run(true)
	if dr != fr || dl != fl || dsp != fsp {
		t.Errorf("fleet run diverged: direct raises=%d lowers=%d setpoint=%v, fleet raises=%d lowers=%d setpoint=%v",
			dr, dl, dsp, fr, fl, fsp)
	}
	if fr == 0 {
		t.Error("scenario produced no raises; equivalence check is vacuous")
	}
}

// TestLosesPlantToHigherPriorityLoop pits the case against a competing loop
// that owns the same subject with a higher priority: the case's raises must
// be arbitrated away and accounted.
func TestLosesPlantToHigherPriorityLoop(t *testing.T) {
	r := newRig(t)
	rival := core.NewLoop("plant-freeze",
		core.MonitorFunc(func(now time.Duration) (core.Observation, error) {
			return core.Observation{Time: now}, nil
		}),
		core.AnalyzerFunc(func(now time.Duration, obs core.Observation) (core.Symptoms, error) {
			return core.Symptoms{Time: now, Findings: []core.Finding{
				{Kind: "maintenance-window", Subject: "plant", Confidence: 1},
			}}, nil
		}),
		core.PlannerFunc(func(now time.Duration, sym core.Symptoms) (core.Plan, error) {
			return core.Plan{Time: now, Actions: []core.Action{
				{Kind: "hold-setpoint", Subject: "plant", Confidence: 1},
			}}, nil
		}),
		core.ExecutorFunc(func(now time.Duration, a core.Action) (core.ActionResult, error) {
			return core.ActionResult{Action: a, Honored: true}, nil
		}),
	)
	coord := fleet.New(0)
	coord.Add(rival, FleetPriority+10)
	coord.Add(r.loop, FleetPriority)
	coord.RunEvery(sim.VirtualClock{Engine: r.e}, 5*time.Minute, func() bool { return r.e.Now() > 2*time.Hour })
	r.e.RunUntil(2 * time.Hour)

	if len(r.moves) != 0 {
		t.Errorf("case actuated the plant (%v) despite losing every round", r.moves)
	}
	if m := r.loop.Metrics(); m.ArbitratedActions == 0 || m.PlannedActions != m.ArbitratedActions {
		t.Errorf("metrics = %+v, want every planned action arbitrated", m)
	}
}
