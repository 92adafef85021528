package core

import (
	"testing"
	"time"

	"autoloop/internal/sim"
	"autoloop/internal/telemetry"
)

// workerPair builds a worker whose monitor reports a fixed load and whose
// executor records dispatched actions into the shared map.
func workerPair(name string, load float64, sink map[string][]Action) *Worker {
	m := MonitorFunc(func(now time.Duration) (Observation, error) {
		return Observation{Time: now, Points: []telemetry.Point{
			{Name: "load", Labels: telemetry.Labels{"worker": name}, Time: now, Value: load},
		}}, nil
	})
	e := ExecutorFunc(func(now time.Duration, a Action) (ActionResult, error) {
		sink[name] = append(sink[name], a)
		return ActionResult{Action: a, Honored: true, Granted: a.Amount}, nil
	})
	return NewWorker(name, m, e)
}

// centralPlanner targets every worker whose load exceeds 0.5.
func centralAnalyzerPlanner() (Analyzer, Planner) {
	a := AnalyzerFunc(func(now time.Duration, obs Observation) (Symptoms, error) {
		var sym Symptoms
		sym.Time = now
		for _, p := range obs.Points {
			if p.Value > 0.5 {
				sym.Findings = append(sym.Findings, Finding{
					Kind: "overload", Subject: p.Labels["worker"], Value: p.Value, Confidence: 1,
				})
			}
		}
		return sym, nil
	})
	p := PlannerFunc(func(now time.Duration, sym Symptoms) (Plan, error) {
		var plan Plan
		plan.Time = now
		for _, f := range sym.Findings {
			plan.Actions = append(plan.Actions, Action{Kind: "throttle", Subject: f.Subject, Amount: 1, Confidence: 1})
		}
		return plan, nil
	})
	return a, p
}

func TestMasterWorkerDispatchesBySubject(t *testing.T) {
	sink := map[string][]Action{}
	w1 := workerPair("w1", 0.9, sink)
	w2 := workerPair("w2", 0.2, sink)
	a, p := centralAnalyzerPlanner()
	mw := NewMasterWorker("mw", a, p, []*Worker{w1, w2})
	mw.Tick(time.Second)
	if len(sink["w1"]) != 1 {
		t.Errorf("w1 actions = %d, want 1", len(sink["w1"]))
	}
	if len(sink["w2"]) != 0 {
		t.Errorf("w2 actions = %d, want 0", len(sink["w2"]))
	}
	m := mw.Metrics()
	if m.ExecutedActions != 1 || m.HonoredActions != 1 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestMasterWorkerMasterFailureStopsControl(t *testing.T) {
	sink := map[string][]Action{}
	w1 := workerPair("w1", 0.9, sink)
	a, p := centralAnalyzerPlanner()
	mw := NewMasterWorker("mw", a, p, []*Worker{w1})
	mw.SetEnabled(false)
	mw.Tick(time.Second)
	if len(sink["w1"]) != 0 {
		t.Error("disabled master still controlled workers")
	}
	if mw.enabled {
		t.Error("enabled")
	}
}

func TestMasterWorkerDeadWorkerSkipped(t *testing.T) {
	sink := map[string][]Action{}
	w1 := workerPair("w1", 0.9, sink)
	w2 := workerPair("w2", 0.9, sink)
	w2.enabled = false
	a, p := centralAnalyzerPlanner()
	mw := NewMasterWorker("mw", a, p, []*Worker{w1, w2})
	mw.Tick(time.Second)
	if len(sink["w1"]) != 1 || len(sink["w2"]) != 0 {
		t.Errorf("actions: w1=%d w2=%d", len(sink["w1"]), len(sink["w2"]))
	}
}

func TestMasterWorkerPlanCostDelaysDispatch(t *testing.T) {
	e := sim.NewEngine(1)
	sink := map[string][]Action{}
	w1 := workerPair("w1", 0.9, sink)
	a, p := centralAnalyzerPlanner()
	mw := NewMasterWorker("mw", a, p, []*Worker{w1})
	mw.Clock = sim.VirtualClock{Engine: e}
	mw.PlanCost = func(n int) time.Duration { return time.Duration(n) * time.Minute }
	e.At(0, func() { mw.Tick(0) })
	e.RunUntil(30 * time.Second)
	if len(sink["w1"]) != 0 {
		t.Fatal("dispatched before plan cost elapsed")
	}
	e.Run()
	if len(sink["w1"]) != 1 {
		t.Fatal("never dispatched")
	}
	if got := mw.Metrics().DecisionLatency; got != time.Minute {
		t.Errorf("decision latency = %v, want 1m", got)
	}
}

func TestIntentBoard(t *testing.T) {
	b := NewIntentBoard()
	b.Post(time.Second, "l1", Action{Kind: "claim", Amount: 10})
	b.Post(time.Second, "l2", Action{Kind: "claim", Amount: 20})
	b.Post(time.Second, "l3", Action{Kind: "other", Amount: 5})
	peers := b.Peers("l1")
	if len(peers) != 2 {
		t.Fatalf("peers = %d", len(peers))
	}
	if got := b.SumAmount("l1", "claim"); got != 20 {
		t.Errorf("SumAmount = %v, want 20 (only l2's claim)", got)
	}
	if got := b.SumAmount("l9", "claim"); got != 30 {
		t.Errorf("SumAmount for outsider = %v, want 30", got)
	}
}
