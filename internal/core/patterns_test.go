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
	if mw.Enabled() {
		t.Error("Enabled")
	}
}

func TestMasterWorkerDeadWorkerSkipped(t *testing.T) {
	sink := map[string][]Action{}
	w1 := workerPair("w1", 0.9, sink)
	w2 := workerPair("w2", 0.9, sink)
	w2.SetEnabled(false)
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

func TestMasterWorkerRunEvery(t *testing.T) {
	e := sim.NewEngine(1)
	sink := map[string][]Action{}
	w1 := workerPair("w1", 0.9, sink)
	a, p := centralAnalyzerPlanner()
	mw := NewMasterWorker("mw", a, p, []*Worker{w1})
	mw.RunEvery(sim.VirtualClock{Engine: e}, time.Minute, func() bool { return e.Now() >= 3*time.Minute })
	e.RunUntil(time.Hour)
	if got := mw.Metrics().Ticks; got != 2 {
		t.Errorf("ticks = %d, want 2", got)
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
	b.Clear("l2")
	if got := b.SumAmount("l9", "claim"); got != 10 {
		t.Errorf("after clear = %v, want 10", got)
	}
}

func TestCoordinatedTicksAllLoops(t *testing.T) {
	var loops []*Loop
	recs := make([]*recorder, 3)
	for i := range recs {
		l, rec := newTestLoop(1)
		l.Name = string([]byte{'l', byte('0' + i)})
		loops = append(loops, l)
		recs[i] = rec
	}
	c := NewCoordinated("coord", loops)
	c.Tick(time.Second)
	for i, rec := range recs {
		if len(rec.executed) != 1 {
			t.Errorf("loop %d executed %d", i, len(rec.executed))
		}
	}
	if c.Board == nil {
		t.Error("board missing")
	}
}

func TestCoordinatedSurvivesMemberFailure(t *testing.T) {
	l1, r1 := newTestLoop(1)
	l2, r2 := newTestLoop(1)
	l1.SetEnabled(false)
	c := NewCoordinated("coord", []*Loop{l1, l2})
	c.Tick(time.Second)
	if len(r1.executed) != 0 {
		t.Error("dead loop acted")
	}
	if len(r2.executed) != 1 {
		t.Error("surviving loop must keep controlling its subsystem")
	}
}

func TestHierarchicalParentCadence(t *testing.T) {
	parent, prec := newTestLoop(1)
	child, crec := newTestLoop(1)
	h := NewHierarchical("h", parent, []*Loop{child}, 3)
	for i := 0; i < 9; i++ {
		h.Tick(time.Duration(i) * time.Second)
	}
	if len(crec.executed) != 9 {
		t.Errorf("child executed %d, want 9", len(crec.executed))
	}
	if len(prec.executed) != 3 {
		t.Errorf("parent executed %d, want 3 (every 3rd tick)", len(prec.executed))
	}
}

func TestHierarchicalRunEvery(t *testing.T) {
	e := sim.NewEngine(1)
	parent, _ := newTestLoop(1)
	child, _ := newTestLoop(1)
	h := NewHierarchical("h", parent, []*Loop{child}, 2)
	h.RunEvery(sim.VirtualClock{Engine: e}, time.Minute, func() bool { return e.Now() >= 4*time.Minute })
	e.RunUntil(time.Hour)
	if child.Metrics().Ticks != 3 || parent.Metrics().Ticks != 1 {
		t.Errorf("child=%d parent=%d", child.Metrics().Ticks, parent.Metrics().Ticks)
	}
}

func TestHierarchicalNilParentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewHierarchical("h", nil, nil, 1)
}
