package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/sim"
)

// phases builds a trivial loop: the monitor reports a value, the analyzer
// flags it when above 10, the planner requests a "lower" action, and the
// executor records it.
type recorder struct {
	executed []Action
	honor    bool
}

func (r *recorder) Execute(now time.Duration, a Action) (ActionResult, error) {
	r.executed = append(r.executed, a)
	return ActionResult{Action: a, Honored: r.honor, Granted: a.Amount}, nil
}

func constMonitor(v float64) Monitor {
	return MonitorFunc(func(now time.Duration) (Observation, error) {
		return Observation{Time: now, Points: nil}, nil
	})
}

func alwaysFind(conf float64) Analyzer {
	return AnalyzerFunc(func(now time.Duration, obs Observation) (Symptoms, error) {
		return Symptoms{Time: now, Findings: []Finding{{Kind: "hot", Subject: "s1", Value: 42, Confidence: conf}}}, nil
	})
}

func planPerFinding(conf float64) Planner {
	return PlannerFunc(func(now time.Duration, sym Symptoms) (Plan, error) {
		var p Plan
		p.Time = now
		for _, f := range sym.Findings {
			p.Actions = append(p.Actions, Action{Kind: "lower", Subject: f.Subject, Amount: 1, Confidence: conf, Explanation: "test"})
		}
		return p, nil
	})
}

func newTestLoop(conf float64) (*Loop, *recorder) {
	rec := &recorder{honor: true}
	l := NewLoop("test", constMonitor(1), alwaysFind(conf), planPerFinding(conf), rec)
	return l, rec
}

func TestLoopTickExecutesPlan(t *testing.T) {
	l, rec := newTestLoop(0.9)
	tr := attachTrail(l)
	l.Tick(time.Second)
	if len(rec.executed) != 1 {
		t.Fatalf("executed %d actions", len(rec.executed))
	}
	m := l.Metrics()
	if m.Ticks != 1 || m.Findings != 1 || m.PlannedActions != 1 || m.ExecutedActions != 1 || m.HonoredActions != 1 {
		t.Errorf("metrics = %+v", m)
	}
	if tr.count("execute") != 1 {
		t.Error("execute not published")
	}
}

func TestLoopDisabledDoesNothing(t *testing.T) {
	l, rec := newTestLoop(0.9)
	l.SetEnabled(false)
	l.Tick(time.Second)
	if len(rec.executed) != 0 || l.Metrics().Ticks != 0 {
		t.Error("disabled loop acted")
	}
	if l.State().Tickable() {
		t.Error("Enabled should be false")
	}
}

func TestLoopPhaseErrorsAreContained(t *testing.T) {
	rec := &recorder{}
	failing := MonitorFunc(func(now time.Duration) (Observation, error) {
		return Observation{}, errors.New("sensor offline")
	})
	l := NewLoop("t", failing, alwaysFind(1), planPerFinding(1), rec)
	l.Tick(time.Second) // must not panic
	if l.Metrics().Errors != 1 {
		t.Errorf("errors = %d", l.Metrics().Errors)
	}
	if len(rec.executed) != 0 {
		t.Error("plan executed despite monitor failure")
	}

	badAnalyzer := AnalyzerFunc(func(time.Duration, Observation) (Symptoms, error) {
		return Symptoms{}, errors.New("model diverged")
	})
	l2 := NewLoop("t2", constMonitor(1), badAnalyzer, planPerFinding(1), rec)
	l2.Tick(time.Second)
	if l2.Metrics().Errors != 1 {
		t.Error("analyzer error not counted")
	}

	badPlanner := PlannerFunc(func(time.Duration, Symptoms) (Plan, error) {
		return Plan{}, errors.New("no feasible plan")
	})
	l3 := NewLoop("t3", constMonitor(1), alwaysFind(1), badPlanner, rec)
	l3.Tick(time.Second)
	if l3.Metrics().Errors != 1 {
		t.Error("planner error not counted")
	}

	badExec := ExecutorFunc(func(time.Duration, Action) (ActionResult, error) {
		return ActionResult{}, errors.New("hook refused")
	})
	l4 := NewLoop("t4", constMonitor(1), alwaysFind(1), planPerFinding(1), badExec)
	l4.Tick(time.Second)
	if l4.Metrics().Errors != 1 || l4.Metrics().ExecutedActions != 0 {
		t.Error("executor error not handled")
	}
}

func TestLoopNilPhasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewLoop("bad", nil, alwaysFind(1), planPerFinding(1), &recorder{})
}

func TestConfidenceGateVetoes(t *testing.T) {
	l, rec := newTestLoop(0.4)
	l.Guards = []Guardrail{ConfidenceGate{Min: 0.8}}
	tr := attachTrail(l)
	l.Tick(time.Second)
	if len(rec.executed) != 0 {
		t.Error("low-confidence action executed")
	}
	if l.Metrics().VetoedActions != 1 {
		t.Errorf("vetoed = %d", l.Metrics().VetoedActions)
	}
	if tr.count("veto") != 1 {
		t.Error("veto not published")
	}
}

func TestRateLimitGuard(t *testing.T) {
	l, rec := newTestLoop(1)
	l.Guards = []Guardrail{NewRateLimit(2, time.Hour)}
	for i := 0; i < 5; i++ {
		l.Tick(time.Duration(i) * time.Minute)
	}
	if len(rec.executed) != 2 {
		t.Errorf("executed = %d, want 2 within window", len(rec.executed))
	}
	// Window slides: an action an hour later is allowed.
	l.Tick(2 * time.Hour)
	if len(rec.executed) != 3 {
		t.Errorf("executed = %d after window slid, want 3", len(rec.executed))
	}
}

func TestRateLimitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewRateLimit(0, time.Hour)
}

func TestSubjectCapGuard(t *testing.T) {
	cap := NewSubjectCap("lower", 2)
	l, rec := newTestLoop(1)
	l.Guards = []Guardrail{cap}
	for i := 0; i < 4; i++ {
		l.Tick(time.Duration(i) * time.Minute)
	}
	if len(rec.executed) != 2 {
		t.Errorf("executed = %d, want capped 2", len(rec.executed))
	}
	// Unrelated kinds are not capped.
	if err := cap.Check(0, "l", Action{Kind: "other", Subject: "s1"}); err != nil {
		t.Error("other kinds should pass")
	}
}

func TestDryRunVetoesAll(t *testing.T) {
	l, rec := newTestLoop(1)
	l.Guards = []Guardrail{DryRun{}}
	l.Tick(time.Second)
	if len(rec.executed) != 0 {
		t.Error("dry-run executed an action")
	}
	if l.Metrics().PlannedActions != 1 {
		t.Error("dry-run should still plan")
	}
}

func TestHumanOnTheLoopNotifies(t *testing.T) {
	l, rec := newTestLoop(1)
	l.Mode = HumanOnTheLoop
	l.Bus = bus.New()
	var notices []string
	l.Bus.Subscribe("loop.test.execute", func(e bus.Envelope) {
		res := e.Payload.(ActionResult)
		notices = append(notices, fmt.Sprintf("%s:%s", res.Action.Kind, res.Action.Explanation))
	})
	l.Tick(time.Second)
	if len(rec.executed) != 1 {
		t.Error("on-the-loop must execute immediately")
	}
	if len(notices) != 1 || notices[0] != "lower:test" {
		t.Errorf("notices = %v, want the execute event with the planner's explanation", notices)
	}
}

func TestHumanInTheLoopDefersExecution(t *testing.T) {
	e := sim.NewEngine(1)
	l, rec := newTestLoop(1)
	l.Mode = HumanInTheLoop
	l.Clock = sim.VirtualClock{Engine: e}
	l.Rng = rand.New(rand.NewSource(1))
	l.Human = HumanModel{Latency: sim.Constant{V: 10 * time.Minute}, Availability: 1}
	e.At(time.Second, func() { l.Tick(e.Now()) })
	e.RunUntil(time.Minute)
	if len(rec.executed) != 0 {
		t.Fatal("executed before human approval")
	}
	if l.Metrics().DeferredActions != 1 {
		t.Errorf("deferred = %d", l.Metrics().DeferredActions)
	}
	e.Run()
	if len(rec.executed) != 1 {
		t.Fatal("never executed after approval latency")
	}
	if got := l.Metrics().DecisionLatency; got != 10*time.Minute {
		t.Errorf("decision latency = %v, want 10m", got)
	}
}

func TestHumanInTheLoopAbsentDrops(t *testing.T) {
	e := sim.NewEngine(1)
	l, rec := newTestLoop(1)
	l.Mode = HumanInTheLoop
	l.Clock = sim.VirtualClock{Engine: e}
	l.Rng = rand.New(rand.NewSource(1))
	l.Human = HumanModel{Latency: sim.Constant{V: time.Minute}, Availability: 0}
	e.At(time.Second, func() { l.Tick(e.Now()) })
	e.Run()
	if len(rec.executed) != 0 {
		t.Error("absent human should drop the action")
	}
	if l.Metrics().DroppedActions != 1 {
		t.Errorf("dropped = %d", l.Metrics().DroppedActions)
	}
}

func TestHumanInTheLoopContingency(t *testing.T) {
	e := sim.NewEngine(1)
	l, rec := newTestLoop(1)
	l.Mode = HumanInTheLoop
	l.Clock = sim.VirtualClock{Engine: e}
	l.Rng = rand.New(rand.NewSource(1))
	l.Human = HumanModel{Latency: sim.Constant{V: time.Minute}, Availability: 0, ContingencyAfter: 30 * time.Minute}
	e.At(time.Second, func() { l.Tick(e.Now()) })
	e.Run()
	if len(rec.executed) != 1 {
		t.Error("contingency should execute after timeout")
	}
	if got := l.Metrics().DecisionLatency; got != 30*time.Minute {
		t.Errorf("latency = %v, want 30m", got)
	}
}

func TestHumanInTheLoopWithoutClockDrops(t *testing.T) {
	l, rec := newTestLoop(1)
	l.Mode = HumanInTheLoop
	l.Tick(time.Second)
	if len(rec.executed) != 0 || l.Metrics().DroppedActions != 1 {
		t.Error("in-the-loop without clock must drop")
	}
}

func TestRunEveryTicksPeriodically(t *testing.T) {
	e := sim.NewEngine(1)
	l, _ := newTestLoop(1)
	l.RunEvery(sim.VirtualClock{Engine: e}, time.Minute, func() bool { return e.Now() >= 5*time.Minute })
	e.RunUntil(time.Hour)
	if got := l.Metrics().Ticks; got != 4 { // at 1,2,3,4 min (stop at >= 5)
		t.Errorf("ticks = %d, want 4", got)
	}
}

func TestAssessorReceivesOutcome(t *testing.T) {
	l, _ := newTestLoop(1)
	var gotPlan Plan
	var gotOutcome Outcome
	l.Assess = AssessorFunc(func(now time.Duration, p Plan, o Outcome) {
		gotPlan, gotOutcome = p, o
	})
	l.Tick(time.Second)
	if len(gotPlan.Actions) != 1 || len(gotOutcome.Results) != 1 {
		t.Errorf("assessor saw plan=%d outcome=%d", len(gotPlan.Actions), len(gotOutcome.Results))
	}
	if !gotOutcome.Results[0].Honored {
		t.Error("outcome should be honored")
	}
}

func TestModeString(t *testing.T) {
	if Autonomous.String() != "autonomous" || HumanOnTheLoop.String() != "human-on-the-loop" ||
		HumanInTheLoop.String() != "human-in-the-loop" || Mode(9).String() != "unknown" {
		t.Error("Mode.String")
	}
}
