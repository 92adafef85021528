package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/core"
	"autoloop/internal/sim"
)

// approverRig is a human-in-the-loop loop that plans one action per tick,
// approved by a simApprover on a virtual clock, with its bus events kept
// as "kind" or "kind: reason" lines.
type approverRig struct {
	engine   *sim.Engine
	loop     *core.Loop
	executed []core.Action
	events   []string
}

func newApproverRig(human simApprover) *approverRig {
	r := &approverRig{engine: sim.NewEngine(1)}
	r.loop = core.NewLoop("hitl",
		core.MonitorFunc(func(now time.Duration) (core.Observation, error) {
			return core.Observation{Time: now}, nil
		}),
		core.AnalyzerFunc(func(now time.Duration, obs core.Observation) (core.Symptoms, error) {
			return core.Symptoms{Time: now, Findings: []core.Finding{{Kind: "late", Subject: "job1"}}}, nil
		}),
		core.PlannerFunc(func(now time.Duration, sym core.Symptoms) (core.Plan, error) {
			return core.Plan{Time: now, Actions: []core.Action{{Kind: "extend", Subject: "job1", Amount: 1}}}, nil
		}),
		core.ExecutorFunc(func(now time.Duration, a core.Action) (core.ActionResult, error) {
			r.executed = append(r.executed, a)
			return core.ActionResult{Action: a, Honored: true}, nil
		}),
	)
	r.loop.Mode = core.HumanInTheLoop
	human.clock, human.rng = sim.VirtualClock{Engine: r.engine}, rand.New(rand.NewSource(1))
	r.loop.Approvals = &human
	r.loop.Bus = bus.New()
	r.loop.Bus.Subscribe("loop.hitl.*", func(e bus.Envelope) {
		line := strings.TrimPrefix(e.Topic, "loop.hitl.")
		if res, ok := e.Payload.(*core.ActionResult); ok && res.Detail.String() != "" {
			line += ": " + res.Detail.String()
		}
		r.events = append(r.events, fmt.Sprintf("%v %s", e.Time, line))
	})
	r.engine.At(time.Minute, func() { r.loop.Tick(r.engine.Now()) })
	return r
}

// check compares the published event lines with want.
func (r *approverRig) check(t *testing.T, want ...string) {
	t.Helper()
	if fmt.Sprintf("%q", r.events) != fmt.Sprintf("%q", want) {
		t.Errorf("published %q, want %q", r.events, want)
	}
}

func TestHumanInTheLoopDefersExecution(t *testing.T) {
	r := newApproverRig(simApprover{Latency: sim.Constant{V: 10 * time.Minute}, Availability: 1})
	r.engine.RunUntil(5 * time.Minute)
	if len(r.executed) != 0 {
		t.Fatal("executed before human approval")
	}
	if m := r.loop.Metrics(); m.DeferredActions != 1 {
		t.Errorf("deferred = %d, want 1", m.DeferredActions)
	}
	r.engine.Run()
	if len(r.executed) != 1 {
		t.Fatal("never executed after approval latency")
	}
	if m := r.loop.Metrics(); m.ExecutedActions != 1 || m.DecisionLatency != 10*time.Minute {
		t.Errorf("metrics = %+v, want 1 executed with 10m decision latency", m)
	}
	r.check(t, "1m0s finding", "1m0s plan", "1m0s defer: queued for operator approval", "11m0s execute")
}

func TestHumanInTheLoopAbsentDenies(t *testing.T) {
	r := newApproverRig(simApprover{Latency: sim.Constant{V: time.Minute}, Availability: 0})
	r.engine.Run()
	if len(r.executed) != 0 {
		t.Error("absent human without a contingency must not execute the action")
	}
	if m := r.loop.Metrics(); m.DeniedActions != 1 || m.DroppedActions != 0 || m.ExecutedActions != 0 {
		t.Errorf("metrics = %+v, want 1 denied", m)
	}
	r.check(t, "1m0s finding", "1m0s plan", "1m0s defer: queued for operator approval",
		"1m0s deny: human absent, no contingency")
}

func TestHumanInTheLoopContingency(t *testing.T) {
	r := newApproverRig(simApprover{Latency: sim.Constant{V: time.Minute}, Availability: 0, ContingencyAfter: 30 * time.Minute})
	r.engine.RunUntil(30 * time.Minute)
	if len(r.executed) != 0 {
		t.Fatal("contingency fired before its timeout")
	}
	r.engine.Run()
	if len(r.executed) != 1 {
		t.Fatal("contingency should execute after its timeout")
	}
	if m := r.loop.Metrics(); m.DecisionLatency != 30*time.Minute {
		t.Errorf("decision latency = %v, want 30m", m.DecisionLatency)
	}
	r.check(t, "1m0s finding", "1m0s plan", "1m0s defer: queued for operator approval", "31m0s execute")
}

// checkStale asserts that the one deferred action went stale: counted,
// published, and never handed to the executor.
func (r *approverRig) checkStale(t *testing.T, at, state string) {
	t.Helper()
	if len(r.executed) != 0 {
		t.Error("stale deferred action reached the executor")
	}
	if m := r.loop.Metrics(); m.StaleDeferred != 1 || m.ExecutedActions != 0 {
		t.Errorf("metrics = %+v, want 1 stale, 0 executed", m)
	}
	r.check(t, "1m0s finding", "1m0s plan", "1m0s defer: queued for operator approval",
		at+" stale: deferred action invalidated by lifecycle (gen 0 != 1 or state "+state+")")
}

func TestPauseInvalidatesDeferredAction(t *testing.T) {
	r := newApproverRig(simApprover{Latency: sim.Constant{V: 10 * time.Minute}, Availability: 1})
	r.engine.At(5*time.Minute, func() {
		if err := r.loop.Pause(); err != nil {
			t.Errorf("Pause: %v", err)
		}
	})
	// Resume before the approval fires: the generation moved on, so the
	// pre-pause action is stale and must not execute even though the loop
	// is running again.
	r.engine.At(7*time.Minute, func() {
		if err := r.loop.Resume(); err != nil {
			t.Errorf("Resume: %v", err)
		}
	})
	r.engine.RunUntil(time.Hour)
	r.checkStale(t, "11m0s", "running")
}

func TestDrainInvalidatesContingency(t *testing.T) {
	r := newApproverRig(simApprover{Latency: sim.Constant{V: time.Minute}, Availability: 0, ContingencyAfter: 30 * time.Minute})
	r.engine.At(5*time.Minute, func() {
		if err := r.loop.Drain(); err != nil {
			t.Errorf("Drain: %v", err)
		}
	})
	r.engine.RunUntil(2 * time.Hour)
	r.checkStale(t, "31m0s", "draining")
}
