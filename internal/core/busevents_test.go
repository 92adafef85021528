package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/sim"
)

// eventLoop builds a loop that always finds one symptom and plans one action.
func eventLoop(execErr error) *Loop {
	return NewLoop("evt",
		MonitorFunc(func(now time.Duration) (Observation, error) {
			return Observation{Time: now}, nil
		}),
		AnalyzerFunc(func(now time.Duration, obs Observation) (Symptoms, error) {
			return Symptoms{Time: now, Findings: []Finding{{Kind: "hot", Subject: "n1", Value: 91}}}, nil
		}),
		PlannerFunc(func(now time.Duration, sym Symptoms) (Plan, error) {
			return Plan{Time: now, Actions: []Action{{Kind: "cool", Subject: "n1", Amount: 1}}}, nil
		}),
		ExecutorFunc(func(now time.Duration, a Action) (ActionResult, error) {
			if execErr != nil {
				return ActionResult{}, execErr
			}
			return ActionResult{Action: a, Honored: true, Granted: a.Amount}, nil
		}),
	)
}

func TestLoopPublishesLifecycleEvents(t *testing.T) {
	b := bus.New()
	var topics []string
	b.Subscribe("loop.evt.*", func(e bus.Envelope) { topics = append(topics, e.Topic) })
	var payloads []interface{}
	b.Subscribe("loop.evt.execute", func(e bus.Envelope) { payloads = append(payloads, e.Payload) })

	l := eventLoop(nil)
	l.Bus = b
	l.Tick(time.Minute)

	want := []string{"loop.evt.finding", "loop.evt.plan", "loop.evt.execute"}
	if strings.Join(topics, ",") != strings.Join(want, ",") {
		t.Fatalf("topics = %v, want %v", topics, want)
	}
	if len(payloads) != 1 {
		t.Fatalf("execute events = %d, want 1", len(payloads))
	}
	res, ok := payloads[0].(ActionResult)
	if !ok || !res.Honored || res.Action.Kind != "cool" {
		t.Errorf("execute payload = %#v", payloads[0])
	}
	// The whole tick must publish as one batch: published counts 3 envelopes.
	if pub, del := b.Stats(); pub != 3 || del != 4 {
		t.Errorf("bus stats = %d, %d; want 3, 4", pub, del)
	}
}

func TestLoopPublishesVetoAndFailedExecute(t *testing.T) {
	b := bus.New()
	counts := map[string]int{}
	b.Subscribe("loop.evt.*", func(e bus.Envelope) {
		counts[strings.TrimPrefix(e.Topic, "loop.evt.")]++
	})

	vetoed := eventLoop(nil)
	vetoed.Bus = b
	vetoed.Guards = []Guardrail{GuardrailFunc(func(now time.Duration, loop string, a Action) error {
		return fmt.Errorf("no")
	})}
	vetoed.Tick(time.Minute)
	if counts["veto"] != 1 || counts["execute"] != 0 {
		t.Errorf("after veto: %v", counts)
	}

	failing := eventLoop(fmt.Errorf("actuator offline"))
	failing.Bus = b
	failing.Tick(2 * time.Minute)
	if counts["execute"] != 1 {
		t.Errorf("after failed execute: %v", counts)
	}
}

func TestLoopWithoutBusPublishesNothing(t *testing.T) {
	l := eventLoop(nil)
	l.Tick(time.Minute) // must not panic with a nil bus
	if l.Metrics().ExecutedActions != 1 {
		t.Errorf("metrics = %+v", l.Metrics())
	}
}

// trail records a loop's bus events as "kind" or "kind: reason" lines, the
// reason being an ActionResult's Detail or a PhaseError.
type trail struct{ lines []string }

func attachTrail(l *Loop) *trail {
	tr := &trail{}
	l.Bus = bus.New()
	prefix := "loop." + l.Name + "."
	l.Bus.Subscribe(prefix+"*", func(e bus.Envelope) {
		line := strings.TrimPrefix(e.Topic, prefix)
		switch p := e.Payload.(type) {
		case ActionResult:
			if p.Detail != "" {
				line += ": " + p.Detail
			}
		case PhaseError:
			line += ": " + p.Phase + ": " + p.Err
		}
		tr.lines = append(tr.lines, line)
	})
	return tr
}

// take returns the lines recorded since the last take.
func (tr *trail) take() []string {
	out := tr.lines
	tr.lines = nil
	return out
}

// count reports how many recorded lines start with kind.
func (tr *trail) count(kind string) int {
	n := 0
	for _, line := range tr.lines {
		if line == kind || strings.HasPrefix(line, kind+":") {
			n++
		}
	}
	return n
}

// phaseLoop builds a loop like eventLoop whose named phase fails with
// "<phase> down".
func phaseLoop(failing string) *Loop {
	fail := func(phase string) error {
		if phase == failing {
			return errors.New(phase + " down")
		}
		return nil
	}
	return NewLoop("evt",
		MonitorFunc(func(now time.Duration) (Observation, error) {
			return Observation{Time: now}, fail("monitor")
		}),
		AnalyzerFunc(func(now time.Duration, obs Observation) (Symptoms, error) {
			return Symptoms{Time: now, Findings: []Finding{{Kind: "hot", Subject: "n1"}}}, fail("analyze")
		}),
		PlannerFunc(func(now time.Duration, sym Symptoms) (Plan, error) {
			return Plan{Time: now, Actions: []Action{{Kind: "cool", Subject: "n1"}}}, fail("plan")
		}),
		ExecutorFunc(func(now time.Duration, a Action) (ActionResult, error) {
			return ActionResult{Action: a, Honored: true}, fail("execute")
		}),
	)
}

// TestLoopDecisionTrailEvents drives every outcome a loop can reach and pins
// what each step publishes, in order: the bus stream is the loop's whole
// account of itself.
func TestLoopDecisionTrailEvents(t *testing.T) {
	humanIn := func(human HumanModel) func(*Loop) {
		return func(l *Loop) {
			l.Mode = HumanInTheLoop
			l.Human = human
			l.Clock = sim.VirtualClock{Engine: sim.NewEngine(1)}
			l.Rng = rand.New(rand.NewSource(1))
		}
	}
	withSink := func(l *Loop) *sinkRecorder {
		sink := &sinkRecorder{}
		l.Mode = HumanInTheLoop
		l.Approvals = sink
		return sink
	}
	cases := []struct {
		name    string
		failing string
		setup   func(*Loop)
		tick    func(*Loop) // default: Tick
		after   func(*Loop) // one out-of-tick step, if any
		want    [][]string  // per step: the tick, then after
	}{
		{name: "execute", want: [][]string{{"finding", "plan", "execute"}}},
		{name: "execute failed", failing: "execute",
			want: [][]string{{"finding", "plan", "execute: execute down"}}},
		{name: "veto", setup: func(l *Loop) {
			l.Guards = []Guardrail{ConfidenceGate{Min: 0.5}}
		}, want: [][]string{{"finding", "plan", "veto: confidence 0.00 below gate 0.50"}}},
		{name: "arbitrated", tick: func(l *Loop) {
			pt := l.PlanTick(time.Minute)
			pt.Arbitrate(0, "lost n1 to power-cap/cap")
			l.ExecutePlanned(pt)
		}, want: [][]string{{"finding", "plan", "arbitrated: lost n1 to power-cap/cap"}}},
		{name: "defer to sink", setup: func(l *Loop) { withSink(l) },
			want: [][]string{{"finding", "plan", "defer: queued for operator approval"}}},
		{name: "defer to simulated human",
			setup: humanIn(HumanModel{Latency: sim.Constant{V: 10 * time.Minute}, Availability: 1}),
			after: func(l *Loop) { l.Clock.(sim.VirtualClock).Engine.Run() },
			want:  [][]string{{"finding", "plan", "defer: awaiting approval, eta 10m0s"}, {"execute"}}},
		{name: "defer to contingency",
			setup: humanIn(HumanModel{Availability: 0, ContingencyAfter: time.Hour}),
			after: func(l *Loop) { l.Clock.(sim.VirtualClock).Engine.Run() },
			want:  [][]string{{"finding", "plan", "defer: human absent, contingency in 1h0m0s"}, {"execute"}}},
		{name: "drop without clock", setup: func(l *Loop) { l.Mode = HumanInTheLoop },
			want: [][]string{{"finding", "plan", "drop: no clock for human approval"}}},
		{name: "drop absent human", setup: humanIn(HumanModel{Availability: 0}),
			want: [][]string{{"finding", "plan", "drop: human absent, no contingency"}}},
		{name: "approve", setup: func(l *Loop) { withSink(l) },
			after: func(l *Loop) { l.Approvals.(*sinkRecorder).got[0].Resolve(2*time.Minute, true, "") },
			want:  [][]string{{"finding", "plan", "defer: queued for operator approval"}, {"execute"}}},
		{name: "deny", setup: func(l *Loop) { withSink(l) },
			after: func(l *Loop) { l.Approvals.(*sinkRecorder).got[0].Resolve(2*time.Minute, false, "not today") },
			want:  [][]string{{"finding", "plan", "defer: queued for operator approval"}, {"deny: not today"}}},
		{name: "stale", setup: func(l *Loop) { withSink(l) },
			after: func(l *Loop) {
				_ = l.Pause()
				l.Approvals.(*sinkRecorder).got[0].Resolve(2*time.Minute, true, "")
			},
			want: [][]string{{"finding", "plan", "defer: queued for operator approval"},
				{"stale: deferred action invalidated by lifecycle (gen 0 != 1 or state paused)"}}},
		{name: "monitor error", failing: "monitor", want: [][]string{{"error: monitor: monitor down"}}},
		{name: "analyze error", failing: "analyze", want: [][]string{{"error: analyze: analyze down"}}},
		{name: "plan error", failing: "plan", want: [][]string{{"finding", "error: plan: plan down"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := phaseLoop(tc.failing)
			tr := attachTrail(l)
			if tc.setup != nil {
				tc.setup(l)
			}
			if tc.tick != nil {
				tc.tick(l)
			} else {
				l.Tick(time.Minute)
			}
			got := [][]string{tr.take()}
			if tc.after != nil {
				tc.after(l)
				got = append(got, tr.take())
			}
			if fmt.Sprintf("%q", got) != fmt.Sprintf("%q", tc.want) {
				t.Errorf("published %q, want %q", got, tc.want)
			}
		})
	}
}
