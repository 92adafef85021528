package fleet

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/core"
	"autoloop/internal/knowledge"
	"autoloop/internal/sim"
)

// staticLoop builds a loop that always plans the given actions and records
// which of them executed.
type staticLoop struct {
	loop     *core.Loop
	executed []core.Action
}

func newStaticLoop(name string, actions ...core.Action) *staticLoop {
	s := &staticLoop{}
	s.loop = core.NewLoop(name,
		core.MonitorFunc(func(now time.Duration) (core.Observation, error) {
			return core.Observation{Time: now}, nil
		}),
		core.AnalyzerFunc(func(now time.Duration, obs core.Observation) (core.Symptoms, error) {
			return core.Symptoms{Time: now}, nil
		}),
		core.PlannerFunc(func(now time.Duration, sym core.Symptoms) (core.Plan, error) {
			return core.Plan{Time: now, Actions: actions}, nil
		}),
		core.ExecutorFunc(func(now time.Duration, a core.Action) (core.ActionResult, error) {
			s.executed = append(s.executed, a)
			return core.ActionResult{Action: a, Honored: true, Granted: a.Amount}, nil
		}),
	)
	return s
}

func TestPriorityArbitration(t *testing.T) {
	capLoop := newStaticLoop("power-cap", core.Action{Kind: "cap", Subject: "n001", Amount: 100, Confidence: 1})
	boost := newStaticLoop("sched-boost", core.Action{Kind: "boost", Subject: "n001", Amount: 50, Confidence: 1})
	boost.loop.Bus = bus.New()
	var reasons []string
	boost.loop.Bus.Subscribe("loop.sched-boost.arbitrated", func(e bus.Envelope) {
		reasons = append(reasons, e.Payload.(*core.ActionResult).Detail.String())
	})

	c := New(4)
	c.Add(capLoop.loop, 10)
	c.Add(boost.loop, 5)
	c.Tick(time.Minute)

	if len(capLoop.executed) != 1 || capLoop.executed[0].Kind != "cap" {
		t.Fatalf("winner executed = %v, want the cap", capLoop.executed)
	}
	if len(boost.executed) != 0 {
		t.Fatalf("loser executed = %v, want none", boost.executed)
	}
	if m := boost.loop.Metrics(); m.ArbitratedActions != 1 {
		t.Errorf("loser ArbitratedActions = %d, want 1", m.ArbitratedActions)
	}
	if m := capLoop.loop.Metrics(); m.ArbitratedActions != 0 {
		t.Errorf("winner ArbitratedActions = %d, want 0", m.ArbitratedActions)
	}
	if len(reasons) != 1 || !strings.Contains(reasons[0], "power-cap/cap") {
		t.Errorf("arbitrated event reasons = %q, want one naming the winner", reasons)
	}
	if cm := c.Metrics(); cm.Rounds != 1 || cm.Planned != 2 || cm.Arbitrated != 1 || cm.Conflicts != 1 {
		t.Errorf("coordinator metrics = %+v", cm)
	}
}

func TestSameKindDoesNotConflict(t *testing.T) {
	a := newStaticLoop("a", core.Action{Kind: "checkpoint", Subject: "job7"})
	b := newStaticLoop("b", core.Action{Kind: "checkpoint", Subject: "job7"})
	c := New(2)
	c.Add(a.loop, 1)
	c.Add(b.loop, 2)
	c.Tick(time.Minute)
	if len(a.executed) != 1 || len(b.executed) != 1 {
		t.Fatalf("same-kind actions must both execute: a=%d b=%d", len(a.executed), len(b.executed))
	}
	if cm := c.Metrics(); cm.Conflicts != 0 || cm.Arbitrated != 0 {
		t.Errorf("metrics = %+v, want no conflicts", cm)
	}
}

func TestDifferentSubjectsDoNotConflict(t *testing.T) {
	a := newStaticLoop("a", core.Action{Kind: "cap", Subject: "n001"})
	b := newStaticLoop("b", core.Action{Kind: "boost", Subject: "n002"})
	c := New(2)
	c.Add(a.loop, 1)
	c.Add(b.loop, 2)
	c.Tick(time.Minute)
	if len(a.executed) != 1 || len(b.executed) != 1 {
		t.Fatalf("disjoint subjects must both execute: a=%d b=%d", len(a.executed), len(b.executed))
	}
}

func TestIntraLoopActionsNeverArbitrated(t *testing.T) {
	a := newStaticLoop("a",
		core.Action{Kind: "raise", Subject: "plant"},
		core.Action{Kind: "lower", Subject: "plant"})
	c := New(2)
	c.Add(a.loop, 1)
	c.Tick(time.Minute)
	if len(a.executed) != 2 {
		t.Fatalf("a loop's own contradictions are its own business: executed %d, want 2", len(a.executed))
	}
}

func TestArbitratedEventOnBus(t *testing.T) {
	b := bus.New()
	var arbitrated, conflicts, rounds int
	b.Subscribe("loop.sched-boost.arbitrated", func(bus.Envelope) { arbitrated++ })
	b.Subscribe(TopicConflict, func(e bus.Envelope) {
		conflicts++
		rec, ok := e.Payload.(ConflictRecord)
		if !ok || rec.Winner != "power-cap/cap" || len(rec.Losers) != 1 || rec.Losers[0] != "sched-boost/boost" {
			t.Errorf("conflict payload = %#v", e.Payload)
		}
	})
	b.Subscribe(TopicRound, func(e bus.Envelope) {
		rounds++
		sum, ok := e.Payload.(RoundSummary)
		if !ok || sum.Loops != 2 || sum.Planned != 2 || sum.Arbitrated != 1 || sum.Conflicts != 1 {
			t.Errorf("round payload = %#v", e.Payload)
		}
	})

	capLoop := newStaticLoop("power-cap", core.Action{Kind: "cap", Subject: "n001"})
	boost := newStaticLoop("sched-boost", core.Action{Kind: "boost", Subject: "n001"})
	capLoop.loop.Bus = b
	boost.loop.Bus = b
	c := New(2).PublishTo(b, "fleet-test")
	c.Add(capLoop.loop, 10)
	c.Add(boost.loop, 5)
	c.Tick(time.Minute)

	if arbitrated != 1 || conflicts != 1 || rounds != 1 {
		t.Errorf("arbitrated=%d conflicts=%d rounds=%d, want 1 each", arbitrated, conflicts, rounds)
	}
}

func TestDisabledLoopSkipsRound(t *testing.T) {
	a := newStaticLoop("a", core.Action{Kind: "cap", Subject: "n001"})
	if err := a.loop.Pause(); err != nil {
		t.Fatal(err)
	}
	b := newStaticLoop("b", core.Action{Kind: "boost", Subject: "n001"})
	c := New(2)
	c.Add(a.loop, 10)
	c.Add(b.loop, 1)
	c.Tick(time.Minute)
	if len(a.executed) != 0 || len(b.executed) != 1 {
		t.Fatalf("disabled loop must not contest: a=%d b=%d", len(a.executed), len(b.executed))
	}
}

func TestRunEvery(t *testing.T) {
	engine := sim.NewEngine(1)
	a := newStaticLoop("a", core.Action{Kind: "x", Subject: "s"})
	c := New(1)
	c.Add(a.loop, 0)
	c.RunEvery(sim.VirtualClock{Engine: engine}, time.Minute, func() bool { return engine.Now() >= 5*time.Minute })
	engine.Run()
	if got := c.Metrics().Rounds; got != 4 { // at 1,2,3,4 min (stop at >= 5)
		t.Fatalf("rounds = %d, want 4", got)
	}
}

// fleetScript runs a deterministic multi-loop scenario with the given worker
// count and returns a transcript: every bus envelope's topic and payload,
// the coordinator's metrics, and the shared knowledge base's state.
func fleetScript(t *testing.T, workers int) string {
	t.Helper()
	kb := knowledge.NewBase()
	b := bus.New()
	var mu sync.Mutex
	var events []string
	b.Subscribe("*", func(e bus.Envelope) {
		mu.Lock()
		events = append(events, fmt.Sprintf("[%v] %s %+v", e.Time, e.Topic, e.Payload))
		mu.Unlock()
	})

	c := New(workers).PublishTo(b, "script")
	const loops = 24
	for i := 0; i < loops; i++ {
		i := i
		name := fmt.Sprintf("loop%02d", i)
		kind := "boost"
		if i%3 == 0 {
			kind = "cap"
		}
		subject := fmt.Sprintf("n%03d", i%8) // 3 loops per subject: guaranteed conflicts
		l := core.NewLoop(name,
			core.MonitorFunc(func(now time.Duration) (core.Observation, error) {
				// Concurrent reads of the shared knowledge base.
				_ = kb.Correction(name)
				_, _ = kb.TypicalRuntime(name)
				return core.Observation{Time: now}, nil
			}),
			core.AnalyzerFunc(func(now time.Duration, obs core.Observation) (core.Symptoms, error) {
				return core.Symptoms{Time: now, Findings: []core.Finding{
					{Kind: "load", Subject: subject, Value: float64(i), Confidence: 1},
				}}, nil
			}),
			core.PlannerFunc(func(now time.Duration, sym core.Symptoms) (core.Plan, error) {
				return core.Plan{Time: now, Actions: []core.Action{
					{Kind: kind, Subject: subject, Amount: float64(i), Confidence: 1},
				}}, nil
			}),
			core.ExecutorFunc(func(now time.Duration, a core.Action) (core.ActionResult, error) {
				// Serial execute halves write the shared knowledge base.
				kb.ResolveCorrection(name, 100, 100+float64(i))
				kb.SetFact(name+".last", a.Amount)
				return core.ActionResult{Action: a, Honored: true, Granted: a.Amount}, nil
			}),
		)
		l.Bus = b
		l.K = kb
		c.Add(l, i%5)
	}
	for round := 1; round <= 5; round++ {
		c.Tick(time.Duration(round) * time.Minute)
	}

	var sb strings.Builder
	sb.WriteString(strings.Join(events, "\n"))
	fmt.Fprintf(&sb, "\nmetrics=%+v\n", c.Metrics())
	fmt.Fprintf(&sb, "plans=%d\n", kb.Assess("").Plans)
	return sb.String()
}

// TestRoundDeterminism is the tentpole's core promise: the same scenario
// produces a byte-identical transcript whether planned sequentially or on a
// full worker pool.
func TestRoundDeterminism(t *testing.T) {
	sequential := fleetScript(t, 1)
	concurrent := fleetScript(t, 8)
	if sequential != concurrent {
		t.Fatalf("transcripts diverge between workers=1 and workers=8:\n--- sequential ---\n%s\n--- concurrent ---\n%s",
			sequential, concurrent)
	}
	if !strings.Contains(sequential, ".arbitrated ") {
		t.Fatal("scenario produced no arbitration; determinism check is vacuous")
	}
}

func TestDuplicateLoopNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate loop name")
		}
	}()
	c := New(1)
	c.Add(newStaticLoop("same").loop, 0)
	c.Add(newStaticLoop("same").loop, 0)
}
