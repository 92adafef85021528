package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestConfidenceGate(t *testing.T) {
	cases := []struct {
		name       string
		min, conf  float64
		wantVetoed bool
	}{
		{"above gate passes", 0.5, 0.9, false},
		{"exactly at gate passes", 0.5, 0.5, false},
		{"below gate vetoed", 0.5, 0.49, true},
		{"zero gate passes zero confidence", 0, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := ConfidenceGate{Min: tc.min}
			err := g.Check(time.Second, "l", Action{Kind: "x", Subject: "s", Confidence: tc.conf})
			if (err != nil) != tc.wantVetoed {
				t.Errorf("Check conf=%v gate=%v: err=%v, want veto=%v", tc.conf, tc.min, err, tc.wantVetoed)
			}
		})
	}
}

func TestRateLimitSlidingWindow(t *testing.T) {
	r := NewRateLimit(2, time.Minute)
	a := Action{Kind: "x", Subject: "s"}
	if err := r.Check(0, "l", a); err != nil {
		t.Fatalf("first action vetoed: %v", err)
	}
	if err := r.Check(10*time.Second, "l", a); err != nil {
		t.Fatalf("second action vetoed: %v", err)
	}
	if err := r.Check(20*time.Second, "l", a); err == nil {
		t.Fatal("third action within window must be vetoed")
	}
	// The first action (t=0) leaves the sliding window at t>60s; one slot
	// frees up. The rejected attempt at t=20s must not have consumed budget.
	if err := r.Check(61*time.Second, "l", a); err != nil {
		t.Fatalf("action after window slid must pass: %v", err)
	}
	if err := r.Check(62*time.Second, "l", a); err == nil {
		t.Fatal("window is full again; action must be vetoed")
	}
}

func TestRateLimitPanicsOnBadConfig(t *testing.T) {
	for _, fn := range []func(){
		func() { NewRateLimit(0, time.Minute) },
		func() { NewRateLimit(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on non-positive rate-limit config")
				}
			}()
			fn()
		}()
	}
}

func TestSubjectCap(t *testing.T) {
	c := NewSubjectCap("extend", 2)
	ext := func(subject string) Action { return Action{Kind: "extend", Subject: subject} }
	for i := 0; i < 2; i++ {
		if err := c.Check(0, "l", ext("job1")); err != nil {
			t.Fatalf("extend %d on job1 vetoed: %v", i+1, err)
		}
	}
	if err := c.Check(0, "l", ext("job1")); err == nil {
		t.Fatal("third extend on job1 must be vetoed")
	}
	if err := c.Check(0, "l", ext("job2")); err != nil {
		t.Fatalf("other subject must have its own budget: %v", err)
	}
	if err := c.Check(0, "l", Action{Kind: "checkpoint", Subject: "job1"}); err != nil {
		t.Fatalf("other kind must not be capped: %v", err)
	}
}

func TestSubjectCapEmptyKindMatchesAll(t *testing.T) {
	c := NewSubjectCap("", 1)
	if err := c.Check(0, "l", Action{Kind: "a", Subject: "s"}); err != nil {
		t.Fatalf("first action vetoed: %v", err)
	}
	if err := c.Check(0, "l", Action{Kind: "b", Subject: "s"}); err == nil {
		t.Fatal("kind-agnostic cap must count every kind")
	}
}

func TestDryRunVetoesEverything(t *testing.T) {
	if err := (DryRun{}).Check(0, "l", Action{Kind: "x", Subject: "s", Confidence: 1}); err == nil {
		t.Fatal("dry-run must veto")
	}
}

// guardedLoop builds a loop planning one action, with the given guards, and
// the trail of its bus events.
func guardedLoop(guards ...Guardrail) (*Loop, *trail) {
	l := NewLoop("guarded",
		MonitorFunc(func(now time.Duration) (Observation, error) { return Observation{Time: now}, nil }),
		AnalyzerFunc(func(now time.Duration, obs Observation) (Symptoms, error) {
			return Symptoms{Time: now, Findings: []Finding{{Kind: "f", Subject: "s", Confidence: 0.9}}}, nil
		}),
		PlannerFunc(func(now time.Duration, sym Symptoms) (Plan, error) {
			return Plan{Time: now, Actions: []Action{{Kind: "act", Subject: "s", Confidence: 0.9}}}, nil
		}),
		ExecutorFunc(func(now time.Duration, a Action) (ActionResult, error) {
			return ActionResult{Action: a, Honored: true}, nil
		}),
	)
	l.Guards = guards
	return l, attachTrail(l)
}

func TestGuardOrderingFirstErrorWins(t *testing.T) {
	var calls []string
	mk := func(name string, err error) Guardrail {
		return GuardrailFunc(func(now time.Duration, loop string, a Action) error {
			calls = append(calls, name)
			return err
		})
	}
	l, tr := guardedLoop(
		mk("pass", nil),
		mk("veto-a", errors.New("first veto")),
		mk("veto-b", errors.New("second veto")),
	)
	l.Tick(time.Second)

	if want := []string{"pass", "veto-a"}; strings.Join(calls, ",") != strings.Join(want, ",") {
		t.Errorf("guard calls = %v, want %v (later guards must not run after a veto)", calls, want)
	}
	m := l.Metrics()
	if m.VetoedActions != 1 || m.ExecutedActions != 0 {
		t.Errorf("metrics = %+v, want 1 veto, 0 executions", m)
	}
	if want := []string{"finding", "plan", "veto: first veto"}; strings.Join(tr.lines, ",") != strings.Join(want, ",") {
		t.Errorf("events = %q, want %q (one veto carrying the first guard's error)", tr.lines, want)
	}
}

func TestGuardPassPathExecutesAndAudits(t *testing.T) {
	l, tr := guardedLoop(ConfidenceGate{Min: 0.5}, NewSubjectCap("act", 3))
	l.Tick(time.Second)
	m := l.Metrics()
	if m.VetoedActions != 0 || m.ExecutedActions != 1 {
		t.Errorf("metrics = %+v, want a clean execution", m)
	}
	if tr.count("veto") != 0 {
		t.Error("pass path must not publish a veto")
	}
	if tr.count("execute") != 1 {
		t.Error("execution not published")
	}
}

func TestEachBuiltinGuardrailVetoPathInLoop(t *testing.T) {
	cases := []struct {
		name  string
		guard Guardrail
	}{
		{"confidence gate", ConfidenceGate{Min: 0.95}},
		{"dry run", DryRun{}},
		{"exhausted subject cap", func() Guardrail {
			c := NewSubjectCap("act", 1)
			if err := c.Check(0, "warm", Action{Kind: "act", Subject: "s"}); err != nil {
				t.Fatalf("warmup: %v", err)
			}
			return c
		}()},
		{"exhausted rate limit", func() Guardrail {
			r := NewRateLimit(1, time.Hour)
			if err := r.Check(time.Second, "warm", Action{Kind: "act", Subject: "s"}); err != nil {
				t.Fatalf("warmup: %v", err)
			}
			return r
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, tr := guardedLoop(tc.guard)
			l.Tick(time.Second)
			m := l.Metrics()
			if m.VetoedActions != 1 || m.ExecutedActions != 0 {
				t.Errorf("metrics = %+v, want 1 veto, 0 executions", m)
			}
			if got := tr.count("veto"); got != 1 {
				t.Errorf("veto events = %d, want 1", got)
			}
		})
	}
}

func TestGuardErrorTextReachesAudit(t *testing.T) {
	l, tr := guardedLoop(GuardrailFunc(func(now time.Duration, loop string, a Action) error {
		return fmt.Errorf("budget %s exhausted", a.Subject)
	}))
	l.Tick(time.Second)
	if tr.count("veto: budget s exhausted") != 1 {
		t.Fatalf("events = %q, want a veto carrying the guard's error text", tr.lines)
	}
}
