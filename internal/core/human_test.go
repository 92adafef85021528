package core

import (
	"testing"
	"time"

	"autoloop/internal/sim"
)

// sinkRecorder captures deferred actions routed to an ApprovalSink.
type sinkRecorder struct{ got []DeferredAction }

func (s *sinkRecorder) Defer(d DeferredAction) { s.got = append(s.got, d) }

// approveAfter is an approval sink that approves each action after a
// fixed delay on an engine's virtual clock, as a simulated human or a
// contingency timer would.
type approveAfter struct {
	engine *sim.Engine
	after  time.Duration
}

func (a approveAfter) Defer(d DeferredAction) {
	a.engine.At(d.Decided+a.after, func() { d.Resolve(a.engine.Now(), true, "") })
}

// approverFunc adapts a function to ApprovalSink.
type approverFunc func(DeferredAction)

func (f approverFunc) Defer(d DeferredAction) { f(d) }

// timedApprovalLoop builds a human-in-the-loop test loop on a virtual
// clock whose actions are approved after the given delay.
func timedApprovalLoop(after time.Duration) (*Loop, *recorder, *sim.Engine) {
	engine := sim.NewEngine(1)
	l, rec := newTestLoop(0.9)
	l.Mode = HumanInTheLoop
	l.Approvals = approveAfter{engine, after}
	return l, rec, engine
}

// checkStale asserts that the one deferred action went stale: counted,
// and never handed to the executor.
func checkStale(t *testing.T, l *Loop, rec *recorder) {
	t.Helper()
	if len(rec.executed) != 0 {
		t.Fatal("stale deferred action reached the executor")
	}
	if m := l.Metrics(); m.StaleDeferred != 1 || m.ExecutedActions != 0 {
		t.Errorf("metrics = %+v, want 1 stale, 0 executed", m)
	}
}

func TestPauseInvalidatesDeferredAction(t *testing.T) {
	l, rec, engine := timedApprovalLoop(10 * time.Minute)
	engine.At(time.Minute, func() { l.Tick(engine.Now()) })
	engine.At(5*time.Minute, func() {
		if err := l.Pause(); err != nil {
			t.Errorf("Pause: %v", err)
		}
	})
	// Resume before the approval arrives: the generation moved on, so the
	// pre-pause action is stale and must not execute even though the loop
	// is running again.
	engine.At(7*time.Minute, func() {
		if err := l.Resume(); err != nil {
			t.Errorf("Resume: %v", err)
		}
	})
	engine.RunUntil(time.Hour)
	checkStale(t, l, rec)
}

func TestDrainInvalidatesContingency(t *testing.T) {
	l, rec, engine := timedApprovalLoop(30 * time.Minute)
	engine.At(time.Minute, func() { l.Tick(engine.Now()) })
	engine.At(5*time.Minute, func() {
		if err := l.Drain(); err != nil {
			t.Errorf("Drain: %v", err)
		}
	})
	engine.RunUntil(2 * time.Hour)
	checkStale(t, l, rec)
}

// approvalLoop builds a human-in-the-loop test loop whose actions go to a
// recording sink.
func approvalLoop() (*Loop, *recorder, *sinkRecorder) {
	l, rec := newTestLoop(0.9)
	l.Mode = HumanInTheLoop
	sink := &sinkRecorder{}
	l.Approvals = sink
	return l, rec, sink
}

// The sink receives the action, and it executes only when the sink
// approves it, with decision latency from the deferral.
func TestApprovalSinkReceivesInsteadOfHumanModel(t *testing.T) {
	l, rec, sink := approvalLoop()
	l.Tick(time.Minute)
	if len(rec.executed) != 0 {
		t.Fatal("sink-routed action executed without a verdict")
	}
	if len(sink.got) != 1 {
		t.Fatalf("sink received %d actions, want 1", len(sink.got))
	}
	d := sink.got[0]
	if d.Loop != l || d.Action.Kind != "lower" || d.Decided != time.Minute {
		t.Errorf("deferred action = %+v", d)
	}
	if m := l.Metrics(); m.DeferredActions != 1 {
		t.Errorf("metrics = %+v", m)
	}

	// Approve: executes with decision latency from the deferral epoch.
	if !d.Resolve(31*time.Minute, true, "") {
		t.Fatal("Resolve(approve) reported not executed")
	}
	if len(rec.executed) != 1 {
		t.Fatal("approved action did not execute")
	}
	if m := l.Metrics(); m.ExecutedActions != 1 || m.DecisionLatency != 30*time.Minute {
		t.Errorf("metrics = %+v, want 30m decision latency", m)
	}
}

func TestApprovalSinkDenyAndStale(t *testing.T) {
	l, rec, sink := approvalLoop()
	l.Tick(time.Minute)
	l.Tick(2 * time.Minute)
	if len(sink.got) != 2 {
		t.Fatalf("sink received %d actions, want 2", len(sink.got))
	}

	// Deny the first.
	if d := sink.got[0]; d.Resolve(5*time.Minute, false, "not today") {
		t.Fatal("denied action executed")
	}
	if m := l.Metrics(); m.DeniedActions != 1 {
		t.Errorf("metrics = %+v, want 1 denied", m)
	}

	// Pause, then approve the second: it is stale and must not execute.
	if err := l.Pause(); err != nil {
		t.Fatal(err)
	}
	d := sink.got[1]
	if !d.Stale() {
		t.Fatal("action not stale after pause")
	}
	if d.Resolve(6*time.Minute, true, "") {
		t.Fatal("stale action executed despite approval")
	}
	if m := l.Metrics(); m.StaleDeferred != 1 || m.ExecutedActions != 0 {
		t.Errorf("metrics = %+v, want 1 stale, 0 executed", m)
	}
	if len(rec.executed) != 0 {
		t.Fatal("no action should have reached the executor")
	}
}
