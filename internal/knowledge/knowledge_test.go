package knowledge

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"autoloop/internal/analytics"
)

func TestTypicalRuntimeMedian(t *testing.T) {
	b := NewBase()
	for _, d := range []time.Duration{time.Hour, 2 * time.Hour, 10 * time.Hour} {
		b.AddRun(RunRecord{App: "lbm", Runtime: d, Completed: true})
	}
	b.AddRun(RunRecord{App: "lbm", Runtime: 100 * time.Hour, Completed: false}) // killed: ignored
	b.AddRun(RunRecord{App: "other", Runtime: time.Minute, Completed: true})
	got, ok := b.TypicalRuntime("lbm")
	if !ok || got != 2*time.Hour {
		t.Errorf("TypicalRuntime = %v, %v; want 2h", got, ok)
	}
	if _, ok := b.TypicalRuntime("missing"); ok {
		t.Error("missing app should not report")
	}
}

func TestRunsFor(t *testing.T) {
	b := NewBase()
	b.AddRun(RunRecord{App: "a"})
	b.AddRun(RunRecord{App: "b"})
	b.AddRun(RunRecord{App: "a"})
	if got := len(b.RunsFor("a")); got != 2 {
		t.Errorf("RunsFor(a) = %d", got)
	}
	if got := len(b.runs); got != 3 {
		t.Errorf("runs = %d", got)
	}
}

func TestPlanRecordingAndAssess(t *testing.T) {
	b := NewBase()
	i1 := b.RecordPlan(PlanRecord{Loop: "sched", Action: "extend", Predicted: 100})
	i2 := b.RecordPlan(PlanRecord{Loop: "sched", Action: "extend", Predicted: 80})
	b.RecordPlan(PlanRecord{Loop: "other", Action: "x", Predicted: 1})
	if err := b.ResolvePlan(i1, 90, true); err != nil { // over by 10
		t.Fatal(err)
	}
	if err := b.ResolvePlan(i2, 100, false); err != nil { // under by 20
		t.Fatal(err)
	}
	eff := b.Assess("sched")
	if eff.Plans != 2 || eff.Resolved != 2 || eff.Honored != 1 {
		t.Errorf("eff = %+v", eff)
	}
	if eff.OverCount != 1 || eff.UnderCount != 1 {
		t.Errorf("over/under = %d/%d", eff.OverCount, eff.UnderCount)
	}
	if math.Abs(eff.MeanAbsErr-15) > 1e-9 {
		t.Errorf("MeanAbsErr = %v, want 15", eff.MeanAbsErr)
	}
	all := b.Assess("")
	if all.Plans != 3 {
		t.Errorf("all plans = %d", all.Plans)
	}
	if err := b.ResolvePlan(99, 0, false); err == nil {
		t.Error("out-of-range resolve should error")
	}
}

func TestCorrectionLearning(t *testing.T) {
	b := NewBase()
	if got := b.Correction("app"); got != 1.0 {
		t.Errorf("default correction = %v", got)
	}
	// Forecasts consistently 20% short: actual/predicted = 1.25. With 30
	// resolutions, shrinkage weight is 30/32 — close to full strength.
	for i := 0; i < 30; i++ {
		b.ResolveCorrection("app", 100, 125)
	}
	if got := b.Correction("app"); math.Abs(got-1.25) > 0.03 {
		t.Errorf("correction = %v, want ~1.25", got)
	}
}

func TestCorrectionShrinksLowEvidence(t *testing.T) {
	b := NewBase()
	b.ResolveCorrection("app", 100, 200) // one sample says 2.0
	got := b.Correction("app")
	// n=1 -> weight 1/3 -> 1 + (2-1)/3 = 1.333...
	if math.Abs(got-4.0/3) > 0.01 {
		t.Errorf("single-sample correction = %v, want ~1.33 (shrunk)", got)
	}
	for i := 0; i < 20; i++ {
		b.ResolveCorrection("app", 100, 200)
	}
	if got := b.Correction("app"); got < 1.8 {
		t.Errorf("high-evidence correction = %v, want near 2.0", got)
	}
}

func TestCorrectionClampsOutliers(t *testing.T) {
	b := NewBase()
	b.ResolveCorrection("app", 1, 1000) // pathological ratio 1000 -> clamp 3
	if got := b.Correction("app"); got > 3.0001 {
		t.Errorf("correction = %v, want clamped <= 3", got)
	}
	b2 := NewBase()
	b2.ResolveCorrection("app", 1000, 1)
	if got := b2.Correction("app"); got < 1.0/3-0.001 {
		t.Errorf("correction = %v, want clamped >= 1/3", got)
	}
	// Invalid inputs ignored.
	b3 := NewBase()
	b3.ResolveCorrection("app", 0, 5)
	b3.ResolveCorrection("app", 5, -1)
	if got := b3.Correction("app"); got != 1.0 {
		t.Errorf("correction after invalid updates = %v", got)
	}
}

func TestFacts(t *testing.T) {
	b := NewBase()
	if _, ok := b.Fact("x"); ok {
		t.Error("missing fact should not report")
	}
	b.SetFact("x", 42)
	if v, ok := b.Fact("x"); !ok || v != 42 {
		t.Errorf("Fact = %v, %v", v, ok)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	b := NewBase()
	b.AddRun(RunRecord{App: "a", Runtime: time.Hour, Completed: true, Signature: analytics.Signature{"k": 1}})
	idx := b.RecordPlan(PlanRecord{Loop: "l", Action: "extend", Predicted: 10})
	_ = b.ResolvePlan(idx, 12, true)
	b.ResolveCorrection("a", 10, 12)
	b.SetFact("f", 7)

	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b2 := NewBase()
	if err := b2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if len(b2.runs) != 1 || b2.runs[0].App != "a" {
		t.Error("runs lost in round trip")
	}
	if len(b2.Plans()) != 1 || !b2.Plans()[0].Resolved {
		t.Error("plans lost in round trip")
	}
	if math.Abs(b2.Correction("a")-b.Correction("a")) > 1e-12 {
		t.Error("corrections lost")
	}
	if v, ok := b2.Fact("f"); !ok || v != 7 {
		t.Error("facts lost")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	b := NewBase()
	if err := b.Load(strings.NewReader("{nope")); err == nil {
		t.Error("expected decode error")
	}
}

func TestLoadEmptyMapsInitialized(t *testing.T) {
	b := NewBase()
	if err := b.Load(strings.NewReader(`{"runs":null,"plans":null}`)); err != nil {
		t.Fatal(err)
	}
	b.SetFact("x", 1)              // must not panic on nil map
	b.ResolveCorrection("a", 1, 2) // must not panic on nil map
}

func TestRunsReturnsCopy(t *testing.T) {
	b := NewBase()
	b.AddRun(RunRecord{App: "a"})
	runs := b.RunsFor("a")
	runs[0].App = "mutated"
	if b.runs[0].App != "a" {
		t.Error("RunsFor leaked internal storage")
	}
}
