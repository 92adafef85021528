package core

import (
	"testing"
	"time"
)

func TestLifecycleTransitions(t *testing.T) {
	l, _ := newTestLoop(0.9)
	if l.State() != StateCreated {
		t.Fatalf("new loop state = %s, want created", l.State())
	}
	if !l.State().Tickable() {
		t.Fatal("created loop must be tickable")
	}
	if err := l.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if l.State() != StateRunning {
		t.Fatalf("state = %s after Start", l.State())
	}
	gen := l.Generation()
	if err := l.Pause(); err != nil {
		t.Fatalf("Pause: %v", err)
	}
	if l.State() != StatePaused || l.Generation() != gen+1 {
		t.Fatalf("state = %s gen = %d, want paused gen %d", l.State(), l.Generation(), gen+1)
	}
	if err := l.Resume(); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if l.State() != StateRunning {
		t.Fatalf("state = %s after Resume", l.State())
	}
	if err := l.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := l.Pause(); err == nil {
		t.Fatal("Pause must be invalid while draining")
	}
	if err := l.Resume(); err == nil {
		t.Fatal("Resume must be invalid while draining")
	}
	l.FinishDrain()
	if l.State() != StateStopped {
		t.Fatalf("state = %s after FinishDrain", l.State())
	}
	if err := l.Resume(); err == nil {
		t.Fatal("Resume must be invalid once stopped")
	}
	if err := l.Stop(); err != nil {
		t.Fatalf("Stop must be idempotent: %v", err)
	}
}

func TestFirstTickAutoStarts(t *testing.T) {
	l, rec := newTestLoop(0.9)
	l.Tick(time.Second)
	if l.State() != StateRunning {
		t.Fatalf("state = %s after first tick, want running", l.State())
	}
	if len(rec.executed) != 1 {
		t.Fatal("first tick did not execute")
	}
}

func TestPausedLoopSkipsAndResumes(t *testing.T) {
	l, rec := newTestLoop(0.9)
	l.Tick(time.Second)
	if err := l.Pause(); err != nil {
		t.Fatal(err)
	}
	l.Tick(2 * time.Second)
	if m := l.Metrics(); m.Ticks != 1 || len(rec.executed) != 1 {
		t.Fatalf("paused loop ticked: metrics=%+v executed=%d", m, len(rec.executed))
	}
	if err := l.Resume(); err != nil {
		t.Fatal(err)
	}
	l.Tick(3 * time.Second)
	if m := l.Metrics(); m.Ticks != 2 || len(rec.executed) != 2 {
		t.Fatalf("resumed loop did not tick: metrics=%+v executed=%d", m, len(rec.executed))
	}
}

func TestDrainCompletesAtTickBoundary(t *testing.T) {
	l, rec := newTestLoop(0.9)
	l.Tick(time.Second)
	if err := l.Drain(); err != nil {
		t.Fatal(err)
	}
	if l.State() != StateDraining {
		t.Fatalf("state = %s, want draining", l.State())
	}
	l.Tick(2 * time.Second) // the tick boundary completes the drain
	if l.State() != StateStopped {
		t.Fatalf("state = %s after post-drain tick, want stopped", l.State())
	}
	if len(rec.executed) != 1 {
		t.Fatal("draining loop planned new work")
	}
}

func TestParseModeAndState(t *testing.T) {
	for _, m := range []Mode{Autonomous, HumanOnTheLoop, HumanInTheLoop} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("ParseMode accepted bogus input")
	}
	for _, s := range []LifecycleState{StateCreated, StateRunning, StatePaused, StateDraining, StateStopped} {
		got, err := ParseLifecycleState(s.String())
		if err != nil || got != s {
			t.Errorf("ParseLifecycleState(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseLifecycleState("bogus"); err == nil {
		t.Error("ParseLifecycleState accepted bogus input")
	}
}

// TestLifecycleFastPathAllocs gates the lifecycle overhead on the two hot
// paths: the running-state check itself, and the skipped tick of a paused
// loop (which must reuse the shared sentinel instead of allocating an
// execute half).
func TestLifecycleFastPathAllocs(t *testing.T) {
	l, _ := newTestLoop(0.9)
	l.Tick(time.Second)
	var ok bool
	if n := testing.AllocsPerRun(1000, func() { ok = l.State().Tickable() }); n != 0 {
		t.Errorf("running-state check allocates %v/op, want 0", n)
	}
	_ = ok
	if err := l.Pause(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() { l.Tick(2 * time.Second) }); n != 0 {
		t.Errorf("paused-loop tick allocates %v/op, want 0", n)
	}
}

func BenchmarkLifecycleCheck(b *testing.B) {
	l, _ := newTestLoop(0.9)
	l.Tick(time.Second)
	b.Run("running-state", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !l.State().Tickable() {
				b.Fatal("loop not running")
			}
		}
	})
	b.Run("paused-tick", func(b *testing.B) {
		if err := l.Pause(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l.Tick(time.Duration(i))
		}
	})
}
