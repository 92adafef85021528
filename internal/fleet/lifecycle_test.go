package fleet

import (
	"testing"
	"time"

	"autoloop/internal/core"
)

func TestAddEveryGatesCadence(t *testing.T) {
	fast := newStaticLoop("fast", core.Action{Kind: "a", Subject: "s1"})
	slow := newStaticLoop("slow", core.Action{Kind: "a", Subject: "s2"})
	c := New(1)
	c.Add(fast.loop, 0)
	c.AddEvery(slow.loop, 0, 3)
	for i := 1; i <= 6; i++ {
		c.Tick(time.Duration(i) * time.Minute)
	}
	if len(fast.executed) != 6 {
		t.Errorf("fast executed %d rounds, want 6", len(fast.executed))
	}
	// The slow member plans on its 3rd and 6th rounds after joining.
	if len(slow.executed) != 2 {
		t.Errorf("slow executed %d rounds, want 2", len(slow.executed))
	}
}

func TestRemoveUnregisters(t *testing.T) {
	a := newStaticLoop("a", core.Action{Kind: "k", Subject: "s"})
	b := newStaticLoop("b", core.Action{Kind: "k", Subject: "t"})
	c := New(1)
	c.Add(a.loop, 0)
	c.Add(b.loop, 0)
	if !c.Remove("a") {
		t.Fatal("Remove(a) = false")
	}
	if c.Remove("a") {
		t.Fatal("second Remove(a) = true")
	}
	c.Tick(time.Minute)
	if len(a.executed) != 0 || len(b.executed) != 1 {
		t.Errorf("a=%d b=%d, want removed loop silent", len(a.executed), len(b.executed))
	}
	// The name is free again.
	a2 := newStaticLoop("a", core.Action{Kind: "k", Subject: "s"})
	c.Add(a2.loop, 0)
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestDrainedLoopLeavesFleetWithinOneRound(t *testing.T) {
	a := newStaticLoop("a", core.Action{Kind: "k", Subject: "s"})
	b := newStaticLoop("b", core.Action{Kind: "k", Subject: "t"})
	c := New(1)
	c.Add(a.loop, 0)
	c.Add(b.loop, 0)
	c.Tick(time.Minute)
	if err := a.loop.Drain(); err != nil {
		t.Fatal(err)
	}
	c.Tick(2 * time.Minute) // round boundary completes the drain and prunes
	if a.loop.State() != core.StateStopped {
		t.Errorf("drained loop state = %s, want stopped", a.loop.State())
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d after drain, want 1", c.Len())
	}
	if len(a.executed) != 1 || len(b.executed) != 2 {
		t.Errorf("a=%d b=%d, want drained loop to miss the second round", len(a.executed), len(b.executed))
	}
	// Its name is free for a replacement.
	c.Add(newStaticLoop("a", core.Action{Kind: "k", Subject: "s"}).loop, 0)
}

// TestStoppedLoopLeavesFleetWithinOneRound: a round prunes only after a
// member drained or stopped, so a stop from outside any control op, and a
// loop that joins already stopped, must still count.
func TestStoppedLoopLeavesFleetWithinOneRound(t *testing.T) {
	a := newStaticLoop("a", core.Action{Kind: "k", Subject: "s"})
	b := newStaticLoop("b", core.Action{Kind: "k", Subject: "t"})
	c := New(1)
	c.Add(a.loop, 0)
	c.Add(b.loop, 0)
	c.Tick(time.Minute)
	if err := a.loop.Stop(); err != nil {
		t.Fatal(err)
	}
	c.Tick(2 * time.Minute)
	if c.Len() != 1 || len(a.executed) != 1 {
		t.Errorf("Len = %d, a executed %d rounds after its stop; want 1 and 1", c.Len(), len(a.executed))
	}
	late := newStaticLoop("late", core.Action{Kind: "k", Subject: "u"})
	if err := late.loop.Stop(); err != nil {
		t.Fatal(err)
	}
	c.Add(late.loop, 0)
	c.Tick(3 * time.Minute)
	if c.Len() != 1 || len(late.executed) != 0 {
		t.Errorf("Len = %d, late executed %d rounds; want the stopped joiner pruned unrun", c.Len(), len(late.executed))
	}
}

func TestPausedLoopSkipsRoundsButStays(t *testing.T) {
	a := newStaticLoop("a", core.Action{Kind: "k", Subject: "s"})
	c := New(1)
	c.Add(a.loop, 0)
	c.Tick(time.Minute)
	if err := a.loop.Pause(); err != nil {
		t.Fatal(err)
	}
	c.Tick(2 * time.Minute)
	c.Tick(3 * time.Minute)
	if err := a.loop.Resume(); err != nil {
		t.Fatal(err)
	}
	c.Tick(4 * time.Minute)
	if len(a.executed) != 2 {
		t.Errorf("executed %d rounds, want 2 (paused rounds skipped)", len(a.executed))
	}
	if c.Len() != 1 {
		t.Errorf("paused loop must stay registered, Len = %d", c.Len())
	}
}
