package ostcase

import (
	"testing"
	"time"

	"autoloop/internal/fleet"
	"autoloop/internal/sim"
)

// TestDetectsAndAvoidsUnderFleetCoordinator converts the case to the
// concurrent fleet coordinator: the degraded-OST response must fire exactly
// as it does with direct ticking.
func TestDetectsAndAvoidsUnderFleetCoordinator(t *testing.T) {
	r := newRig(t, 8)
	r.ioApp(t, "writer", 8)
	coord := fleet.New(0)
	coord.Add(r.loop, FleetPriority)
	coord.RunEvery(sim.VirtualClock{Engine: r.e}, time.Minute, nil)

	r.e.RunUntil(20 * time.Minute)
	if n := r.reopens(); n != 0 {
		t.Fatalf("false positive: %d responses during healthy phase", n)
	}
	if err := r.fs.SetOSTHealth(3, 0.1); err != nil {
		t.Fatal(err)
	}
	r.e.RunUntil(60 * time.Minute)
	if n := r.reopens(); n != 1 {
		t.Fatalf("reopens = %d, want 1", n)
	}
	if len(r.ctl.avoided) != 1 || !r.ctl.avoided[3] {
		t.Fatalf("avoided = %v, want OST 3", r.ctl.avoided)
	}
}
