package control_test

import (
	"testing"
	"time"

	"autoloop/internal/app"
	"autoloop/internal/bus"
	"autoloop/internal/cases"
	"autoloop/internal/control"
	"autoloop/internal/core"
	"autoloop/internal/fleet"
	"autoloop/internal/sim"
)

// parentEvery is the I/O QoS campaign parent's cadence in the quiet fleet:
// the alloc gates measure whole cycles of it, so every loop plans in them.
const parentEvery = 3

// quietFleet spawns every stock case on a one-worker fleet over the test
// environment and runs it until it is quiet: two clean jobs running past
// warm-up and on track, a maintenance window far beyond the lead time, a
// power loop whose neutral band holds every temperature, and I/O QoS
// configured by the caller. The only
// finding left is that parent's "headroom" note, which plans nothing. b is
// attached to every loop (nil for none). It returns the service, the loops
// and the virtual time the quiet state was reached at.
func quietFleet(t *testing.T, b *bus.Bus, ioqosConfig string) (*control.Service, []*core.Loop, time.Duration) {
	t.Helper()
	env, engine, pipe := testEnv(t, 5)
	env.Bus = b
	env.Apps.RegisterSpec("steady", app.Spec{Name: "steady", TotalIters: 2000, IterTime: sim.Constant{V: time.Minute}})
	for i := 0; i < 2; i++ {
		if _, err := env.Scheduler.Submit("steady", "u", 2, 1000*time.Hour, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := env.Scheduler.AddMaintenance(500*time.Hour, 501*time.Hour); err != nil {
		t.Fatal(err)
	}
	coord := fleet.New(1)
	svc := control.NewService(cases.NewRegistry(), env, coord, time.Minute)
	for _, spec := range []string{
		`{"case": "scheduler", "period": "1m"}`,
		`{"case": "maintenance", "period": "1m"}`,
		`{"case": "ioqos", "period": "1m", "config": ` + ioqosConfig + `}`,
		`{"case": "ost", "period": "1m"}`,
		`{"case": "misconfig", "period": "1m"}`,
		`{"case": "power", "period": "1m", "config": {"TempLimitC": 200, "HeadroomC": 200}}`,
	} {
		ls, err := control.ParseSpec([]byte(spec))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Spawn(ls); err != nil {
			t.Fatal(err)
		}
	}
	now := time.Duration(0)
	for i := 0; i < 30; i++ {
		now += time.Minute
		engine.RunUntil(now)
		pipe.Sample(now)
		svc.Tick(now)
	}
	if n := len(env.Scheduler.RunningInto(nil)); n != 2 {
		t.Fatalf("%d jobs running at %v, want 2", n, now)
	}
	return svc, coord.Loops(), now
}

// findingsOf sums the loops' findings and planned actions so far.
func findingsOf(loops []*core.Loop) (findings, planned int) {
	for _, l := range loops {
		m := l.Metrics()
		findings += m.Findings
		planned += m.PlannedActions
	}
	return findings, planned
}

// TestQuietRoundAllocatesNothing is the control round's allocation gate:
// with every stock case spawned on a one-worker fleet, no bus and nothing to
// act on, whole ParentEvery cycles of Service.Tick allocate nothing. Every
// loop reads its telemetry in them — the application loops through the job
// instances' shared handles, the rest through the round view — into reused
// buffers, and reuses its PlannedTick.
func TestQuietRoundAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	svc, loops, now := quietFleet(t, nil, `{"ParentEvery": 3, "RecoverFactor": 1}`)
	cycle := func() {
		for k := 0; k < parentEvery; k++ {
			now += time.Second
			svc.Tick(now)
		}
	}
	cycle()
	f0, p0 := findingsOf(loops)
	allocs := testing.AllocsPerRun(50, cycle)
	f1, p1 := findingsOf(loops)
	if p1 != p0 {
		t.Fatalf("the fleet planned %d actions in the measured cycles; want a quiet fleet", p1-p0)
	}
	if perCycle := float64(f1-f0) / 51; perCycle != 1 {
		t.Fatalf("%.2f findings per cycle; want the campaign parent's one headroom note", perCycle)
	}
	if allocs != 0 {
		t.Errorf("a quiet %d-round cycle of Service.Tick allocates %.1f times, want 0", parentEvery, allocs)
	}
}

// allocsPerEnvelope bounds a round's allocations per envelope the loops
// publish once a bus is attached and they have something to say. Behind
// each envelope of a planned action sit the boxed payload and the case's own
// work: its action list, a Sprintf'd explanation and the knowledge write the
// action executes. The bus's batch dispatch plan and the arbiter's subject
// index are reused across rounds. The I/O QoS recovery measured here spends
// 4.
const allocsPerEnvelope = 6

// TestRoundAllocationsBoundedByEnvelopes attaches a bus and lets the I/O QoS
// campaign parent plan a recovery every cycle: the round's allocations stay
// within allocsPerEnvelope per envelope the loops publish.
func TestRoundAllocationsBoundedByEnvelopes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	b := bus.New()
	envelopes := 0
	b.Subscribe("loop.*", func(bus.Envelope) { envelopes++ })
	svc, _, now := quietFleet(t, b, `{"ParentEvery": 3, "RecoverFactor": 1.15, "CapacityMBps": 1e9}`)
	cycle := func() {
		for k := 0; k < parentEvery; k++ {
			now += time.Second
			svc.Tick(now)
		}
	}
	cycle()
	envelopes = 0
	const runs = 50
	allocs := testing.AllocsPerRun(runs, cycle)
	perCycle := float64(envelopes) / (runs + 1)
	if perCycle < 3 {
		t.Fatalf("%.1f envelopes per cycle; want the parent's finding, plan and execute at least", perCycle)
	}
	if allocs > allocsPerEnvelope*perCycle {
		t.Errorf("a %d-round cycle allocates %.1f times for %.1f envelopes; want at most %d per envelope",
			parentEvery, allocs, perCycle, allocsPerEnvelope)
	}
	t.Logf("%.1f allocations for %.1f envelopes per cycle", allocs, perCycle)
}
