package control_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"autoloop/internal/app"
	"autoloop/internal/cases"
	"autoloop/internal/control"
	"autoloop/internal/fleet"
	"autoloop/internal/sim"
)

// TestSharedInstanceHandles runs misconfiguration and maintenance loops on a
// two-worker fleet, so their plan phases read the job instances' shared
// handles concurrently, while jobs keep starting (each start creates series
// and invalidates every handle of those metrics). The loops compute their
// round readings privately, so every loop reads the handles itself. The
// loops must detect what a one-worker fleet detects, with the same
// counters. Run ten times under -race in CI, it guards the memo hand-off
// between plan workers.
func TestSharedInstanceHandles(t *testing.T) {
	run := func(workers int) []string {
		env, engine, pipe := testEnv(t, 9)
		env.Bus = nil
		kinds := []app.Misconfig{app.MisconfigNone, app.MisconfigThreads, app.MisconfigWrongLib, app.MisconfigUnderutil}
		for i, kind := range kinds {
			name := fmt.Sprintf("job-%d", i)
			env.Apps.RegisterSpec(name, app.Spec{
				Name: name, TotalIters: 600, IterTime: sim.Constant{V: 30 * time.Second}, Misconfig: kind,
			})
			at := time.Duration(i) * 7 * time.Minute
			engine.At(at, func() {
				if _, err := env.Scheduler.Submit(name, "u", 2, 75*time.Minute, 0); err != nil {
					t.Error(err)
				}
			})
		}
		if err := env.Scheduler.AddMaintenance(100*time.Minute, 2*time.Hour); err != nil {
			t.Fatal(err)
		}
		coord := fleet.New(workers)
		svc := control.NewService(cases.NewRegistry(), env, coord, time.Minute)
		control.ReadPrivately(svc)
		for i := 0; i < 4; i++ {
			for _, c := range []string{"misconfig", "maintenance"} {
				spec := control.LoopSpec{Case: c, Name: fmt.Sprintf("%s-%d", c, i), Period: control.Duration(time.Minute)}
				if _, err := svc.Spawn(spec); err != nil {
					t.Fatal(err)
				}
			}
		}
		for now := time.Minute; now <= 100*time.Minute; now += time.Minute {
			engine.RunUntil(now)
			pipe.Sample(now)
			svc.Tick(now)
		}
		var out []string
		for _, l := range coord.Loops() {
			if l.Metrics().Findings == 0 {
				t.Errorf("%d workers: loop %s found nothing; want every loop reading its jobs", workers, l.Name)
			}
			out = append(out, fmt.Sprintf("%s %+v", l.Name, l.Metrics()))
		}
		return out
	}
	serial, parallel := run(1), run(2)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("two plan workers diverge from one:\n got %q\nwant %q", parallel, serial)
	}
}
