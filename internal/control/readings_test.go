package control_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"autoloop/internal/app"
	"autoloop/internal/bus"
	"autoloop/internal/cases"
	"autoloop/internal/control"
	"autoloop/internal/fleet"
	"autoloop/internal/sim"
)

// readingLadder is four copies of every stock case. Within a case the
// configs differ in the parameters a reading is keyed by (maintenance's
// LeadTime) and in those each loop applies to a shared reading on its own
// (misconfiguration's WarmupAfterStart, OST's MinLatMS, power's limits),
// with one pair of equal keys per keyed case; the last copy of each ticks
// every other round, so some rounds read a reading from fewer loops. The
// maintenance loops wait for an approval that never comes, so each one
// finds the endangered jobs when its own lead time reaches the window,
// instead of the first one requeueing them for all.
var readingLadder = []string{
	`{"case": "power", "name": "power-0"}`,
	`{"case": "power", "name": "power-1", "config": {"TempLimitC": 80, "HeadroomC": 10}}`,
	`{"case": "power", "name": "power-2", "config": {"TempLimitC": 75, "HeadroomC": 14}}`,
	`{"case": "power", "name": "power-3", "period": "2m", "config": {"TempLimitC": 90, "HeadroomC": 20}}`,
	`{"case": "ost", "name": "ost-0", "period": "1m"}`,
	`{"case": "ost", "name": "ost-1", "period": "1m", "config": {"MinLatMS": 2, "Consecutive": 1}}`,
	`{"case": "ost", "name": "ost-2", "period": "1m", "config": {"MinLatMS": 20, "Threshold": 3}}`,
	`{"case": "ost", "name": "ost-3", "period": "2m", "config": {"MinLatMS": 1e9}}`,
	`{"case": "misconfig", "name": "misconfig-0", "period": "1m", "config": {"WarmupAfterStart": 60000000000}}`,
	`{"case": "misconfig", "name": "misconfig-1", "period": "1m"}`,
	`{"case": "misconfig", "name": "misconfig-2", "period": "1m", "config": {"WarmupAfterStart": 120000000000, "Consecutive": 4, "IdleUtil": 0.2}}`,
	`{"case": "misconfig", "name": "misconfig-3", "period": "2m", "config": {"WarmupAfterStart": 900000000000}}`,
	`{"case": "maintenance", "mode": "human-in-the-loop", "name": "maintenance-0", "period": "1m", "config": {"LeadTime": 1200000000000}}`,
	`{"case": "maintenance", "mode": "human-in-the-loop", "name": "maintenance-1", "period": "1m", "config": {"LeadTime": 2400000000000}}`,
	`{"case": "maintenance", "mode": "human-in-the-loop", "name": "maintenance-2", "period": "1m", "config": {"LeadTime": 2400000000000, "SafetyMargin": 0}}`,
	`{"case": "maintenance", "mode": "human-in-the-loop", "name": "maintenance-3", "period": "2m", "config": {"LeadTime": 3600000000000}}`,
	`{"case": "scheduler", "name": "scheduler-0", "period": "1m"}`,
	`{"case": "scheduler", "name": "scheduler-1", "period": "1m"}`,
	`{"case": "scheduler", "name": "scheduler-2", "period": "1m"}`,
	`{"case": "scheduler", "name": "scheduler-3", "period": "2m"}`,
	`{"case": "ioqos", "name": "ioqos-0", "period": "1m"}`,
	`{"case": "ioqos", "name": "ioqos-1", "period": "1m", "config": {"ThrottleFactor": 0.5}}`,
	`{"case": "ioqos", "name": "ioqos-2", "period": "1m", "config": {"RecoverFactor": 1.2}}`,
	`{"case": "ioqos", "name": "ioqos-3", "period": "2m"}`,
}

// runLadder runs readingLadder on a four-worker fleet over a facility with
// something for every case to find: misconfigured, I/O-heavy and clean jobs,
// a node whose cooling fails, a degraded OST and a maintenance window. It
// returns each loop's event stream, each loop's finding count and the store
// reads the rounds made.
func runLadder(t *testing.T, private bool) (map[string][]string, map[string]int, map[readKey]int) {
	t.Helper()
	env, engine, pipe := testEnv(t, 3)
	store := &countingQuerier{Querier: env.Querier, reads: make(map[readKey]int)}
	env.Querier = store
	env.Bus = bus.New()
	events, findings := make(map[string][]string), make(map[string]int)
	env.Bus.Subscribe("loop.*", func(e bus.Envelope) {
		events[e.Source] = append(events[e.Source], fmt.Sprintf("%v %s %+v", e.Time, e.Topic, e.Payload))
		if strings.HasSuffix(e.Topic, ".finding") {
			findings[e.Source]++
		}
	})

	kinds := []app.Misconfig{app.MisconfigNone, app.MisconfigThreads, app.MisconfigWrongLib, app.MisconfigUnderutil}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("job-%d", i)
		spec := app.Spec{
			Name: name, TotalIters: 200 + 40*i, IterTime: sim.Constant{V: 30 * time.Second},
			Misconfig: kinds[i%len(kinds)],
		}
		if i%2 == 0 {
			spec.IterTime, spec.IOEvery, spec.IOSizeMB, spec.StripeCount = sim.Constant{V: 10 * time.Second}, 3, 400, 4
		}
		env.Apps.RegisterSpec(name, spec)
		at := time.Duration(i) * 9 * time.Minute
		engine.At(at, func() {
			if _, err := env.Scheduler.Submit(name, fmt.Sprintf("u%d", i%2), 1+i%2, 3*time.Hour, 0); err != nil {
				t.Error(err)
			}
		})
	}
	engine.At(20*time.Minute, func() { _ = env.Cluster.SetThermalFault(env.Cluster.Nodes()[0].ID, 8) })
	engine.At(50*time.Minute, func() { _ = env.Cluster.SetThermalFault(env.Cluster.Nodes()[0].ID, 1) })
	engine.At(30*time.Minute, func() { _ = env.FS.SetOSTHealth(1, 0.05) })
	engine.At(50*time.Minute, func() { _ = env.FS.SetOSTHealth(1, 1) })
	// The window is announced once every job runs, so it catches some.
	engine.At(50*time.Minute, func() {
		if err := env.Scheduler.AddMaintenance(100*time.Minute, 110*time.Minute); err != nil {
			t.Error(err)
		}
	})

	svc := control.NewService(cases.NewRegistry(), env, fleet.New(4), time.Minute)
	if private {
		control.ReadPrivately(svc)
	}
	for _, doc := range readingLadder {
		spec, err := control.ParseSpec([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Spawn(spec); err != nil {
			t.Fatal(err)
		}
	}
	for now := time.Minute; now <= 2*time.Hour; now += time.Minute {
		engine.RunUntil(now)
		pipe.Sample(now)
		svc.Tick(now)
	}
	return events, findings, store.take()
}

// TestSharedReadingsMatchPrivateReads is the round memo's equivalence
// oracle: a fleet whose loops share their round readings publishes, loop by
// loop, exactly the events it publishes when every loop computes its
// readings on its own. The shared run must also have shared something: it
// walks the declared inputs fewer times.
func TestSharedReadingsMatchPrivateReads(t *testing.T) {
	shared, findings, sharedReads := runLadder(t, false)
	private, _, privateReads := runLadder(t, true)

	for _, c := range []string{"power", "ost", "misconfig", "maintenance"} {
		for i := 0; i < 3; i++ { // the fourth OST loop's MinLatMS is above every latency
			if name := fmt.Sprintf("%s-%d", c, i); findings[name] == 0 {
				t.Errorf("loop %s found nothing; want every case that reads a shared reading to act on it", name)
			}
		}
	}
	if len(shared) != len(private) {
		t.Errorf("%d loops published with shared readings, %d with private ones", len(shared), len(private))
	}
	for name, want := range private {
		got := shared[name]
		for i := 0; i < len(got) || i < len(want); i++ {
			if i >= len(got) || i >= len(want) || got[i] != want[i] {
				var g, w string
				if i < len(got) {
					g = got[i]
				}
				if i < len(want) {
					w = want[i]
				}
				t.Errorf("loop %s event %d differs (%d vs %d events):\nshared  %s\nprivate %s", name, i, len(got), len(want), g, w)
				break
			}
		}
	}
	for _, metric := range []string{"node.temp.celsius", "pfs.ost.lat_ms"} {
		k := readKey{"LatestInto", metric, false}
		if sharedReads[k] >= privateReads[k] {
			t.Errorf("%s: %d store walks with shared readings, %d with private ones; want fewer", metric, sharedReads[k], privateReads[k])
		}
	}
}
