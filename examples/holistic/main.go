// Holistic: the paper's Fig. 1 end to end.
//
// Sensors from all four domains — building infrastructure (cooling plant),
// system hardware (nodes), system software (parallel filesystem), and
// applications — feed one monitoring plane; operational data analytics
// watch the combined stream and diagnose an injected fault in each domain,
// while a two-loop fleet responds. The whole run is one scenario document:
// facility, workload, fleet and fault schedule, assembled by
// scenario.Assemble like every other full stack in the repo.
//
// Run: go run ./examples/holistic
package main

import (
	"fmt"
	"math"
	"time"

	"autoloop/internal/analytics"
	"autoloop/internal/cases"
	"autoloop/internal/control"
	"autoloop/internal/scenario"
	"autoloop/internal/telemetry"
)

const horizon = 4 * time.Hour

func main() {
	ost3 := 3
	minute := control.Duration(time.Minute)
	doc := &scenario.Spec{
		Name:    "holistic",
		Seed:    7,
		Horizon: control.Duration(horizon),
		// One component per Fig. 1 box: nodes, cooling plant, filesystem.
		Facility: scenario.Facility{Nodes: 16, Plant: true, OSTs: 8, OSTBandwidthMBps: 300, StripeCount: 4},
		Workload: &scenario.Workload{
			Jobs: 5, ArrivalMean: control.Duration(time.Second),
			Classes: []scenario.JobClass{{
				Name: "steady", Tenant: "ops", ItersMin: 300, ItersMax: 300,
				IterMean: minute, IterCV: 0.1, NodesMin: 2, NodesMax: 2,
				IOEvery: 5, IOSizeMB: 200, StripeCount: 4, WalltimeFactor: 1.6,
			}},
		},
		// Autonomous response: the power loop manages cooling energy under
		// the thermal limit, the OST loop steers applications off degraded
		// storage; the coordinator's arbiter would resolve any same-subject
		// conflict between them by priority.
		Loops: []scenario.Loop{
			{LoopSpec: control.LoopSpec{Case: "power", Period: minute}},
			{LoopSpec: control.LoopSpec{Case: "ost", Period: minute}},
		},
		// One fault per domain; the facility one is set by hand below.
		Injections: []scenario.Injection{
			{Kind: scenario.KindThermalCascade, At: control.Duration(time.Hour), Node: "n000", Count: 1, Severity: 6, Duration: control.Duration(3 * time.Hour)},
			{Kind: scenario.KindDiskFailures, At: control.Duration(90 * time.Minute), OST: &ost3, Count: 1, Severity: 0.1, Duration: control.Duration(150 * time.Minute)},
			{Kind: scenario.KindMisconfigSweep, At: control.Duration(2 * time.Hour), Count: 1, Duration: control.Duration(2 * time.Hour)},
		},
	}
	rt, err := scenario.Assemble(doc, cases.NewRegistry())
	if err != nil {
		panic(err)
	}
	engine, db := rt.Engine, rt.DB
	engine.At(30*time.Minute, func() { rt.Plant.SetSupplySetpointC(14) }) // facility: cooling waste

	// --- operational data analytics over the combined stream ---
	pueDetector := analytics.NewCUSUM(10, 0.005, 0.05)
	found := map[string]time.Duration{}
	// The ODA poll reads through the zero-copy LatestInto surface into
	// buffers reused across ticks — steady-state polling allocates nothing.
	var ptsBuf []telemetry.Point
	var vals []float64
	engine.Every(time.Minute, time.Minute, func() bool {
		now := engine.Now()
		if ptsBuf = db.LatestInto(ptsBuf[:0], "node.temp.celsius", nil); len(ptsBuf) > 4 {
			vals = vals[:0]
			for _, p := range ptsBuf {
				vals = append(vals, p.Value)
			}
			if len(analytics.MADOutliers(vals, 6, 1)) > 0 {
				mark(found, "hardware: node temperature outlier", now)
			}
		}
		if ptsBuf = db.LatestInto(ptsBuf[:0], "pfs.ost.lat_ms", nil); len(ptsBuf) >= 4 {
			vals = vals[:0]
			for _, p := range ptsBuf {
				if p.Value > 0.1 {
					vals = append(vals, p.Value)
				}
			}
			if len(vals) >= 4 && len(analytics.MADOutliers(vals, 5, 1)) > 0 {
				mark(found, "storage: OST latency outlier", now)
			}
		}
		ptsBuf = db.LatestInto(ptsBuf[:0], "app.ctx_switch_rate", nil)
		for _, p := range ptsBuf {
			if p.Value > 20000 {
				mark(found, "application: context-switch storm", now)
			}
		}
		if pue, ok := db.LatestValue("facility.pue", telemetry.Labels{"plant": "p0"}); ok && pueDetector.Step(pue) {
			mark(found, "facility: PUE drift", now)
		}
		return now < horizon
	})

	rep, err := rt.Run()
	if err != nil {
		panic(err)
	}

	fmt.Println("holistic MODA run complete")
	fmt.Printf("  %d series, %d samples across 4 domains\n", db.NumSeries(), db.Appended())
	fmt.Println("  diagnoses:")
	for _, what := range []string{"facility: PUE drift", "hardware: node temperature outlier",
		"storage: OST latency outlier", "application: context-switch storm"} {
		if when, ok := found[what]; ok {
			fmt.Printf("   %-42s at %v\n", what, when)
		}
	}
	cm := rt.Ctl.Coordinator().Metrics()
	fmt.Printf("  fleet: %d rounds, %d actions planned, %d conflicts arbitrated\n",
		cm.Rounds, cm.Planned, cm.Arbitrated)
	// The control plane reports the same fleet as LoopStatus rows — the
	// in-process form of a control.v1 list request.
	if r := rt.Ctl.Handle(control.Request{Op: control.OpList}); r.OK {
		for _, st := range r.Loops {
			fmt.Printf("   %-11s %-10s %-10s executed=%d honored=%d\n",
				st.Case, st.Name, st.State, st.Metrics.Executed, st.Metrics.Honored)
		}
	}
	fmt.Println("\n  the fleet's response, scored against the fault schedule:")
	fmt.Print(rep.Table())

	// The Fig. 1 "Visualize" box: each domain's headline signal.
	fmt.Println("\n  headline signals (4h of operation, one anomaly per domain):")
	show := func(name string, matcher telemetry.Labels) {
		s, ok := db.QueryOne(name, matcher, 0, engine.Now())
		if !ok || len(s.Samples) == 0 {
			return
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, p := range s.Samples {
			lo, hi = math.Min(lo, p.Value), math.Max(hi, p.Value)
		}
		fmt.Printf("   %-20s %4d samples, first %.4g, last %.4g, range [%.4g, %.4g]\n",
			name, len(s.Samples), s.Samples[0].Value, s.Samples[len(s.Samples)-1].Value, lo, hi)
	}
	show("facility.pue", telemetry.Labels{"plant": "p0"})
	show("node.temp.celsius", telemetry.Labels{"node": "n000"})
	show("pfs.ost.lat_ms", telemetry.Labels{"ost": "ost03"})
	show("app.ctx_switch_rate", telemetry.Labels{"app": "sweep-2h0m0s-00"})
}

func mark(found map[string]time.Duration, what string, now time.Duration) {
	if _, ok := found[what]; !ok {
		found[what] = now
	}
}
