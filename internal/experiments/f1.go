package experiments

import (
	"fmt"
	"time"

	"autoloop/internal/analytics"
	"autoloop/internal/app"
	"autoloop/internal/facility"
	"autoloop/internal/hw"
	"autoloop/internal/pfs"
	"autoloop/internal/sched"
	"autoloop/internal/sim"
	"autoloop/internal/telemetry"
	"autoloop/internal/tsdb"
)

// runF1 exercises the full Fig. 1 pipeline: sensors from building
// infrastructure, system hardware, system software, and applications flow
// through one monitoring plane into the TSDB; ODA detectors then diagnose an
// injected anomaly in each domain. The table reports detection latency per
// domain plus pipeline statistics.
func runF1(opt Options) *Result {
	res := &Result{
		Title: "Holistic MODA pipeline: one anomaly per Fig. 1 domain",
		Claim: "holistic monitoring spans facility, hardware, software, and applications; " +
			"ODA diagnoses across all of them from one data plane",
		Columns: []string{"domain", "signal", "injected-at", "detected-at", "latency"},
	}
	horizon := 8 * time.Hour
	if opt.Quick {
		horizon = 4 * time.Hour
	}
	engine := sim.NewEngine(opt.Seed)
	db := tsdb.New(0)

	ccfg := hw.DefaultConfig()
	ccfg.Nodes = 32
	cl := hw.New(engine, ccfg)
	plant := facility.New(engine, facility.DefaultConfig(), cl)
	fs := pfs.New(engine, pfs.Config{OSTs: 8, OSTBandwidthMBps: 300, DefaultStripeCount: 4})
	scheduler := sched.New(engine, cl.UpNodes(), sched.DefaultExtensionPolicy())
	runtime := app.NewRuntime(engine, db, fs, cl)
	runtime.Serve(scheduler)

	// The monitoring plane: every domain registers its collector; one
	// sampling cadence feeds the TSDB.
	reg := telemetry.NewRegistry()
	reg.Register(cl.Collector())
	reg.Register(plant.Collector())
	reg.Register(fs.Collector())
	reg.Register(scheduler.Collector())
	sample := 30 * time.Second
	pipe := telemetry.NewPipeline(reg, db)
	engine.Every(sample, sample, func() bool {
		pipe.Sample(engine.Now())
		return engine.Now() < horizon
	})

	// Steady workload: compute + I/O apps keeping the system warm.
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("steady%02d", i)
		runtime.RegisterSpec(name, app.Spec{
			Name: name, TotalIters: int(horizon/time.Minute) + 60,
			IterTime: sim.LogNormal{MeanV: time.Minute, CV: 0.1},
			IOEvery:  5, IOSizeMB: 200, StripeCount: 4,
		})
		if _, err := scheduler.Submit(name, "ops", 2, horizon+2*time.Hour, 0); err != nil {
			panic(err)
		}
	}

	// Injections, one per domain.
	injections := map[string]time.Duration{
		"hardware":    horizon / 4,
		"storage":     horizon / 2,
		"application": horizon * 3 / 4,
		"facility":    horizon / 8,
	}
	// Hardware: a busy node's fans fail — its thermal resistance rises 6x
	// and the component temperature runs far beyond the fleet.
	engine.At(injections["hardware"], func() { _ = cl.SetThermalFault("n000", 6) })
	// Storage: OST 5 degrades 10x.
	engine.At(injections["storage"], func() { _ = fs.SetOSTHealth(5, 0.1) })
	// Application: a misconfigured job starts (context-switch storm).
	runtime.RegisterSpec("storm", app.Spec{
		Name: "storm", TotalIters: 240, IterTime: sim.Constant{V: time.Minute},
		Misconfig: app.MisconfigThreads,
	})
	engine.At(injections["application"], func() {
		if _, err := scheduler.Submit("storm", "user9", 1, 5*time.Hour, 0); err != nil {
			panic(err)
		}
	})
	// Facility: cooling degradation — the supply setpoint is forced down,
	// collapsing the plant's COP and driving PUE up.
	engine.At(injections["facility"], func() { plant.SetSupplySetpointC(14) })

	// ODA detectors polling the TSDB (the Analyze half of Fig. 1).
	detected := map[string]time.Duration{}
	note := func(domain string, at time.Duration) {
		if _, seen := detected[domain]; !seen {
			detected[domain] = at
		}
	}
	pueCUSUM := analytics.NewCUSUM(10, 0.005, 0.05)
	// The detector poll is the per-tick inner loop of the ODA plane: points
	// and values go through reused buffers on the zero-copy LatestInto
	// surface, so polling allocates nothing in steady state.
	var ptsBuf []telemetry.Point
	var vals []float64
	engine.Every(time.Minute, time.Minute, func() bool {
		now := engine.Now()
		// Hardware: robust fleet outlier on node temperatures.
		if ptsBuf = db.LatestInto(ptsBuf[:0], "node.temp.celsius", nil); len(ptsBuf) > 4 {
			vals = vals[:0]
			for _, p := range ptsBuf {
				vals = append(vals, p.Value)
			}
			if outliers := analytics.MADOutliers(vals, 6, 1); len(outliers) > 0 {
				note("hardware", now)
			}
		}
		// Storage: MAD outlier across per-OST latency.
		if ptsBuf = db.LatestInto(ptsBuf[:0], "pfs.ost.lat_ms", nil); len(ptsBuf) >= 4 {
			vals = vals[:0]
			for _, p := range ptsBuf {
				if p.Value > 0.1 {
					vals = append(vals, p.Value)
				}
			}
			if len(vals) >= 4 && len(analytics.MADOutliers(vals, 5, 1)) > 0 {
				note("storage", now)
			}
		}
		// Application: context-switch storm threshold.
		ptsBuf = db.LatestInto(ptsBuf[:0], "app.ctx_switch_rate", nil)
		for _, p := range ptsBuf {
			if p.Value > 20000 {
				note("application", now)
			}
		}
		// Facility: CUSUM on PUE.
		if pue, ok := db.LatestValue("facility.pue", telemetry.Labels{"plant": "p0"}); ok {
			if pueCUSUM.Step(pue) {
				note("facility", now)
			}
		}
		return now < horizon
	})

	engine.RunUntil(horizon)

	for _, domain := range []string{"facility", "hardware", "storage", "application"} {
		inj := injections[domain]
		det, ok := detected[domain]
		detStr, latStr := "MISSED", "-"
		if ok && det >= inj {
			detStr = det.String()
			latStr = (det - inj).String()
		} else if ok && det < inj {
			detStr = det.String()
			latStr = "FALSE-POSITIVE"
		}
		signal := map[string]string{
			"facility":    "facility.pue (CUSUM)",
			"hardware":    "node.temp.celsius (fleet MAD)",
			"storage":     "pfs.ost.lat_ms (fleet MAD)",
			"application": "app.ctx_switch_rate (threshold)",
		}[domain]
		res.AddRow(domain, signal, inj.String(), detStr, latStr)
	}
	res.AddNote("pipeline: %d collectors, %d series, %d samples ingested over %v of operation",
		reg.Size(), db.NumSeries(), db.Appended(), horizon)
	return res
}
