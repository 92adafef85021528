package experiments

import (
	"fmt"
	"time"

	"autoloop/internal/cases/powercase"
	"autoloop/internal/control"
	"autoloop/internal/core"
	"autoloop/internal/facility"
	"autoloop/internal/fleet"
	"autoloop/internal/hw"
	"autoloop/internal/sim"
	"autoloop/internal/telemetry"
	"autoloop/internal/tsdb"
)

// plantWorld is the facility EXP-X1 and EXP-C1 share: 32 nodes cooled by one
// plant whose supply setpoint reaches the node inlets, under a diurnal load,
// sampled every 30 s into the TSDB. The sampler also tracks the hottest node
// seen, the node samples above the temperature limit, and the cooling energy.
type plantWorld struct {
	engine *sim.Engine
	db     *tsdb.DB
	plant  *facility.Plant
	pipe   *telemetry.Pipeline

	hottest   float64
	breaches  int
	coolingWh float64
}

// newPlantWorld builds the world and schedules its load and sampler until
// horizon. The load is registered before the sampler: the engine runs
// same-time events in insertion order, so this order is part of both tables.
func newPlantWorld(opt Options, horizon time.Duration, tempLimit float64) *plantWorld {
	engine := sim.NewEngine(opt.Seed)
	ccfg := hw.DefaultConfig()
	ccfg.Nodes = 32
	ccfg.SensorNoise = 0.01
	cl := hw.New(engine, ccfg)
	plant := facility.New(engine, facility.DefaultConfig(), cl)
	plant.BindAmbient(cl)
	w := &plantWorld{engine: engine, db: tsdb.New(0), plant: plant}
	w.pipe = telemetry.NewPipeline(telemetry.NewRegistryOf(cl.Collector(), plant.Collector()), w.db)

	// Diurnal load: half the fleet busy at night, nearly all of it by the end
	// of the horizon.
	engine.Every(time.Minute, time.Minute, func() bool {
		frac := 0.5 + 0.45*engine.Now().Hours()/horizon.Hours()
		nodes := cl.UpNodes()
		busy := int(frac * float64(len(nodes)))
		for i, n := range nodes {
			if i < busy {
				cl.SetUtil(n, 0.9)
			} else {
				cl.SetUtil(n, 0.05)
			}
		}
		return engine.Now() < horizon
	})
	engine.Every(30*time.Second, 30*time.Second, func() bool {
		w.pipe.Sample(engine.Now())
		w.coolingWh += plant.CoolingPowerW(engine.Now()) * 30 / 3600
		for _, p := range w.db.Latest("node.temp.celsius", nil) {
			if p.Value > w.hottest {
				w.hottest = p.Value
			}
			if p.Value > tempLimit {
				w.breaches++
			}
		}
		return engine.Now() < horizon
	})
	return w
}

// runX1 exercises the facility-domain energy loop the paper's §IV gestures
// at ("safe operations of power and energy controls"): raise the supply-air
// setpoint to save cooling energy when the fleet has thermal headroom, gated
// by confidence; never exceed the component temperature limit.
func runX1(opt Options) *Result {
	res := &Result{
		Title: "Cooling-energy optimization under a hard thermal limit",
		Claim: "confidence measures are required ... particularly for safe operations of power and " +
			"energy controls (§IV); the loop must save energy without thermal violations",
		Columns: []string{"mode", "final-setpoint", "cooling-kWh", "saved-vs-static",
			"hottest-node", "limit-violations", "raises/lowers"},
	}
	horizon := 12 * time.Hour
	if opt.Quick {
		horizon = 6 * time.Hour
	}
	const tempLimit = 80.0

	type variant struct {
		name    string
		enabled bool
		gate    float64
	}
	variants := []variant{
		{"static-setpoint", false, 0},
		{"loop-ungated", true, 0},
		{"loop-gated-0.5", true, 0.5},
	}
	var staticKWh float64
	for _, v := range variants {
		w := newPlantWorld(opt, horizon, tempLimit)
		// moves counts the loop's honored setpoint movements by kind.
		moves := map[string]int{}
		if v.enabled {
			sp := spawn(&control.Env{Querier: w.db, Plant: w.plant}, control.LoopSpec{
				Case:   powercase.CaseName,
				Config: []byte(fmt.Sprintf(`{"TempLimitC": %g}`, tempLimit)),
			})
			loop := sp.Loop()
			moves = honored(loop)
			if v.gate > 0 {
				loop.Guards = []core.Guardrail{core.ConfidenceGate{Min: v.gate}}
			}
			// The loop runs under a fleet coordinator — same cadence, same
			// results (the coordinator's round is deterministic), and the
			// scenario is ready to take more facility-domain loops.
			coord := fleet.New(0)
			coord.Add(loop, sp.Priority)
			coord.RunEvery(sim.VirtualClock{Engine: w.engine}, 5*time.Minute,
				func() bool { return w.engine.Now() >= horizon })
		}
		w.engine.RunUntil(horizon)

		kwh := w.coolingWh / 1000
		if v.name == "static-setpoint" {
			staticKWh = kwh
		}
		saved := "-"
		if staticKWh > 0 && v.name != "static-setpoint" {
			saved = pct(staticKWh-kwh, staticKWh)
		}
		res.AddRow(v.name,
			fmt.Sprintf("%.1f°C", w.plant.SupplySetpointC()),
			fmt.Sprintf("%.1f", kwh),
			saved,
			fmt.Sprintf("%.1f°C", w.hottest),
			w.breaches,
			fmt.Sprintf("%d/%d", moves["raise-setpoint"], moves["lower-setpoint"]),
		)
	}
	res.AddNote("diurnal load ramps 50%% -> 95%% of the fleet over %v; limit %.0f°C", horizon, tempLimit)
	res.AddNote("the loop must show energy savings with zero limit violations; the gate trades savings for margin")
	return res
}
