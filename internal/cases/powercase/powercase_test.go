package powercase

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/control"
	"autoloop/internal/core"
	"autoloop/internal/facility"
	"autoloop/internal/hw"
	"autoloop/internal/sim"
	"autoloop/internal/telemetry"
	"autoloop/internal/tsdb"
)

type rig struct {
	e     *sim.Engine
	db    *tsdb.DB
	cl    *hw.Cluster
	plant *facility.Plant
	ctl   *controller
	// loop is the case's one loop; moves counts its honored setpoint
	// movements by action kind, read from its execute events.
	loop  *core.Loop
	moves map[string]int
}

func newRig(t *testing.T) *rig {
	t.Helper()
	e := sim.NewEngine(1)
	db := tsdb.New(0)
	ccfg := hw.DefaultConfig()
	ccfg.Nodes = 8
	ccfg.SensorNoise = 0
	cl := hw.New(e, ccfg)
	plant := facility.New(e, facility.DefaultConfig(), cl)
	plant.BindAmbient(cl) // setpoint changes feed back into node temps
	reg := telemetry.NewRegistry()
	reg.Register(cl.Collector())
	reg.Register(plant.Collector())
	pipe := telemetry.NewPipeline(reg, db)
	e.Every(30*time.Second, 30*time.Second, func() bool {
		pipe.Sample(e.Now())
		return e.Now() < 12*time.Hour
	})
	r := &rig{e: e, db: db, cl: cl, plant: plant, ctl: newController(DefaultConfig(), db, plant), moves: map[string]int{}}
	r.loop = r.ctl.loop()
	r.loop.Bus = bus.New()
	r.loop.Bus.Subscribe("loop.power-case.execute", func(env bus.Envelope) {
		if res := env.Payload.(*core.ActionResult); res.Honored {
			r.moves[res.Action.Kind]++
		}
	})
	return r
}

func TestRaisesSetpointWithHeadroom(t *testing.T) {
	r := newRig(t)
	// Idle cluster: nodes sit near ambient, enormous headroom.
	start := r.plant.SupplySetpointC()
	r.loop.RunEvery(sim.VirtualClock{Engine: r.e}, 5*time.Minute, func() bool { return r.e.Now() > 6*time.Hour })
	r.e.RunUntil(6 * time.Hour)
	if got := r.plant.SupplySetpointC(); got <= start {
		t.Errorf("setpoint = %v, want raised above %v", got, start)
	}
	if got := r.plant.SupplySetpointC(); got > r.ctl.cfg.MaxSetpointC {
		t.Errorf("setpoint %v exceeded ceiling %v", got, r.ctl.cfg.MaxSetpointC)
	}
	if r.moves["raise-setpoint"] == 0 || r.moves["lower-setpoint"] != 0 {
		t.Errorf("moves = %v, want raises only", r.moves)
	}
}

func TestStopsAtCeiling(t *testing.T) {
	r := newRig(t)
	r.loop.RunEvery(sim.VirtualClock{Engine: r.e}, 5*time.Minute, func() bool { return r.e.Now() > 10*time.Hour })
	r.e.RunUntil(10 * time.Hour)
	if got := r.plant.SupplySetpointC(); got != r.ctl.cfg.MaxSetpointC {
		t.Errorf("setpoint = %v, want pinned at ceiling %v", got, r.ctl.cfg.MaxSetpointC)
	}
	raises := r.moves["raise-setpoint"]
	r.e.RunUntil(11 * time.Hour)
	if r.moves["raise-setpoint"] != raises {
		t.Error("kept raising past the ceiling")
	}
}

func TestLowersUnderThermalPressure(t *testing.T) {
	r := newRig(t)
	// Saturate the fleet and break one node's cooling so it runs hot.
	for _, n := range r.cl.UpNodes() {
		r.cl.SetUtil(n, 1.0)
	}
	_ = r.cl.SetThermalFault("n000", 8)
	r.loop.RunEvery(sim.VirtualClock{Engine: r.e}, 5*time.Minute, func() bool { return r.e.Now() > 4*time.Hour })
	r.e.RunUntil(4 * time.Hour)
	if r.moves["lower-setpoint"] == 0 {
		t.Error("never lowered despite a node near the limit")
	}
	if got := r.plant.SupplySetpointC(); got >= facility.DefaultConfig().SupplySetC {
		t.Errorf("setpoint = %v, want pushed below initial under pressure", got)
	}
}

func TestConfidenceGateBlocksMarginalRaises(t *testing.T) {
	run := func(gate float64) int {
		r := newRig(t)
		// Load the fleet moderately: hottest node sits just beyond required
		// headroom, so raise confidence is marginal.
		for _, n := range r.cl.UpNodes() {
			r.cl.SetUtil(n, 0.95)
		}
		if gate > 0 {
			r.loop.Guards = []core.Guardrail{core.ConfidenceGate{Min: gate}}
		}
		r.loop.RunEvery(sim.VirtualClock{Engine: r.e}, 5*time.Minute, func() bool { return r.e.Now() > 4*time.Hour })
		r.e.RunUntil(4 * time.Hour)
		return r.moves["raise-setpoint"]
	}
	ungated := run(0)
	gated := run(0.95)
	if gated >= ungated {
		t.Errorf("gate should reduce marginal raises: %d -> %d", ungated, gated)
	}
}

func TestRaisingSetpointSavesCoolingEnergy(t *testing.T) {
	r := newRig(t)
	for _, n := range r.cl.UpNodes() {
		r.cl.SetUtil(n, 0.5)
	}
	before := r.plant.CoolingPowerW(r.e.Now())
	r.loop.RunEvery(sim.VirtualClock{Engine: r.e}, 5*time.Minute, func() bool { return r.e.Now() > 6*time.Hour })
	r.e.RunUntil(6 * time.Hour)
	after := r.plant.CoolingPowerW(r.e.Now())
	if after >= before {
		t.Errorf("cooling power should drop: %.0fW -> %.0fW", before, after)
	}
}

func TestExecuteUnknownAction(t *testing.T) {
	r := newRig(t)
	if _, err := r.ctl.execute(0, core.Action{Kind: "bogus"}); err == nil {
		t.Error("expected error")
	}
}

// TestSpawnNamesMissingSubstrate: the case has no nil guard of its own;
// Spawn's capability check names what the environment lacks before Build
// runs.
func TestSpawnNamesMissingSubstrate(t *testing.T) {
	reg := control.NewRegistry()
	reg.MustRegister(Factory())
	_, err := reg.Spawn(&control.Env{Querier: tsdb.New(0)}, control.LoopSpec{Case: CaseName})
	if err == nil || !strings.Contains(err.Error(), "[plant]") {
		t.Fatalf("spawn without a plant: %v, want an error naming it", err)
	}
}

// TestDecisionDetailAllocs: a warm Analyze+Plan allocates only the findings
// and actions slices; the finding's detail and the action's explanation are
// data, rendered to the text the fmt format gives only when read.
func TestDecisionDetailAllocs(t *testing.T) {
	r := newRig(t)
	for _, tc := range []struct {
		hottest float64
		want    string
	}{
		{84, fmt.Sprintf("hottest node %.1f°C within half-headroom of the %.0f°C limit", 84.0, r.ctl.cfg.TempLimitC)},
		{60.25, fmt.Sprintf("hottest node %.1f°C leaves %.1f°C beyond required headroom", 60.25, 12.75)},
	} {
		r.ctl.observed = &thermal{nodes: 8, hottest: tc.hottest}
		sym, _ := r.ctl.analyze(time.Minute, core.Observation{})
		plan, _ := r.ctl.plan(time.Minute, sym)
		if len(sym.Findings) != 1 || len(plan.Actions) != 1 {
			t.Fatalf("hottest %v: %d findings, %d actions; want 1 and 1", tc.hottest, len(sym.Findings), len(plan.Actions))
		}
		if got := sym.Findings[0].Detail.String(); got != tc.want {
			t.Errorf("detail %q, want %q", got, tc.want)
		}
		if got := plan.Actions[0].Explanation.String(); got != tc.want {
			t.Errorf("explanation %q, want %q", got, tc.want)
		}
		allocs := testing.AllocsPerRun(100, func() {
			sym, _ := r.ctl.analyze(time.Minute, core.Observation{})
			_, _ = r.ctl.plan(time.Minute, sym)
		})
		if allocs > 2 {
			t.Errorf("hottest %v: %v allocations per Analyze+Plan, want 2 (the findings and actions slices)", tc.hottest, allocs)
		}
	}
}
