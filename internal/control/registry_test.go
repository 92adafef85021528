package control_test

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"time"

	"autoloop/internal/app"
	"autoloop/internal/bus"
	"autoloop/internal/cases"
	"autoloop/internal/control"
	"autoloop/internal/core"
	"autoloop/internal/facility"
	"autoloop/internal/fleet"
	"autoloop/internal/hw"
	"autoloop/internal/knowledge"
	"autoloop/internal/pfs"
	"autoloop/internal/sched"
	"autoloop/internal/sim"
	"autoloop/internal/telemetry"
	"autoloop/internal/tsdb"
)

// testEnv builds a full deployment environment over the simulated
// substrate, capable of spawning every registered case.
func testEnv(t testing.TB, seed int64) (*control.Env, *sim.Engine, *telemetry.Pipeline) {
	t.Helper()
	engine := sim.NewEngine(seed)
	db := tsdb.New(0)
	ccfg := hw.DefaultConfig()
	ccfg.Nodes = 8
	cl := hw.New(engine, ccfg)
	plant := facility.New(engine, facility.DefaultConfig(), cl)
	fs := pfs.New(engine, pfs.Config{OSTs: 4, OSTBandwidthMBps: 200, DefaultStripeCount: 2})
	scheduler := sched.New(engine, cl.UpNodes(), sched.DefaultExtensionPolicy())
	runtime := app.NewRuntime(engine, db, fs, cl)
	runtime.Serve(scheduler)
	reg := telemetry.NewRegistry()
	reg.Register(cl.Collector())
	reg.Register(plant.Collector())
	reg.Register(fs.Collector())
	reg.Register(scheduler.Collector())
	pipe := telemetry.NewPipeline(reg, db)
	env := &control.Env{
		Querier: db, Plant: plant, Scheduler: scheduler, Apps: runtime,
		Cluster: cl, FS: fs, Knowledge: knowledge.NewBase(),
		Clock: sim.VirtualClock{Engine: engine}, Rng: rand.New(rand.NewSource(seed)),
		Bus: bus.New(),
	}
	return env, engine, pipe
}

// TestAllSixCasesSpawnFromJSONSpecs is the acceptance check for the
// declarative layer: every registered case instantiates from a plain JSON
// LoopSpec against the standard environment and ticks under one fleet
// coordinator.
func TestAllSixCasesSpawnFromJSONSpecs(t *testing.T) {
	env, engine, pipe := testEnv(t, 1)
	reg := cases.NewRegistry()
	want := []string{"ioqos", "maintenance", "misconfig", "ost", "power", "scheduler"}
	if got := strings.Join(reg.Names(), " "); got != strings.Join(want, " ") {
		t.Fatalf("registry names = %q", got)
	}
	coord := fleet.New(1)
	svc := control.NewService(reg, env, coord, time.Minute)
	for _, name := range want {
		spec, err := control.ParseSpec([]byte(`{"case": "` + name + `"}`))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sp, err := svc.Spawn(spec)
		if err != nil {
			t.Fatalf("spawn %s: %v", name, err)
		}
		if sp.Loop() == nil || sp.Spec.Mode != "autonomous" {
			t.Fatalf("spawn %s: spec = %+v", name, sp.Spec)
		}
	}
	// ioqos contributes a parent and two tenant children.
	if coord.Len() != 8 {
		t.Fatalf("coordinator has %d loops, want 8 (6 cases, ioqos = 3 loops)", coord.Len())
	}
	pipe.Drive(svc, 1)
	engine.Every(time.Minute, time.Minute, func() bool {
		pipe.Sample(engine.Now())
		return engine.Now() < 30*time.Minute
	})
	engine.RunUntil(30 * time.Minute)
	for _, l := range coord.Loops() {
		if l.State() != core.StateRunning {
			t.Errorf("loop %s state = %s, want running", l.Name, l.State())
		}
		if l.Metrics().Ticks == 0 {
			t.Errorf("loop %s never ticked", l.Name)
		}
	}
}

func TestSpawnConfigOverridesAndNormalization(t *testing.T) {
	env, _, _ := testEnv(t, 2)
	reg := cases.NewRegistry()
	spec, err := control.ParseSpec([]byte(`{
		"case": "power", "name": "cooling-west", "mode": "human-on-the-loop",
		"priority": 33, "period": "2m",
		"config": {"TempLimitC": 80, "StepC": 0.5}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := reg.Spawn(env, spec)
	if err != nil {
		t.Fatal(err)
	}
	l := sp.Loop()
	if l.Name != "cooling-west" || l.Mode != core.HumanOnTheLoop {
		t.Errorf("loop = %s mode %s", l.Name, l.Mode)
	}
	if sp.Priority != 33 || sp.Period != 2*time.Minute {
		t.Errorf("priority = %d period = %v", sp.Priority, sp.Period)
	}
	// The merged config keeps defaults for untouched fields.
	var cfg struct{ TempLimitC, HeadroomC, StepC, MaxSetpointC float64 }
	if err := json.Unmarshal(sp.Spec.Config, &cfg); err == nil {
		if cfg.TempLimitC != 80 || cfg.StepC != 0.5 {
			t.Errorf("overrides not applied: %+v", cfg)
		}
	}
	if l.Bus != env.Bus || l.Clock == nil || l.Rng != env.Rng {
		t.Error("spawned loop not wired to the environment")
	}
}

func TestSpawnErrors(t *testing.T) {
	env, _, _ := testEnv(t, 3)
	reg := cases.NewRegistry()

	if _, err := reg.Spawn(env, control.LoopSpec{Case: "nonsense"}); err == nil || !strings.Contains(err.Error(), "unknown case") {
		t.Errorf("unknown case err = %v", err)
	}
	if _, err := reg.Spawn(env, control.LoopSpec{Case: "power", Config: []byte(`{"NoSuchKnob": 1}`)}); err == nil || !strings.Contains(err.Error(), "NoSuchKnob") {
		t.Errorf("unknown config field err = %v", err)
	}
	if _, err := reg.Spawn(env, control.LoopSpec{Case: "power", Mode: "telepathic"}); err == nil {
		t.Error("bad mode accepted")
	}
	bare := &control.Env{Querier: env.Querier} // no plant
	if _, err := reg.Spawn(bare, control.LoopSpec{Case: "power"}); err == nil || !strings.Contains(err.Error(), "plant") {
		t.Errorf("missing capability err = %v", err)
	}
}

func TestMultiLoopCaseSpawnsTwiceUnderDistinctNames(t *testing.T) {
	env, _, _ := testEnv(t, 4)
	svc := control.NewService(cases.NewRegistry(), env, fleet.New(1), time.Minute)
	for _, name := range []string{"ioqos-a", "ioqos-b"} {
		sp, err := svc.Spawn(control.LoopSpec{Case: "ioqos", Name: name})
		if err != nil {
			t.Fatalf("spawn %s: %v", name, err)
		}
		if sp.Loop().Name != name {
			t.Fatalf("primary = %q", sp.Loop().Name)
		}
		for _, bl := range sp.Loops[1:] {
			if !strings.HasPrefix(bl.Loop.Name, name+"/") {
				t.Fatalf("child %q not namespaced under %q", bl.Loop.Name, name)
			}
		}
	}
}

func TestParseSpecsRejectsUnknownFields(t *testing.T) {
	if _, err := control.ParseSpecs([]byte(`[{"case": "power", "priorty": 3}]`)); err == nil {
		t.Error("typo field accepted")
	}
	specs, err := control.ParseSpecs([]byte(`[{"case": "power", "period": "90s"}, {"case": "ost"}]`))
	if err != nil || len(specs) != 2 || specs[0].Period.D() != 90*time.Second {
		t.Errorf("specs = %+v, %v", specs, err)
	}
}

func TestDurationJSONForms(t *testing.T) {
	var d control.Duration
	if err := json.Unmarshal([]byte(`"1h30m"`), &d); err != nil || d.D() != 90*time.Minute {
		t.Errorf("string form: %v %v", d, err)
	}
	if err := json.Unmarshal([]byte(`60000000000`), &d); err != nil || d.D() != time.Minute {
		t.Errorf("ns form: %v %v", d, err)
	}
	out, err := json.Marshal(control.Duration(5 * time.Minute))
	if err != nil || string(out) != `"5m0s"` {
		t.Errorf("marshal = %s, %v", out, err)
	}
}
