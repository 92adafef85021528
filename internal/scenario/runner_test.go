package scenario_test

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/cases"
	"autoloop/internal/core"
	"autoloop/internal/scenario"
	"autoloop/internal/sim"
	"autoloop/internal/telemetry"
	"autoloop/internal/tsdb"
)

// TestScenarioDeterministic is the contract the EXP-S* tables rest on: the
// same scenario document and seed produce byte-identical score tables across
// independently assembled stacks.
func TestScenarioDeterministic(t *testing.T) {
	run := func() string {
		rep, err := scenario.Run(scenario.Small(42), cases.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		return rep.Table()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same spec+seed produced different tables:\n%s\n---\n%s", a, b)
	}
}

// TestScenarioSeedMatters guards against the opposite failure: a scorer that
// ignores the stack entirely would also be deterministic.
func TestScenarioSeedMatters(t *testing.T) {
	rep1, err := scenario.Run(scenario.Small(1), cases.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := scenario.Run(scenario.Small(2), cases.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Table() == rep2.Table() {
		t.Fatal("different seeds produced identical tables")
	}
}

// TestScenarioSmallEndToEnd pins the small preset's qualitative outcome: the
// fleet detects and responds to every real injection.
func TestScenarioSmallEndToEnd(t *testing.T) {
	rep, err := scenario.Run(scenario.Small(42), cases.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Scores
	if s.Windows != 3 {
		t.Fatalf("want 3 real windows, got %d", s.Windows)
	}
	if s.Detected != s.Windows || s.Responded != s.Windows {
		t.Fatalf("fleet missed injections: detected %d/%d responded %d/%d\n%s",
			s.Detected, s.Windows, s.Responded, s.Windows, rep.Table())
	}
	if s.MeanMTTR <= 0 {
		t.Fatalf("MTTR not measured: %v", s.MeanMTTR)
	}
	if s.Findings == 0 || s.Actions == 0 {
		t.Fatalf("no scored activity: %+v", s)
	}
	if rep.Samples == 0 || rep.Points == 0 {
		t.Fatalf("telemetry did not flow: %+v", rep)
	}
	if len(rep.Loops) != 3 {
		t.Fatalf("want 3 loops, got %v", rep.Loops)
	}
}

// TestScenarioJSONPath runs the same preset through its JSON form — the
// modad -scenario path — and requires the identical table.
func TestScenarioJSONPath(t *testing.T) {
	direct, err := scenario.Run(scenario.Small(42), cases.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(scenario.Small(42))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := scenario.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	viaJSON, err := scenario.Run(spec, cases.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if direct.Table() != viaJSON.Table() {
		t.Fatalf("JSON path diverged:\n%s\n---\n%s", direct.Table(), viaJSON.Table())
	}
}

// TestScenarioMidsizeChaos exercises the full injector library, including
// the phantom: real injections are all caught, and the phantom never counts
// as a real window.
func TestScenarioMidsizeChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("midsize scenario in -short mode")
	}
	rep, err := scenario.Run(scenario.Midsize(7), cases.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Injections) != 5 {
		t.Fatalf("want 5 injection rows, got %d", len(rep.Injections))
	}
	s := rep.Scores
	if s.Windows != 4 {
		t.Fatalf("phantom leaked into real windows: %d", s.Windows)
	}
	if s.Detected != 4 || s.Responded != 4 {
		t.Fatalf("fleet missed chaos: detected %d responded %d\n%s", s.Detected, s.Responded, rep.Table())
	}
	var phantom *scenario.InjectionOutcome
	for i := range rep.Injections {
		if rep.Injections[i].Phantom {
			phantom = &rep.Injections[i]
		}
	}
	if phantom == nil {
		t.Fatal("no phantom row")
	}
	// The flap biases sensors well past the thermal limit, so the fleet is
	// fooled — which must surface as false-positive pressure, not credit.
	if !phantom.Detected {
		t.Fatalf("phantom not even noticed — flap too weak?\n%s", rep.Table())
	}
	if s.FalseFindings == 0 || s.FPRate() <= 0 {
		t.Fatalf("phantom detection did not count as false positives: %+v", s)
	}
	if !strings.Contains(rep.Table(), "(phantom)") || !strings.Contains(rep.Table(), "fooled") {
		t.Fatalf("table does not mark the phantom:\n%s", rep.Table())
	}
}

// TestScenarioLoopOverrides checks the attribution override path: domain
// "none" drops a loop from scoring entirely.
func TestScenarioLoopOverrides(t *testing.T) {
	spec := scenario.Small(42)
	for i := range spec.Loops {
		spec.Loops[i].Domain = "none"
	}
	rep, err := scenario.Run(spec, cases.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Scores
	if s.Findings != 0 || s.Actions != 0 || s.Detected != 0 {
		t.Fatalf("domain=none loops still scored: %+v", s)
	}
}

func TestAssembleErrors(t *testing.T) {
	if _, err := scenario.Assemble(scenario.Small(1), nil); err == nil {
		t.Fatal("nil registry accepted")
	}
	bad := scenario.Small(1)
	bad.Loops[0].Case = "no-such-case"
	if _, err := scenario.Assemble(bad, cases.NewRegistry()); err == nil {
		t.Fatal("unknown case accepted")
	}
	invalid := scenario.Small(1)
	invalid.Name = ""
	if _, err := scenario.Assemble(invalid, cases.NewRegistry()); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestRuntimeRunsOnce(t *testing.T) {
	rt, err := scenario.Assemble(scenario.Small(9), cases.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err == nil {
		t.Fatal("second Run succeeded")
	}
}

// TestAssembleOnShiftsSchedule: handed an engine whose clock already stands
// at three hours, AssembleOn lays the same run out three hours later — same
// scores, same telemetry volume, every window shifted by the offset.
func TestAssembleOnShiftsSchedule(t *testing.T) {
	const offset = 3 * time.Hour
	base, err := scenario.Run(scenario.Small(42), cases.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.NewEngine(42)
	engine.RunUntil(offset) // nothing scheduled: jumps the clock
	rt, err := scenario.AssembleOn(engine, tsdb.New(0), scenario.Small(42), cases.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	shifted, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if engine.Now() != offset+base.Horizon {
		t.Errorf("run ended at %v, want %v", engine.Now(), offset+base.Horizon)
	}
	if shifted.Scores != base.Scores || shifted.Points != base.Points {
		t.Errorf("shifted run scored differently:\n%s\nvs\n%s", shifted.Table(), base.Table())
	}
	for i, inj := range shifted.Injections {
		if want := base.Injections[i].At + offset; inj.At != want {
			t.Errorf("injection %d at %v, want %v", i, inj.At, want)
		}
	}
}

// TestDaemonSetpointReachesAmbient guards the coupling the hand-wired daemon
// had lost: in the Daemon preset the plant is bound to the cluster, so a
// lower-setpoint the power loop executes cools the air the nodes breathe.
func TestDaemonSetpointReachesAmbient(t *testing.T) {
	rt, err := scenario.Assemble(scenario.Daemon(1), cases.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	lowered := 0
	rt.Bus.Subscribe("loop.power-case.execute", func(env bus.Envelope) {
		if r, ok := env.Payload.(core.ActionResult); ok && r.Honored && r.Action.Kind == "lower-setpoint" {
			lowered++
		}
	})
	rt.Engine.At(10*time.Minute, func() {
		if err := rt.Cluster.SetThermalFault("n000", 8); err != nil {
			t.Error(err)
		}
	})
	for rt.Engine.Now() < 2*time.Hour {
		before, seen := rt.Cluster.Ambient(), lowered
		rt.Engine.RunUntil(rt.Engine.Now() + time.Minute)
		if lowered > seen {
			if after := rt.Cluster.Ambient(); after >= before {
				t.Fatalf("lower-setpoint executed at %v but ambient went %v -> %v", rt.Engine.Now(), before, after)
			}
			return
		}
	}
	t.Fatal("power loop never lowered the setpoint under a thermal fault")
}

// refAudit is a sink in front of the store that holds the collectors to the
// owner's half of the telemetry.Ref contract: a Ref rides one (name, labels)
// identity for life.
type refAudit struct {
	t      *testing.T
	inner  telemetry.Sink
	owner  map[*telemetry.Ref]string
	static int // points of the static sensor domains seen
}

func (a *refAudit) AppendBatch(pts []telemetry.Point) error {
	for _, p := range pts {
		static := strings.HasPrefix(p.Name, "node.") || strings.HasPrefix(p.Name, "pfs.ost.") || strings.HasPrefix(p.Name, "facility.")
		if static {
			a.static++
		}
		if static != (p.Ref != nil) {
			a.t.Errorf("%s%s: ref = %v, want one exactly on the static sensor domains", p.Name, p.Labels, p.Ref)
			continue
		}
		if p.Ref == nil {
			continue
		}
		id := p.Name + p.Labels.String()
		if was, ok := a.owner[p.Ref]; ok && was != id {
			a.t.Errorf("one ref rode %s and then %s", was, id)
		}
		a.owner[p.Ref] = id
	}
	return a.inner.AppendBatch(pts)
}

// TestCollectorRefsOneIdentityEach runs the Small scenario with an auditing
// sink between the pipeline and the store: every hardware, OST and plant
// point carries a Ref, tenant points carry none, no Ref ever changes
// identity over the run (nodes fail and return, faults flap), and the store
// ends with exactly one series per Ref.
func TestCollectorRefsOneIdentityEach(t *testing.T) {
	rt, err := scenario.Assemble(scenario.Small(42), cases.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	audit := &refAudit{t: t, inner: rt.DB, owner: make(map[*telemetry.Ref]string)}
	reg := telemetry.NewRegistryOf(rt.Cluster.Collector(), rt.Plant.Collector(), rt.FS.Collector())
	rt.Pipe = telemetry.NewPipeline(reg, audit).Drive(rt.Ctl, 2)
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if audit.static == 0 || len(audit.owner) == 0 {
		t.Fatalf("audited %d static points over %d refs", audit.static, len(audit.owner))
	}
	series := 0
	for _, name := range rt.DB.MetricNames() {
		if strings.HasPrefix(name, "node.") || strings.HasPrefix(name, "pfs.ost.") || strings.HasPrefix(name, "facility.") {
			series += len(rt.DB.LatestInto(nil, name, nil))
		}
	}
	if series != len(audit.owner) {
		t.Errorf("store holds %d static series for %d refs", series, len(audit.owner))
	}
}
