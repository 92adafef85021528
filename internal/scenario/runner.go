package scenario

import (
	"fmt"
	"math/rand"
	"time"

	"autoloop/internal/app"
	"autoloop/internal/bus"
	"autoloop/internal/control"
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

// caseDefaults carries the built-in cases' scoring attribution: which
// injection domain each case answers for and which finding/action kinds
// count. Maintenance and scheduler are optimizer/stewardship loops with no
// injection domain — they run but are not scored. A scenario's Loop entry
// overrides any of it; a new case adds its defaults here.
var caseDefaults = map[string]Loop{
	"power": {
		Domain:   DomainHardware,
		Findings: []string{"thermal-pressure"},
		Actions:  []string{"lower-setpoint"},
	},
	"ost": {
		Domain:   DomainStorage,
		Findings: []string{"ost-degraded"},
		Actions:  []string{"reopen-avoiding"},
	},
	"ioqos": {
		Domain:   DomainStorage,
		Findings: []string{"latency-violation", "qos-divergence"},
		Actions:  []string{"set-qos", "set-allocation"},
	},
	"misconfig": {
		Domain:   DomainApplication,
		Findings: []string{"misconfig-threads", "misconfig-underutil", "misconfig-wronglib"},
		Actions:  []string{"fix-misconfig"},
	},
	"maintenance": {},
	"scheduler":   {},
}

// TemplateFor returns the scenario template for one of the built-in cases:
// a Loop spec carrying the case name and its default scoring attribution.
// TestScenarioTemplatesMatchFactories (internal/cases) maps every registered
// case through it, so new cases land as scenario + CaseFactory pairs.
func TemplateFor(caseName string) (Loop, bool) {
	d, ok := caseDefaults[caseName]
	if !ok {
		return Loop{}, false
	}
	d.LoopSpec = control.LoopSpec{Case: caseName}
	return d, true
}

// Runtime is one assembled scenario: the full single-process stack — sim
// engine, hardware, facility, filesystem, scheduler, applications,
// telemetry pipeline, TSDB, and the loop fleet spawned through the
// control registry — plus the armed fault schedule and the scorer.
type Runtime struct {
	Engine    *sim.Engine
	DB        *tsdb.DB
	Bus       *bus.Bus
	Cluster   *hw.Cluster
	Plant     *facility.Plant // nil without facility.plant
	FS        *pfs.FS
	Scheduler *sched.Scheduler
	Apps      *app.Runtime
	Pipe      *telemetry.Pipeline
	Ctl       *control.Service
	Knowledge *knowledge.Base

	spec    *Spec
	start   time.Duration // engine time at assembly; the schedule is relative to it
	horizon time.Duration
	sample  time.Duration
	scorer  *scorer
	injRng  *rand.Rand
	ran     bool
}

// Assemble builds the full stack from one scenario spec, spawning the fleet
// through reg (the CaseFactory path — the same registry the control plane
// uses). The returned runtime is armed but not yet run.
func Assemble(spec *Spec, reg *control.Registry) (*Runtime, error) {
	return assemble(sim.NewEngine(spec.Seed), tsdb.New(0), knowledge.NewBase(), spec, reg)
}

// assemble is Assemble over an engine, a store and a knowledge base the
// caller owns: Durable.Recover hands in an engine whose clock already
// stands where the recovered log ends, and a store and K it has restored.
// The sampling cadence, maintenance calendar, workload and fault schedule
// are all laid out relative to engine.Now().
func assemble(engine *sim.Engine, db *tsdb.DB, kb *knowledge.Base, spec *Spec, reg *control.Registry) (*Runtime, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if reg == nil {
		return nil, fmt.Errorf("scenario: Assemble requires a case registry")
	}

	horizon := spec.Horizon.D()
	sample := spec.SampleEvery.D()
	if sample <= 0 {
		sample = 30 * time.Second
	}
	round := spec.RoundEvery.D()
	if round <= 0 {
		round = time.Minute
		if round < sample {
			round = sample
		}
	}
	everyN := int(round / sample)
	if everyN < 1 {
		everyN = 1
	}

	start := engine.Now()
	rt := &Runtime{
		Engine:  engine,
		DB:      db,
		Bus:     bus.New(),
		spec:    spec,
		start:   start,
		horizon: horizon,
		sample:  sample,
		injRng:  rand.New(rand.NewSource(spec.Seed ^ 0x5bd1e995)),
	}

	// Hardware plane.
	hcfg := hw.DefaultConfig()
	hcfg.Nodes = spec.Facility.Nodes
	if spec.Facility.NodesPerRack > 0 {
		hcfg.NodesPerRack = spec.Facility.NodesPerRack
	}
	if spec.Facility.CoresPerNode > 0 {
		hcfg.CoresPerNode = spec.Facility.CoresPerNode
	}
	if spec.Facility.MemGBPerNode > 0 {
		hcfg.MemGBPerNode = spec.Facility.MemGBPerNode
	}
	if spec.Facility.SensorNoise != nil {
		hcfg.SensorNoise = *spec.Facility.SensorNoise
	}
	if spec.Facility.AmbientC != 0 {
		hcfg.AmbientC = spec.Facility.AmbientC
	}
	rt.Cluster = hw.New(rt.Engine, hcfg)

	if spec.Facility.Plant {
		rt.Plant = facility.New(rt.Engine, facility.DefaultConfig(), rt.Cluster)
		rt.Plant.BindAmbient(rt.Cluster)
	}

	pcfg := pfs.DefaultConfig()
	if spec.Facility.OSTs > 0 {
		pcfg.OSTs = spec.Facility.OSTs
	}
	if spec.Facility.OSTBandwidthMBps > 0 {
		pcfg.OSTBandwidthMBps = spec.Facility.OSTBandwidthMBps
	}
	if spec.Facility.StripeCount > 0 {
		pcfg.DefaultStripeCount = spec.Facility.StripeCount
	}
	rt.FS = pfs.New(rt.Engine, pcfg)

	policy := sched.ExtensionPolicy{MaxPerJob: 3, MaxTotalPerJob: 6 * time.Hour, BackfillGuard: true}
	rt.Scheduler = sched.New(rt.Engine, rt.Cluster.UpNodes(), policy)
	rt.Apps = app.NewRuntime(rt.Engine, rt.DB, rt.FS, rt.Cluster)
	rt.Apps.Serve(rt.Scheduler)
	rt.Knowledge = kb
	rt.Knowledge.PublishTo(rt.Bus)

	// Telemetry plane: every substrate collector into the TSDB.
	treg := telemetry.NewRegistry()
	treg.Register(rt.Cluster.Collector())
	if rt.Plant != nil {
		treg.Register(rt.Plant.Collector())
	}
	treg.Register(rt.FS.Collector())
	rt.Pipe = telemetry.NewPipeline(treg, rt.DB)

	// Control plane: the fleet spawned from LoopSpecs via the registry,
	// driven by the monitoring cadence.
	env := &control.Env{
		Querier:   rt.DB,
		Plant:     rt.Plant,
		Scheduler: rt.Scheduler,
		Apps:      rt.Apps,
		Cluster:   rt.Cluster,
		FS:        rt.FS,
		Knowledge: rt.Knowledge,
		Clock:     sim.VirtualClock{Engine: rt.Engine},
		Bus:       rt.Bus,
	}
	coord := fleet.New(0)
	rt.Ctl = control.NewService(reg, env, coord, round)

	// The scorer subscribes before any loop is spawned, so no event is lost.
	rt.scorer = newScorer(rt.Bus, spec.Score.Grace.D())
	for i := range spec.Loops {
		ls := &spec.Loops[i]
		sp, err := rt.Ctl.Spawn(ls.LoopSpec)
		if err != nil {
			return nil, fmt.Errorf("scenario: loops[%d]: %w", i, err)
		}
		b := resolveBinding(ls)
		for _, bl := range sp.Loops {
			rt.scorer.bind(bl.Loop.Name, b)
		}
	}
	rt.Pipe.Drive(rt.Ctl, everyN)

	// Monitoring cadence.
	rt.Engine.Every(start+sample, sample, func() bool {
		rt.Pipe.Sample(rt.Engine.Now())
		return rt.Engine.Now() < start+horizon
	})

	// Maintenance calendar.
	for _, w := range spec.Maintenance {
		if err := rt.Scheduler.AddMaintenance(start+w.At.D(), start+w.At.D()+w.Duration.D()); err != nil {
			return nil, fmt.Errorf("scenario: maintenance: %w", err)
		}
	}

	// Background workload.
	for _, j := range generateJobs(spec, horizon) {
		j := j
		rt.Apps.RegisterSpec(j.name, j.spec)
		rt.Engine.At(start+j.submitAt, func() {
			_, _ = rt.Scheduler.Submit(j.name, j.tenant, j.nodes, j.walltime, 0)
		})
	}

	// Fault schedule.
	for i := range spec.Injections {
		if err := rt.arm(spec.Injections[i]); err != nil {
			return nil, fmt.Errorf("scenario: injections[%d]: %w", i, err)
		}
	}
	return rt, nil
}

// resolveBinding merges a scenario Loop's attribution overrides onto the
// case defaults. Domain "none" opts the loop out of scoring.
func resolveBinding(ls *Loop) *binding {
	def := caseDefaults[ls.Case]
	b := &binding{
		domain:   ls.Domain,
		findings: toSet(ls.Findings),
		actions:  toSet(ls.Actions),
	}
	if b.domain == "" {
		b.domain = def.Domain
	}
	if b.domain == "none" {
		b.domain = ""
	}
	if b.findings == nil {
		b.findings = toSet(def.Findings)
	}
	if b.actions == nil {
		b.actions = toSet(def.Actions)
	}
	return b
}

// Run executes the scenario to its horizon and scores it. It can only be
// called once per assembled runtime.
func (rt *Runtime) Run() (*Report, error) {
	if rt.ran {
		return nil, fmt.Errorf("scenario: runtime already ran")
	}
	rt.ran = true
	rt.Engine.RunUntil(rt.start + rt.horizon)
	if err := rt.Pipe.Err(); err != nil {
		return nil, fmt.Errorf("scenario: telemetry ingest: %w", err)
	}
	rep := rt.score()
	for _, ls := range rt.spec.Loops {
		name := ls.Name
		if name == "" {
			name = ls.Case
		}
		rep.Loops = append(rep.Loops, name)
	}
	return rep, nil
}

// Run assembles and runs spec in one call — the scenario-file entry point.
func Run(spec *Spec, reg *control.Registry) (*Report, error) {
	rt, err := Assemble(spec, reg)
	if err != nil {
		return nil, err
	}
	return rt.Run()
}
