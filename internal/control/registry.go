package control

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"autoloop/internal/app"
	"autoloop/internal/bus"
	"autoloop/internal/core"
	"autoloop/internal/facility"
	"autoloop/internal/hw"
	"autoloop/internal/knowledge"
	"autoloop/internal/pfs"
	"autoloop/internal/sched"
	"autoloop/internal/sim"
	"autoloop/internal/telemetry"
)

// Capability names one substrate a case factory needs from its Env. Spawn
// validates a factory's Requires list against the Env before building, so a
// deployment missing a substrate fails with a named error instead of a nil
// dereference inside a case constructor.
type Capability string

// The capabilities a deployment environment can provide.
const (
	CapQuerier   Capability = "querier"
	CapPlant     Capability = "plant"
	CapScheduler Capability = "scheduler"
	CapApps      Capability = "apps"
	CapCluster   Capability = "cluster"
	CapPFS       Capability = "pfs"
	CapKnowledge Capability = "knowledge"
	CapClock     Capability = "clock"
)

// Env is the deployment environment a registry spawns loops into: the
// telemetry query surface, the managed substrates, and the cross-cutting
// services (knowledge, clock, rng, bus, audit) wired onto every spawned
// loop. Fields may be nil; factories declare what they require.
type Env struct {
	Querier   telemetry.Querier
	Plant     *facility.Plant
	Scheduler *sched.Scheduler
	Apps      *app.Runtime
	Cluster   *hw.Cluster
	FS        *pfs.FS
	Knowledge *knowledge.Base

	// Clock and Rng drive deferred human-in-the-loop executions and any
	// case that needs the time (schedcase's prediction resolution).
	Clock sim.Clock
	Rng   *rand.Rand

	// Bus and Audit, when set, are attached to every spawned loop.
	Bus   *bus.Bus
	Audit *core.AuditLog
}

// Has reports whether the environment provides c.
func (e *Env) Has(c Capability) bool {
	switch c {
	case CapQuerier:
		return e.Querier != nil
	case CapPlant:
		return e.Plant != nil
	case CapScheduler:
		return e.Scheduler != nil
	case CapApps:
		return e.Apps != nil
	case CapCluster:
		return e.Cluster != nil
	case CapPFS:
		return e.FS != nil
	case CapKnowledge:
		return e.Knowledge != nil
	case CapClock:
		return e.Clock != nil
	}
	return false
}

// Missing returns the subset of req the environment does not provide.
func (e *Env) Missing(req []Capability) []Capability {
	var out []Capability
	for _, c := range req {
		if !e.Has(c) {
			out = append(out, c)
		}
	}
	return out
}

// BuiltLoop is one loop produced by a CaseFactory build. EveryMul stretches
// the loop's cadence relative to the spec period (a hierarchical case's
// parent loop ticking once per N child ticks registers EveryMul N); zero
// means 1.
type BuiltLoop struct {
	Loop     *core.Loop
	EveryMul int
}

// CaseFactory declares one spawnable use case: its name, documentation,
// required capabilities, default configuration (the config schema — Spawn
// JSON-merges spec overrides onto it), default fleet priority and period,
// and the build function.
type CaseFactory struct {
	// Name is the spec vocabulary ("power", "ost", ...).
	Name string
	// Doc is a one-line description surfaced by the cases op.
	Doc string
	// Requires lists the substrates Build dereferences.
	Requires []Capability
	// Defaults returns a pointer to a fresh config struct carrying the
	// case's default values; spec.Config is unmarshaled over it.
	Defaults func() interface{}
	// Priority is the default fleet arbitration priority.
	Priority int
	// Period is the default tick cadence.
	Period Duration
	// Build constructs the case's loops from the merged config. The first
	// loop is the case's primary (the one named by spec.Name overrides).
	Build func(env *Env, cfg interface{}) ([]BuiltLoop, error)
}

// DefaultsJSON marshals the factory's default config — the documented
// schema, with every field at its default.
func (f *CaseFactory) DefaultsJSON() json.RawMessage {
	if f.Defaults == nil {
		return nil
	}
	data, err := json.Marshal(f.Defaults())
	if err != nil {
		return nil
	}
	return data
}

// Registry maps case names to factories. It is safe for concurrent use.
type Registry struct {
	mu        sync.RWMutex
	factories map[string]CaseFactory
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{factories: make(map[string]CaseFactory)}
}

// Register adds a factory; registering a duplicate or anonymous case is an
// error.
func (r *Registry) Register(f CaseFactory) error {
	if f.Name == "" {
		return fmt.Errorf("control: factory with empty name")
	}
	if f.Build == nil {
		return fmt.Errorf("control: factory %q without Build", f.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.factories[f.Name]; dup {
		return fmt.Errorf("control: duplicate factory %q", f.Name)
	}
	r.factories[f.Name] = f
	return nil
}

// MustRegister is Register, panicking on error (init-time wiring).
func (r *Registry) MustRegister(f CaseFactory) {
	if err := r.Register(f); err != nil {
		panic(err)
	}
}

// Lookup returns the named factory.
func (r *Registry) Lookup(name string) (CaseFactory, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.factories[name]
	return f, ok
}

// Names returns the registered case names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.factories))
	for name := range r.factories {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// CaseInfos describes every registered factory in name order: the cases op's
// reply, whichever endpoint answers it.
func (r *Registry) CaseInfos() []CaseInfo {
	var out []CaseInfo
	for _, name := range r.Names() {
		f, _ := r.Lookup(name)
		reqs := make([]string, 0, len(f.Requires))
		for _, c := range f.Requires {
			reqs = append(reqs, string(c))
		}
		out = append(out, CaseInfo{
			Case: f.Name, Doc: f.Doc, Requires: reqs,
			Defaults: f.DefaultsJSON(), Priority: f.Priority, Period: f.Period,
		})
	}
	return out
}

// Spawned is the result of instantiating a LoopSpec: the built loops (the
// primary first), the resolved priority and period, and the normalized spec
// (name, mode, priority, and period filled in) the control API reports
// back.
type Spawned struct {
	Loops    []BuiltLoop
	Spec     LoopSpec
	Priority int
	Period   time.Duration
}

// Loop returns the case's primary loop.
func (s *Spawned) Loop() *core.Loop { return s.Loops[0].Loop }

// Spawn instantiates spec against env: it resolves the case factory,
// validates capabilities, merges the spec's config overrides onto the
// factory defaults (unknown fields rejected), builds the loops, and wires
// mode, bus, audit, clock, and rng onto each.
func (r *Registry) Spawn(env *Env, spec LoopSpec) (*Spawned, error) {
	if env == nil {
		return nil, fmt.Errorf("control: Spawn with nil env")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	f, ok := r.Lookup(spec.Case)
	if !ok {
		return nil, fmt.Errorf("control: unknown case %q (have %v)", spec.Case, r.Names())
	}
	if missing := env.Missing(f.Requires); len(missing) > 0 {
		return nil, fmt.Errorf("control: case %q requires missing capabilities %v", spec.Case, missing)
	}

	var cfg interface{}
	if f.Defaults != nil {
		cfg = f.Defaults()
		if len(spec.Config) > 0 {
			dec := json.NewDecoder(bytes.NewReader(spec.Config))
			dec.DisallowUnknownFields()
			if err := dec.Decode(cfg); err != nil {
				return nil, fmt.Errorf("control: case %q config: %w", spec.Case, err)
			}
		}
	}

	built, err := f.Build(env, cfg)
	if err != nil {
		return nil, fmt.Errorf("control: case %q: %w", spec.Case, err)
	}
	if len(built) == 0 || built[0].Loop == nil {
		return nil, fmt.Errorf("control: case %q built no loops", spec.Case)
	}

	mode := core.Autonomous
	if spec.Mode != "" {
		mode, _ = core.ParseMode(spec.Mode) // validated above
	}
	if spec.Name != "" {
		// The primary takes the override; secondary loops (a hierarchical
		// case's children) are namespaced under it so one case can be
		// spawned twice without name collisions.
		built[0].Loop.Name = spec.Name
		for i := 1; i < len(built); i++ {
			built[i].Loop.Name = spec.Name + "/" + built[i].Loop.Name
		}
	}
	human := core.DefaultHumanModel()
	if spec.Human != nil {
		human = spec.Human.Model()
	}
	for i := range built {
		l := built[i].Loop
		l.Mode = mode
		l.Human = human
		if l.Bus == nil {
			l.Bus = env.Bus
		}
		if l.Audit == nil {
			l.Audit = env.Audit
		}
		if l.Clock == nil {
			l.Clock = env.Clock
		}
		if l.Rng == nil {
			l.Rng = env.Rng
		}
		if built[i].EveryMul < 1 {
			built[i].EveryMul = 1
		}
	}

	out := &Spawned{Loops: built, Priority: f.Priority, Period: f.Period.D()}
	if spec.Priority != nil {
		out.Priority = *spec.Priority
	}
	if spec.Period > 0 {
		out.Period = spec.Period.D()
	}
	norm := spec
	norm.Name = built[0].Loop.Name
	norm.Mode = mode.String()
	norm.Priority = &out.Priority
	norm.Period = Duration(out.Period)
	out.Spec = norm
	return out, nil
}
