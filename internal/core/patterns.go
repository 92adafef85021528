package core

import (
	"sort"
	"sync"
	"time"

	"autoloop/internal/sim"
)

// This file implements the decentralized MAPE-K design patterns of the
// paper's Fig. 2 (after Weyns et al.): master-worker, fully decentralized
// coordinated control, and hierarchical control. The classical pattern is a
// plain Loop.

// Worker is the per-managed-system half of the master-worker pattern: it
// owns only Monitor and Execute; Analyze and Plan are centralized in the
// master.
type Worker struct {
	Name string
	M    Monitor
	E    Executor

	enabled bool
}

// NewWorker constructs an enabled worker.
func NewWorker(name string, m Monitor, e Executor) *Worker {
	if m == nil || e == nil {
		panic("core: worker requires monitor and executor")
	}
	return &Worker{Name: name, M: m, E: e, enabled: true}
}

// MasterWorker is the master-worker pattern: decentralized Monitor and
// Execute, centralized Analyze and Plan. The centralized Plan "can achieve
// global objectives and guarantees but suffers from limited scalability" —
// PlanCost models that limit as a virtual-time planning latency that grows
// with the number of workers; the scalability experiment measures both this
// modeled latency and the real CPU time of planning.
type MasterWorker struct {
	Name    string
	Workers []*Worker
	A       Analyzer
	P       Planner

	// PlanCost returns the virtual-time cost of one centralized plan over n
	// workers (nil means instantaneous).
	PlanCost func(n int) time.Duration

	Clock sim.Clock

	enabled bool
	metrics Metrics
}

// NewMasterWorker builds the pattern; clock is required when PlanCost is set.
func NewMasterWorker(name string, a Analyzer, p Planner, workers []*Worker) *MasterWorker {
	if a == nil || p == nil {
		panic("core: master-worker requires analyzer and planner")
	}
	return &MasterWorker{Name: name, Workers: workers, A: a, P: p, enabled: true}
}

// SetEnabled toggles the master: with the master down, *no* control happens
// anywhere — the pattern's single point of failure.
func (m *MasterWorker) SetEnabled(on bool) { m.enabled = on }

// Metrics returns the pattern's counters.
func (m *MasterWorker) Metrics() Metrics { return m.metrics }

// Tick runs one master-worker pass: gather observations from every live
// worker, analyze and plan centrally, then dispatch actions back to workers
// by subject (Action.Subject == worker name).
func (m *MasterWorker) Tick(now time.Duration) {
	if !m.enabled {
		return
	}
	m.metrics.Ticks++
	var merged Observation
	merged.Time = now
	live := make(map[string]*Worker, len(m.Workers))
	for _, w := range m.Workers {
		if !w.enabled {
			continue
		}
		obs, err := w.M.Observe(now)
		if err != nil {
			m.metrics.Errors++
			continue
		}
		merged.Points = append(merged.Points, obs.Points...)
		live[w.Name] = w
	}
	sym, err := m.A.Analyze(now, merged)
	if err != nil {
		m.metrics.Errors++
		return
	}
	m.metrics.Findings += len(sym.Findings)
	plan, err := m.P.Plan(now, sym)
	if err != nil {
		m.metrics.Errors++
		return
	}
	m.metrics.PlannedActions += len(plan.Actions)

	dispatch := func(at time.Duration) {
		for _, action := range plan.Actions {
			w, ok := live[action.Subject]
			if !ok || !w.enabled {
				m.metrics.DroppedActions++
				continue
			}
			res, err := w.E.Execute(at, action)
			if err != nil {
				m.metrics.Errors++
				continue
			}
			m.metrics.ExecutedActions++
			m.metrics.DecisionLatency += at - now
			if res.Honored {
				m.metrics.HonoredActions++
			}
		}
	}
	if m.PlanCost != nil && m.Clock != nil {
		cost := m.PlanCost(len(live))
		if cost > 0 {
			m.Clock.AfterFunc(cost, func() { dispatch(m.Clock.Now()) })
			return
		}
	}
	dispatch(now)
}

// IntentBoard is the peer-coordination medium of the fully decentralized
// pattern: each loop posts its latest intended action; peer planners consult
// the board to avoid the destructive synchronization ("instability and
// side-effects due to indirect interactions") that uncoordinated local
// planners exhibit.
type IntentBoard struct {
	mu      sync.RWMutex
	intents map[string]Action
	stamps  map[string]time.Duration
}

// NewIntentBoard returns an empty board.
func NewIntentBoard() *IntentBoard {
	return &IntentBoard{intents: make(map[string]Action), stamps: make(map[string]time.Duration)}
}

// Post publishes loop's current intent.
func (b *IntentBoard) Post(now time.Duration, loop string, a Action) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.intents[loop] = a
	b.stamps[loop] = now
}

// Peers returns the intents of every loop except self, in name order.
func (b *IntentBoard) Peers(self string) []Action {
	b.mu.RLock()
	defer b.mu.RUnlock()
	names := make([]string, 0, len(b.intents))
	for n := range b.intents {
		if n != self {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	out := make([]Action, 0, len(names))
	for _, n := range names {
		out = append(out, b.intents[n])
	}
	return out
}

// SumAmount totals the Amount of peer intents of one kind — the aggregate
// demand signal coordinated planners use.
func (b *IntentBoard) SumAmount(self, kind string) float64 {
	total := 0.0
	for _, a := range b.Peers(self) {
		if a.Kind == kind {
			total += a.Amount
		}
	}
	return total
}

// Coordinated is the fully decentralized pattern: every managed system has a
// complete local loop; loops share an IntentBoard. Whether planners consult
// the board is up to the use case — the stability experiment contrasts both.
type Coordinated struct {
	Name  string
	Loops []*Loop
	Board *IntentBoard
}

// NewCoordinated groups loops around a fresh board.
func NewCoordinated(name string, loops []*Loop) *Coordinated {
	return &Coordinated{Name: name, Loops: loops, Board: NewIntentBoard()}
}

// Tick ticks every enabled loop in order.
func (c *Coordinated) Tick(now time.Duration) {
	for _, l := range c.Loops {
		l.Tick(now)
	}
}

// Hierarchical is the hierarchical control pattern: fast child loops manage
// individual subsystems while a slower parent loop observes aggregate state
// and steers the children — "separation of concerns and time scales ...
// aiming to improve scalability without compromising stability". Parent and
// children exchange state through the shared Knowledge base's fact
// blackboard (how Knowledge is "stored and exchanged among MAPE components").
type Hierarchical struct {
	Name     string
	Parent   *Loop
	Children []*Loop
	// ParentEvery makes the parent tick once per this many child ticks
	// (minimum 1).
	ParentEvery int

	childTicks int
}

// NewHierarchical builds the pattern.
func NewHierarchical(name string, parent *Loop, children []*Loop, parentEvery int) *Hierarchical {
	if parent == nil {
		panic("core: hierarchical pattern requires a parent loop")
	}
	if parentEvery < 1 {
		parentEvery = 1
	}
	return &Hierarchical{Name: name, Parent: parent, Children: children, ParentEvery: parentEvery}
}

// Tick ticks all children and, every ParentEvery-th call, the parent.
func (h *Hierarchical) Tick(now time.Duration) {
	for _, c := range h.Children {
		c.Tick(now)
	}
	h.childTicks++
	if h.childTicks%h.ParentEvery == 0 {
		h.Parent.Tick(now)
	}
}

// RunEvery schedules the hierarchy on the child cadence.
func (h *Hierarchical) RunEvery(clock sim.Clock, period time.Duration, stop func() bool) {
	sim.TickEvery(clock, period, stop, h.Tick)
}
