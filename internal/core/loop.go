package core

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/knowledge"
	"autoloop/internal/sim"
)

// Mode selects how much autonomy a loop has over its Execute phase.
type Mode int

// Operating modes (§IV): fully autonomous execution; human-on-the-loop
// (execute immediately, notify the human with an explanation); and
// human-in-the-loop (wait for human approval before executing — the
// status-quo the paper argues "limits the speed of response").
const (
	Autonomous Mode = iota
	HumanOnTheLoop
	HumanInTheLoop
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Autonomous:
		return "autonomous"
	case HumanOnTheLoop:
		return "human-on-the-loop"
	case HumanInTheLoop:
		return "human-in-the-loop"
	}
	return "unknown"
}

// HumanModel models the human approver for human-in-the-loop mode: a
// response-latency distribution and an availability probability. An absent
// human (with probability 1-Availability) never answers, and the action is
// dropped — unless the loop has a contingency (§IV: "execution of
// contingency plans for when the humans are absent").
type HumanModel struct {
	Latency      sim.Dist
	Availability float64
	// ContingencyAfter, when positive, executes the action anyway once the
	// human has been silent this long.
	ContingencyAfter time.Duration
}

// DefaultHumanModel reflects a paged operator: 15 minutes median response,
// available 80% of the time.
func DefaultHumanModel() HumanModel {
	return HumanModel{
		Latency:      sim.LogNormal{MeanV: 15 * time.Minute, CV: 0.8},
		Availability: 0.8,
	}
}

// Metrics counts loop activity.
type Metrics struct {
	Ticks             int
	Findings          int
	PlannedActions    int
	ExecutedActions   int
	HonoredActions    int
	VetoedActions     int
	ArbitratedActions int // lost a cross-loop conflict to a fleet arbiter
	DeferredActions   int // human-in-the-loop: waiting for approval
	DroppedActions    int // human absent, no contingency
	DeniedActions     int // human-in-the-loop: operator denied the action
	StaleDeferred     int // deferred action invalidated by pause/drain/stop
	Errors            int

	// DecisionLatency accumulates time from symptom to execution (nonzero
	// only for deferred human-in-the-loop executions and pattern plan
	// costs); divide by ExecutedActions for the mean.
	DecisionLatency time.Duration
}

// Loop is one MAPE-K autonomy loop. Zero value is not usable; construct with
// NewLoop and set phases before Tick.
type Loop struct {
	Name string

	M      Monitor
	A      Analyzer
	P      Planner
	E      Executor
	Assess Assessor // optional

	// K is the shared knowledge base (optional but recommended).
	K *knowledge.Base

	// Guards veto actions in order; first error wins.
	Guards []Guardrail

	Mode  Mode
	Human HumanModel

	// Bus, when set, receives the loop's account of itself on
	// "loop.<name>.<kind>": finding, plan, arbitrated, veto, execute,
	// defer, drop, deny, stale and error. arbitrated, veto, defer, drop,
	// deny and stale carry an ActionResult whose Detail is the reason; a
	// failed Execute is an execute event with Detail set; error carries a
	// PhaseError. A tick publishes as one batch; deferred executions and
	// approval resolutions publish when they happen.
	Bus *bus.Bus

	// Clock schedules deferred executions (required for HumanInTheLoop).
	Clock sim.Clock
	// Rng drives the human model (required for HumanInTheLoop).
	Rng *rand.Rand

	// Approvals, when set, receives human-in-the-loop actions instead of
	// the simulated HumanModel: dispatch enqueues a DeferredAction and the
	// sink settles it later via Resolve. When nil, the HumanModel drives
	// approvals directly (the simulation fallback).
	Approvals ApprovalSink

	// state is the LifecycleState (atomic so control planes may inspect and
	// transition loops from outside the tick goroutine); gen counts
	// pause/drain/stop transitions to invalidate stale deferred actions.
	state atomic.Int32
	gen   atomic.Uint64

	metrics Metrics

	// events buffers the envelopes not yet published: PlanTick appends
	// from its plan worker, ExecutePlanned appends the rest and publishes
	// the batch. Reused across ticks.
	events []bus.Envelope
}

// NewLoop constructs a named loop with the given phases. The loop starts in
// StateCreated and auto-starts on its first tick.
func NewLoop(name string, m Monitor, a Analyzer, p Planner, e Executor) *Loop {
	if m == nil || a == nil || p == nil || e == nil {
		panic("core: NewLoop requires all four MAPE phases")
	}
	return &Loop{Name: name, M: m, A: a, P: p, E: e}
}

// Metrics returns a snapshot of the loop's counters.
func (l *Loop) Metrics() Metrics { return l.metrics }

// emit buffers one lifecycle envelope for the attached bus; flush
// publishes it.
func (l *Loop) emit(now time.Duration, kind string, payload interface{}) {
	if l.Bus == nil {
		return
	}
	l.events = append(l.events, bus.Envelope{Topic: "loop." + l.Name + "." + kind, Time: now, Source: l.Name, Payload: payload})
}

// emitResult buffers an event carrying the action and the reason it did not
// (or not yet) execute.
func (l *Loop) emitResult(now time.Duration, kind string, action Action, reason string) {
	if l.Bus != nil {
		l.emit(now, kind, ActionResult{Action: action, Detail: reason})
	}
}

// flush publishes the buffered envelopes as one batch. The batch is
// detached before dispatch so a handler that re-enters this loop cannot
// double-publish it.
func (l *Loop) flush() {
	if len(l.events) == 0 {
		return
	}
	batch := l.events
	l.events = nil
	l.Bus.PublishBatch(batch)
	if l.events == nil { // no re-entrant tick: reclaim the buffer
		l.events = batch[:0]
	}
}

// Tick runs one complete MAPE pass at virtual time now. Errors from phases
// are published and counted but do not abort the loop: an autonomy loop
// must survive bad data.
func (l *Loop) Tick(now time.Duration) {
	l.ExecutePlanned(l.PlanTick(now))
}

// PlannedTick is the output of the Plan half of a two-phase tick: the
// Monitor/Analyze/Plan phases have run, but no action has been dispatched
// and no event published yet, so PlanTick may run on a worker goroutine
// while ExecutePlanned publishes in deterministic order. A fleet
// coordinator arbitrates between the two halves by calling Arbitrate on
// actions that lose a cross-loop conflict.
type PlannedTick struct {
	loop    *Loop
	now     time.Duration
	skipped bool // loop disabled: the execute half is a no-op
	failed  bool // a MAPE phase errored: the execute half only publishes

	plan Plan
	lost []string // lost[i] != "" marks action i arbitrated away, with the reason
}

// skippedTick is the shared execute half of every skipped tick: a paused,
// draining, or stopped loop's PlanTick allocates nothing (the lifecycle
// fast path), and ExecutePlanned returns before touching loop state.
var skippedTick = &PlannedTick{skipped: true}

// Actions exposes the planned actions for arbitration. The slice is shared
// with the pending execute half and must not be mutated. A nil or skipped
// tick has no actions.
func (pt *PlannedTick) Actions() []Action {
	if pt == nil {
		return nil
	}
	return pt.plan.Actions
}

// Arbitrated reports whether action i has already been marked lost to a
// cross-loop conflict, so layered arbiters (a fleet's local arbiter, then a
// cluster coordinator's cross-node arbiter) do not re-litigate losers.
func (pt *PlannedTick) Arbitrated(i int) bool {
	return pt.lost != nil && i >= 0 && i < len(pt.lost) && pt.lost[i] != ""
}

// Arbitrate marks action i as lost to a cross-loop conflict: ExecutePlanned
// will publish it as arbitrated, with the reason, instead of dispatching it.
func (pt *PlannedTick) Arbitrate(i int, reason string) {
	if i < 0 || i >= len(pt.plan.Actions) {
		panic(fmt.Sprintf("core: Arbitrate index %d out of range (%d actions)", i, len(pt.plan.Actions)))
	}
	if pt.lost == nil {
		pt.lost = make([]string, len(pt.plan.Actions))
	}
	if reason == "" {
		reason = "lost cross-loop arbitration"
	}
	pt.lost[i] = reason
}

// PlanTick runs the Monitor, Analyze, and Plan phases at virtual time now and
// returns the pending execute half. It touches only loop-local state plus the
// (read-only) Monitor/Analyze/Plan phases, so a coordinator may run many
// loops' PlanTicks concurrently; its events wait in the loop's buffer for
// ExecutePlanned to publish.
func (l *Loop) PlanTick(now time.Duration) *PlannedTick {
	switch st := l.State(); {
	case st == StateCreated:
		_ = l.Start() // first tick auto-starts
	case st == StateDraining:
		l.FinishDrain() // tick boundary reached: the drain completes
		return skippedTick
	case !st.Tickable():
		return skippedTick
	}
	pt := &PlannedTick{loop: l, now: now}
	l.metrics.Ticks++
	obs, err := l.M.Observe(now)
	if err != nil {
		return pt.fail("monitor", err)
	}
	sym, err := l.A.Analyze(now, obs)
	if err != nil {
		return pt.fail("analyze", err)
	}
	l.metrics.Findings += len(sym.Findings)
	for _, f := range sym.Findings {
		l.emit(now, "finding", f)
	}
	plan, err := l.P.Plan(now, sym)
	if err != nil {
		return pt.fail("plan", err)
	}
	l.metrics.PlannedActions += len(plan.Actions)
	pt.plan = plan
	return pt
}

// fail records a Monitor, Analyze or Plan error: the tick plans nothing and
// its execute half publishes only the events buffered so far.
func (pt *PlannedTick) fail(phase string, err error) *PlannedTick {
	l := pt.loop
	l.metrics.Errors++
	l.emit(pt.now, "error", PhaseError{Phase: phase, Err: err.Error()})
	pt.failed = true
	return pt
}

// ExecutePlanned runs the Execute half of a two-phase tick: it dispatches
// every surviving action through guardrails and the operating mode, skips
// arbitrated ones, runs Assess, and publishes the tick's events as one
// batch. It must be called from a single goroutine — under a fleet
// coordinator, serially in registration order after the round barrier,
// which is what keeps concurrent rounds deterministic.
func (l *Loop) ExecutePlanned(pt *PlannedTick) {
	if pt == nil || pt.skipped {
		return
	}
	if pt.loop != l {
		panic("core: ExecutePlanned with another loop's PlannedTick")
	}
	defer l.flush()
	if pt.failed {
		return
	}
	now := pt.now
	outcome := Outcome{Time: now}
	for i, action := range pt.plan.Actions {
		l.emit(now, "plan", action)
		if pt.Arbitrated(i) {
			l.metrics.ArbitratedActions++
			l.emitResult(now, "arbitrated", action, pt.lost[i])
			continue
		}
		if res, executed := l.dispatch(now, action); executed {
			outcome.Results = append(outcome.Results, res)
		}
	}
	if l.Assess != nil {
		l.Assess.Assess(now, pt.plan, outcome)
	}
}

// dispatch applies guardrails and the operating mode to one action,
// returning the result if the action executed synchronously. A
// human-on-the-loop action executes at once; its execute event, carrying the
// planner's Explanation, is the human's notification.
func (l *Loop) dispatch(now time.Duration, action Action) (ActionResult, bool) {
	for _, g := range l.Guards {
		if err := g.Check(now, l.Name, action); err != nil {
			l.metrics.VetoedActions++
			l.emitResult(now, "veto", action, err.Error())
			return ActionResult{}, false
		}
	}
	switch l.Mode {
	case Autonomous, HumanOnTheLoop:
		return l.execute(now, now, action), true
	case HumanInTheLoop:
		l.deferToHuman(now, action)
	}
	return ActionResult{}, false
}

// execute runs the action against the managed system. decidedAt is when the
// plan chose the action, for decision-latency accounting.
func (l *Loop) execute(decidedAt, now time.Duration, action Action) ActionResult {
	res, err := l.E.Execute(now, action)
	if err != nil {
		l.metrics.Errors++
		failed := ActionResult{Action: action, Detail: err.Error()}
		l.emit(now, "execute", failed)
		return failed
	}
	l.metrics.ExecutedActions++
	l.metrics.DecisionLatency += now - decidedAt
	if res.Honored {
		l.metrics.HonoredActions++
	}
	l.emit(now, "execute", res)
	return res
}

// deferToHuman routes the action to the approval surface: an attached
// ApprovalSink (the control plane's pending queue) when present, otherwise
// the simulated HumanModel — the fallback driver that keeps fixed-seed
// experiments reproducible.
func (l *Loop) deferToHuman(now time.Duration, action Action) {
	if l.Approvals != nil {
		l.metrics.DeferredActions++
		l.emitResult(now, "defer", action, "queued for operator approval")
		l.Approvals.Defer(DeferredAction{Loop: l, Decided: now, Action: action, Gen: l.gen.Load()})
		return
	}
	if l.Clock == nil || l.Rng == nil {
		// Without a clock there is no way to wait: treat the human as absent.
		l.metrics.DroppedActions++
		l.emitResult(now, "drop", action, "no clock for human approval")
		return
	}
	l.metrics.DeferredActions++
	gen := l.gen.Load()
	available := l.Rng.Float64() < l.Human.Availability
	if !available {
		if l.Human.ContingencyAfter > 0 {
			l.emitResult(now, "defer", action, fmt.Sprintf("human absent, contingency in %v", l.Human.ContingencyAfter))
			l.Clock.AfterFunc(l.Human.ContingencyAfter, l.executeLater(gen, now, action))
			return
		}
		l.metrics.DroppedActions++
		l.emitResult(now, "drop", action, "human absent, no contingency")
		return
	}
	delay := l.Human.Latency.Sample(l.Rng)
	l.emitResult(now, "defer", action, fmt.Sprintf("awaiting approval, eta %v", delay))
	l.Clock.AfterFunc(delay, l.executeLater(gen, now, action))
}

// executeLater returns the callback that fires a deferred action outside
// any tick, unless a lifecycle transition made it stale, and publishes its
// execute event at once.
func (l *Loop) executeLater(gen uint64, decidedAt time.Duration, action Action) func() {
	return func() {
		if l.deferredValid(gen) {
			l.execute(decidedAt, l.Clock.Now(), action)
			l.flush()
		}
	}
}

// RunEvery schedules the loop to tick on clock every period until stop
// returns true (stop may be nil for "run forever").
func (l *Loop) RunEvery(clock sim.Clock, period time.Duration, stop func() bool) {
	sim.TickEvery(clock, period, stop, l.Tick)
}
