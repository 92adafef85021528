package core

import (
	"fmt"
	"slices"
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
	DroppedActions    int // human-in-the-loop with no ApprovalSink to ask
	DeniedActions     int // human-in-the-loop: operator denied the action
	StaleDeferred     int // deferred action invalidated by pause/drain/stop
	Errors            int

	// DecisionLatency accumulates time from symptom to execution (nonzero
	// only for human-in-the-loop actions an ApprovalSink approved later);
	// divide by ExecutedActions for the mean.
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

	Mode Mode

	// Bus, when set, receives the loop's account of itself on
	// "loop.<name>.<kind>": finding, plan, arbitrated, veto, execute,
	// defer, drop, deny, stale and error. A finding carries a *Finding and
	// a plan a *Action, each pointing into the slice its phase returned;
	// execute carries a *ActionResult, pointing into the tick's
	// Outcome.Results; arbitrated, veto, defer, drop, deny and stale carry
	// a *ActionResult whose Detail is the reason; drop means a
	// human-in-the-loop action found no Approvals sink; a failed Execute is
	// an execute event with Detail set; error carries a *PhaseError. A
	// payload is never written again once published, so a receiver may keep
	// the pointer. A tick publishes as one batch; approval resolutions
	// publish when they happen.
	Bus *bus.Bus

	// Approvals receives every human-in-the-loop action: dispatch hands it
	// a DeferredAction and the sink settles it, now or later, via Resolve.
	// Without one such an action is dropped. A control.Service sets it on
	// every loop it spawns.
	Approvals ApprovalSink

	// state is the LifecycleState (atomic so control planes may inspect and
	// transition loops from outside the tick goroutine); gen counts
	// pause/drain/stop transitions to invalidate stale deferred actions.
	state atomic.Int32
	gen   atomic.Uint64
	// watch, when set, counts the loop's drains and stops (see Watch).
	watch atomic.Pointer[atomic.Uint64]

	metrics Metrics

	// events buffers the envelopes not yet published: PlanTick appends
	// from its plan worker, ExecutePlanned appends the rest and publishes
	// the batch. Reused across ticks.
	events []bus.Envelope
	// topics caches each event kind's topic for the name in topicsOf. A
	// control plane names a loop after building it, so the cache is filled
	// on first emit and refilled if the name changes.
	topicsOf string
	topics   [numEventKinds]string

	// planned is the loop's one plan half, reused by every PlanTick.
	planned PlannedTick
}

// eventKind is the last element of a loop event's topic,
// "loop.<name>.<kind>".
type eventKind uint8

// The loop event kinds; eventKinds holds their names.
const (
	evFinding eventKind = iota
	evPlan
	evArbitrated
	evVeto
	evExecute
	evDefer
	evDrop
	evDeny
	evStale
	evError
	numEventKinds
)

var eventKinds = [numEventKinds]string{
	"finding", "plan", "arbitrated", "veto", "execute", "defer", "drop", "deny", "stale", "error",
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

// emit buffers one lifecycle envelope for l's attached bus; flush
// publishes it. The payload is a pointer to a value the tick already
// holds, so buffering it allocates nothing; a loop without a bus
// publishes nothing.
func emit[P any](l *Loop, now time.Duration, kind eventKind, payload *P) {
	if l.Bus == nil {
		return
	}
	l.events = append(l.events, bus.Envelope{Topic: l.topic(kind), Time: now, Source: l.Name, Payload: payload})
}

// topic returns kind's topic under the loop's current name, built once per
// name and kind.
func (l *Loop) topic(kind eventKind) string {
	if l.topicsOf != l.Name {
		l.topicsOf, l.topics = l.Name, [numEventKinds]string{}
	}
	if l.topics[kind] == "" {
		l.topics[kind] = "loop." + l.Name + "." + eventKinds[kind]
	}
	return l.topics[kind]
}

// emitResult buffers an event carrying the action and the reason it did not
// (or not yet) execute. The result is built only when a bus is attached,
// so a loop without one allocates nothing here.
func (l *Loop) emitResult(now time.Duration, kind eventKind, action Action, reason string) {
	if l.Bus != nil {
		emit(l, now, kind, &ActionResult{Action: action, Detail: Text(reason)})
	}
}

// flush publishes the buffered envelopes as one batch. The batch is
// detached before dispatch so a handler that re-enters this loop cannot
// double-publish it. The reclaimed buffer is cleared, so it does not keep
// published payloads alive.
func (l *Loop) flush() {
	if len(l.events) == 0 {
		return
	}
	batch := l.events
	l.events = nil
	l.Bus.PublishBatch(batch)
	if l.events == nil { // no re-entrant tick: reclaim the buffer
		clear(batch)
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
// actions that lose a cross-loop conflict. A loop has one PlannedTick,
// which every PlanTick reuses: execute it before the loop's next PlanTick.
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
	return i >= 0 && i < len(pt.lost) && pt.lost[i] != ""
}

// Arbitrate marks action i as lost to a cross-loop conflict: ExecutePlanned
// will publish it as arbitrated, with the reason, instead of dispatching it.
func (pt *PlannedTick) Arbitrate(i int, reason string) {
	if i < 0 || i >= len(pt.plan.Actions) {
		panic(fmt.Sprintf("core: Arbitrate index %d out of range (%d actions)", i, len(pt.plan.Actions)))
	}
	if len(pt.lost) == 0 {
		pt.lost = slices.Grow(pt.lost, len(pt.plan.Actions))[:len(pt.plan.Actions)]
		clear(pt.lost)
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
// ExecutePlanned to publish. The returned tick is the loop's own, reused by
// its next PlanTick.
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
	pt := &l.planned
	*pt = PlannedTick{loop: l, now: now, lost: pt.lost[:0]}
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
	for i := range sym.Findings {
		emit(l, now, evFinding, &sym.Findings[i])
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
	if l.Bus != nil {
		emit(l, pt.now, evError, &PhaseError{Phase: phase, Err: err.Error()})
	}
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
	actions := pt.plan.Actions
	for i := range actions {
		emit(l, now, evPlan, &actions[i])
		if pt.Arbitrated(i) {
			l.metrics.ArbitratedActions++
			l.emitResult(now, evArbitrated, actions[i], pt.lost[i])
			continue
		}
		l.dispatch(now, actions[i], &outcome, len(actions))
	}
	if l.Assess != nil {
		l.Assess.Assess(now, pt.plan, outcome)
	}
}

// dispatch applies guardrails and the operating mode to one of a plan's
// planned actions, appending its result to out if it executes at once. A
// human-on-the-loop action executes at once; its execute event, carrying the
// planner's Explanation, is the human's notification. out.Results is made
// on the first execution with room for every planned action, so it never
// moves and the execute events may point into it.
func (l *Loop) dispatch(now time.Duration, action Action, out *Outcome, planned int) {
	if err := admit(l.Guards, now, l.Name, action); err != nil {
		l.metrics.VetoedActions++
		l.emitResult(now, evVeto, action, err.Error())
		return
	}
	switch l.Mode {
	case Autonomous, HumanOnTheLoop:
		if out.Results == nil {
			out.Results = make([]ActionResult, 0, planned)
		}
		out.Results = append(out.Results, ActionResult{})
		l.execute(now, now, action, &out.Results[len(out.Results)-1])
	case HumanInTheLoop:
		l.deferToHuman(now, action)
	}
}

// execute runs the action against the managed system, writing its result
// to res, which its execute event then points at. decidedAt is when the
// plan chose the action, for decision-latency accounting.
func (l *Loop) execute(decidedAt, now time.Duration, action Action, res *ActionResult) {
	r, err := l.E.Execute(now, action)
	if err != nil {
		l.metrics.Errors++
		r = ActionResult{Action: action, Detail: Text(err.Error())}
	} else {
		l.metrics.ExecutedActions++
		l.metrics.DecisionLatency += now - decidedAt
		if r.Honored {
			l.metrics.HonoredActions++
		}
	}
	*res = r
	emit(l, now, evExecute, res)
}

// deferToHuman hands the action to the loop's ApprovalSink, which settles
// it through DeferredAction.Resolve. With no sink there is no one to
// approve it, so it is dropped: nothing executes without an approver.
func (l *Loop) deferToHuman(now time.Duration, action Action) {
	if l.Approvals == nil {
		l.metrics.DroppedActions++
		l.emitResult(now, evDrop, action, "no approval sink")
		return
	}
	l.metrics.DeferredActions++
	l.emitResult(now, evDefer, action, "queued for operator approval")
	l.Approvals.Defer(DeferredAction{Loop: l, Decided: now, Action: action, Gen: l.gen.Load()})
}

// RunEvery schedules the loop to tick on clock every period until stop
// returns true (stop may be nil for "run forever").
func (l *Loop) RunEvery(clock sim.Clock, period time.Duration, stop func() bool) {
	sim.TickEvery(clock, period, stop, l.Tick)
}
