package core

import (
	"fmt"
	"sync/atomic"
	"time"
)

// LifecycleState is the runtime state of a Loop under the control plane:
//
//	created ──► running ◄──► paused
//	   │            │           │
//	   └────────────┴─► draining┘──► stopped
//
// A loop ticks only while created (auto-starts on its first tick) or
// running. Pausing or draining bumps the loop's lifecycle generation, which
// invalidates human-in-the-loop actions deferred before the transition —
// a paused or drained loop cannot fire stale actions.
type LifecycleState int32

// Lifecycle states. The zero value is StateCreated so NewLoop needs no
// explicit initialization.
const (
	// StateCreated is the initial state: the loop is wired but has not
	// ticked yet. The first tick implicitly transitions it to StateRunning.
	StateCreated LifecycleState = iota
	// StateRunning loops plan and execute on every tick.
	StateRunning
	// StatePaused loops skip ticks; pending deferred actions are
	// invalidated. Resume returns the loop to StateRunning.
	StatePaused
	// StateDraining loops accept no new work; the next tick boundary (or a
	// coordinator round) completes the drain and the loop becomes
	// StateStopped. Pending deferred actions are invalidated.
	StateDraining
	// StateStopped is terminal: the loop never ticks again.
	StateStopped
)

// String implements fmt.Stringer.
func (s LifecycleState) String() string {
	switch s {
	case StateCreated:
		return "created"
	case StateRunning:
		return "running"
	case StatePaused:
		return "paused"
	case StateDraining:
		return "draining"
	case StateStopped:
		return "stopped"
	}
	return "unknown"
}

// Tickable reports whether a loop in this state runs its MAPE phases on
// Tick. Created counts: the first tick auto-starts the loop, which keeps
// NewLoop + Tick working without an explicit Start.
func (s LifecycleState) Tickable() bool { return s == StateCreated || s == StateRunning }

// ParseLifecycleState parses the String form back into a state.
func ParseLifecycleState(text string) (LifecycleState, error) {
	for _, s := range []LifecycleState{StateCreated, StateRunning, StatePaused, StateDraining, StateStopped} {
		if s.String() == text {
			return s, nil
		}
	}
	return 0, fmt.Errorf("core: unknown lifecycle state %q", text)
}

// ParseMode parses Mode.String() output ("autonomous", "human-on-the-loop",
// "human-in-the-loop") back into a Mode — the JSON vocabulary of the control
// plane's loop specs.
func ParseMode(text string) (Mode, error) {
	for _, m := range []Mode{Autonomous, HumanOnTheLoop, HumanInTheLoop} {
		if m.String() == text {
			return m, nil
		}
	}
	return 0, fmt.Errorf("core: unknown mode %q", text)
}

// State returns the loop's current lifecycle state.
func (l *Loop) State() LifecycleState { return LifecycleState(l.state.Load()) }

// Generation returns the lifecycle generation counter. It increments on
// every pause, drain, and stop; a deferred human-approval action captured
// under an older generation is stale and will not execute.
func (l *Loop) Generation() uint64 { return l.gen.Load() }

// transition attempts one state change, validating it against the lifecycle
// graph. bumpGen invalidates outstanding deferred actions.
func (l *Loop) transition(to LifecycleState, bumpGen bool) error {
	for {
		from := l.State()
		if from == to {
			return nil // idempotent
		}
		if !validTransition(from, to) {
			return fmt.Errorf("core: loop %s: invalid lifecycle transition %s -> %s", l.Name, from, to)
		}
		if l.state.CompareAndSwap(int32(from), int32(to)) {
			if bumpGen {
				l.gen.Add(1)
			}
			if w := l.watch.Load(); w != nil && (to == StateDraining || to == StateStopped) {
				w.Add(1)
			}
			return nil
		}
	}
}

// validTransition encodes the lifecycle graph.
func validTransition(from, to LifecycleState) bool {
	switch from {
	case StateCreated:
		return to == StateRunning || to == StatePaused || to == StateDraining || to == StateStopped
	case StateRunning:
		return to == StatePaused || to == StateDraining || to == StateStopped
	case StatePaused:
		return to == StateRunning || to == StateDraining || to == StateStopped
	case StateDraining:
		return to == StateStopped
	}
	return false
}

// Watch has the loop count each of its drains and stops on n (nil: on
// nothing), so an owner of many loops — a fleet coordinator — learns that
// one may need pruning without walking them all.
func (l *Loop) Watch(n *atomic.Uint64) { l.watch.Store(n) }

// Start moves a created loop to running. Ticking a created loop starts it
// implicitly, so Start is only needed when the state must read "running"
// before the first tick.
func (l *Loop) Start() error { return l.transition(StateRunning, false) }

// Pause suspends the loop: ticks become no-ops and deferred human-approval
// actions already in flight are invalidated. Pausing a stopped or draining
// loop is an error.
func (l *Loop) Pause() error { return l.transition(StatePaused, true) }

// Resume returns a paused loop to running. Deferred actions invalidated by
// the pause stay invalid; only new plans execute.
func (l *Loop) Resume() error {
	if l.State() == StateCreated {
		return nil // already tickable
	}
	return l.transition(StateRunning, false)
}

// Drain begins a graceful shutdown: the loop plans no new work and its
// pending deferred actions are invalidated; the next tick boundary (or
// coordinator round) completes the drain, after which the loop is stopped.
func (l *Loop) Drain() error { return l.transition(StateDraining, true) }

// FinishDrain completes a drain at a safe point (no tick in flight). It is
// called by the loop's own next tick and by fleet coordinators at the round
// barrier; calling it in any other state is a no-op.
func (l *Loop) FinishDrain() {
	l.state.CompareAndSwap(int32(StateDraining), int32(StateStopped))
}

// Stop terminates the loop immediately, invalidating deferred actions.
// Stop is idempotent and valid from every state.
func (l *Loop) Stop() error { return l.transition(StateStopped, true) }

// DeferredAction is one human-in-the-loop action awaiting an approval
// verdict, as handed to an ApprovalSink. Decided is the virtual time the
// plan chose the action (the decision-latency epoch); Gen is the loop's
// lifecycle generation at deferral time — if the loop is paused, drained, or
// stopped afterwards the action goes stale and Resolve refuses to fire it.
type DeferredAction struct {
	Loop    *Loop
	Decided time.Duration
	Action  Action
	Gen     uint64
}

// Stale reports whether the deferred action can no longer execute: a
// pause, drain or stop intervened, or the loop is not tickable.
func (d DeferredAction) Stale() bool {
	return d.Loop.gen.Load() != d.Gen || !d.Loop.State().Tickable()
}

// Resolve settles a deferred action at virtual time now: approve executes it
// through the loop's Executor (decision latency accounted from Decided),
// deny drops it. A stale action (lifecycle generation moved on, or the loop
// is no longer tickable) is never executed regardless of the verdict;
// Resolve reports whether the action actually executed. The outcome's event
// (execute, deny or stale) publishes at once.
func (d DeferredAction) Resolve(now time.Duration, approve bool, reason string) bool {
	l := d.Loop
	defer l.flush()
	if d.Stale() {
		l.metrics.StaleDeferred++
		l.emitResult(now, evStale, d.Action, fmt.Sprintf(
			"deferred action invalidated by lifecycle (gen %d != %d or state %s)", d.Gen, l.gen.Load(), l.State()))
		return false
	}
	if !approve {
		l.metrics.DeniedActions++
		if reason == "" {
			reason = "denied by operator"
		}
		l.emitResult(now, evDeny, d.Action, reason)
		return false
	}
	l.execute(d.Decided, now, d.Action, new(ActionResult))
	return true
}

// ApprovalSink receives every human-in-the-loop action; it is the only way
// one is settled. A control plane implements it with a pending-approval
// queue surfaced to real operators, and the experiments with a seeded
// simulated approver; the sink (not the loop) owns latency, timeout and
// contingency policy, and settles each action via DeferredAction.Resolve.
type ApprovalSink interface {
	Defer(d DeferredAction)
}
