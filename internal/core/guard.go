package core

import (
	"fmt"
	"slices"
	"time"
)

// Guardrail vets planned actions before execution. A non-nil error vetoes
// the action; the veto event carries the error's text. Guardrails are the
// paper's §III(iv) trust controls made first-class.
type Guardrail interface {
	Check(now time.Duration, loop string, action Action) error
}

// ConfidenceGate vetoes actions whose confidence falls below Min — §IV's
// "confidence measures are required as we move beyond human-in-the-loop
// decision-making".
type ConfidenceGate struct {
	Min float64
}

// Check implements Guardrail.
func (g ConfidenceGate) Check(now time.Duration, loop string, action Action) error {
	if action.Confidence < g.Min {
		return fmt.Errorf("confidence %.2f below gate %.2f", action.Confidence, g.Min)
	}
	return nil
}

// budgeted is a guardrail with a budget that actions use up. Its Check only
// reads the budget; admit records an action in it once every guard has
// passed the action, so a veto by a later guard costs nothing.
type budgeted interface {
	record(now time.Duration, action Action)
}

// admit runs action past guards in order, the first error vetoing it, and
// records an admitted action in every budgeted guard.
func admit(guards []Guardrail, now time.Duration, loop string, action Action) error {
	for _, g := range guards {
		if err := g.Check(now, loop, action); err != nil {
			return err
		}
	}
	for _, g := range guards {
		if b, ok := g.(budgeted); ok {
			b.record(now, action)
		}
	}
	return nil
}

// RateLimit vetoes actions once Max actions have passed every guard of the
// loop within Window (sliding), bounding how aggressively a loop may steer
// its managed system.
type RateLimit struct {
	Max    int
	Window time.Duration

	times []time.Duration // admission times
}

// NewRateLimit returns a sliding-window rate limit.
func NewRateLimit(max int, window time.Duration) *RateLimit {
	if max <= 0 || window <= 0 {
		panic("core: rate limit requires positive max and window")
	}
	return &RateLimit{Max: max, Window: window}
}

// Check implements Guardrail.
func (r *RateLimit) Check(now time.Duration, loop string, action Action) error {
	n := 0
	for _, t := range r.times {
		if t > now-r.Window {
			n++
		}
	}
	if n >= r.Max {
		return fmt.Errorf("rate limit: %d actions in %v", r.Max, r.Window)
	}
	return nil
}

func (r *RateLimit) record(now time.Duration, _ Action) {
	r.times = append(slices.DeleteFunc(r.times, func(t time.Duration) bool { return t <= now-r.Window }), now)
}

// SubjectCap vetoes actions once a subject has received Max actions of a
// kind — e.g. "limits on the number ... of extensions for a single
// application".
type SubjectCap struct {
	Kind string // empty matches all kinds
	Max  int

	counts map[string]int
}

// NewSubjectCap returns a per-subject action cap.
func NewSubjectCap(kind string, max int) *SubjectCap {
	if max <= 0 {
		panic("core: subject cap requires positive max")
	}
	return &SubjectCap{Kind: kind, Max: max, counts: make(map[string]int)}
}

// Check implements Guardrail.
func (c *SubjectCap) Check(now time.Duration, loop string, action Action) error {
	if c.matches(action) && c.counts[action.Subject] >= c.Max {
		return fmt.Errorf("subject %s reached cap of %d %q actions", action.Subject, c.Max, c.Kind)
	}
	return nil
}

func (c *SubjectCap) matches(action Action) bool { return c.Kind == "" || action.Kind == c.Kind }

func (c *SubjectCap) record(now time.Duration, action Action) {
	if c.matches(action) {
		c.counts[action.Subject]++
	}
}

// DryRun vetoes everything, turning a loop into a pure advisor: plans and
// their events happen, execution does not. This is how a site builds trust
// before enabling autonomous response.
type DryRun struct{}

// Check implements Guardrail.
func (DryRun) Check(now time.Duration, loop string, action Action) error {
	return fmt.Errorf("dry-run mode")
}
