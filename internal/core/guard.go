package core

import (
	"fmt"
	"time"
)

// Guardrail vets planned actions before execution. A non-nil error vetoes
// the action; the veto is audited with the error's text. Guardrails are the
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

// RateLimit vetoes actions once Max actions have executed within Window
// (sliding), bounding how aggressively a loop may steer its managed system.
type RateLimit struct {
	Max    int
	Window time.Duration

	times []time.Duration
}

// NewRateLimit returns a sliding-window rate limit.
func NewRateLimit(max int, window time.Duration) *RateLimit {
	if max <= 0 || window <= 0 {
		panic("core: rate limit requires positive max and window")
	}
	return &RateLimit{Max: max, Window: window}
}

// Check implements Guardrail. An accepted check counts against the budget.
func (r *RateLimit) Check(now time.Duration, loop string, action Action) error {
	cutoff := now - r.Window
	keep := r.times[:0]
	for _, t := range r.times {
		if t > cutoff {
			keep = append(keep, t)
		}
	}
	r.times = keep
	if len(r.times) >= r.Max {
		return fmt.Errorf("rate limit: %d actions in %v", r.Max, r.Window)
	}
	r.times = append(r.times, now)
	return nil
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
	if c.Kind != "" && action.Kind != c.Kind {
		return nil
	}
	if c.counts[action.Subject] >= c.Max {
		return fmt.Errorf("subject %s reached cap of %d %q actions", action.Subject, c.Max, c.Kind)
	}
	c.counts[action.Subject]++
	return nil
}

// DryRun vetoes everything, turning a loop into a pure advisor: plans and
// audit entries happen, execution does not. This is how a site builds trust
// before enabling autonomous response.
type DryRun struct{}

// Check implements Guardrail.
func (DryRun) Check(now time.Duration, loop string, action Action) error {
	return fmt.Errorf("dry-run mode")
}
