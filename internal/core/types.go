// Package core implements the paper's primary contribution: MAPE-K autonomy
// loops for MODA (monitoring and operational data analytics) in HPC
// operations, with the four decentralization design patterns of Fig. 2 —
// classical, master-worker, fully decentralized coordinated, and
// hierarchical — plus the trust machinery the paper's §III(iv) and §IV call
// for: guardrails, confidence gates, explained decisions published on the bus,
// and human-in/on-the-loop operating modes.
//
// A loop is wired from five interchangeable interfaces (Monitor, Analyzer,
// Planner, Executor, Assessor) over a shared Knowledge base. Use cases in
// internal/cases compose concrete phase implementations; patterns in this
// package compose whole loops.
package core

import (
	"time"

	"autoloop/internal/telemetry"
)

// Observation is the Monitor phase's output: the sensor readings relevant to
// this loop at one instant.
type Observation struct {
	Time   time.Duration
	Points []telemetry.Point
}

// Finding is one symptom identified by the Analyze phase.
type Finding struct {
	// Kind names the symptom ("ttc-exceeds-walltime", "ost-degraded", ...).
	Kind string
	// Subject identifies the affected entity (job ID, OST name, tenant).
	Subject string
	// Value carries the symptom's magnitude in kind-specific units.
	Value float64
	// Confidence in [0,1] expresses the analyzer's belief in the finding.
	Confidence float64
	// Detail is a human-readable explanation, published with the finding.
	Detail string
}

// Symptoms is the Analyze phase's output.
type Symptoms struct {
	Time     time.Duration
	Findings []Finding
}

// Action is one planned response.
type Action struct {
	// Kind names the response ("extend-walltime", "checkpoint",
	// "reopen-avoiding", "set-qos", "notify-user", ...).
	Kind string
	// Subject identifies the target entity.
	Subject string
	// Amount carries the action's magnitude in kind-specific units
	// (seconds of extension, MB/s of rate, ...).
	Amount float64
	// Confidence in [0,1] is the confidence behind the action; guardrails
	// may gate on it.
	Confidence float64
	// Explanation justifies the action to humans on the loop (§IV:
	// "sending them notifications and explanation about decisions").
	Explanation string
}

// Plan is the Plan phase's output.
type Plan struct {
	Time    time.Duration
	Actions []Action
}

// ActionResult reports the fate of one executed action. Honored reflects the
// managed system's answer — the Scheduler case "needs awareness of whether or
// not the request was honored by the scheduler".
type ActionResult struct {
	Action  Action
	Honored bool
	// Granted is the magnitude actually granted (may be less than requested).
	Granted float64
	// Detail explains denials and partial grants.
	Detail string
}

// PhaseError is the payload of a loop's "error" event: the Monitor,
// Analyze or Plan phase failed, so the tick planned nothing.
type PhaseError struct {
	Phase string // "monitor", "analyze" or "plan"
	Err   string
}

// Outcome is the Execute phase's output.
type Outcome struct {
	Time    time.Duration
	Results []ActionResult
}

// Monitor collects the loop's observations.
type Monitor interface {
	Observe(now time.Duration) (Observation, error)
}

// MonitorFunc adapts a function to Monitor.
type MonitorFunc func(now time.Duration) (Observation, error)

// Observe implements Monitor.
func (f MonitorFunc) Observe(now time.Duration) (Observation, error) { return f(now) }

// Analyzer turns observations into symptoms.
type Analyzer interface {
	Analyze(now time.Duration, obs Observation) (Symptoms, error)
}

// AnalyzerFunc adapts a function to Analyzer.
type AnalyzerFunc func(now time.Duration, obs Observation) (Symptoms, error)

// Analyze implements Analyzer.
func (f AnalyzerFunc) Analyze(now time.Duration, obs Observation) (Symptoms, error) {
	return f(now, obs)
}

// Planner turns symptoms into a plan.
type Planner interface {
	Plan(now time.Duration, sym Symptoms) (Plan, error)
}

// PlannerFunc adapts a function to Planner.
type PlannerFunc func(now time.Duration, sym Symptoms) (Plan, error)

// Plan implements Planner.
func (f PlannerFunc) Plan(now time.Duration, sym Symptoms) (Plan, error) { return f(now, sym) }

// Executor carries a plan out against the managed system.
type Executor interface {
	Execute(now time.Duration, action Action) (ActionResult, error)
}

// ExecutorFunc adapts a function to Executor.
type ExecutorFunc func(now time.Duration, action Action) (ActionResult, error)

// Execute implements Executor.
func (f ExecutorFunc) Execute(now time.Duration, action Action) (ActionResult, error) {
	return f(now, action)
}

// Assessor closes the loop: it feeds plan outcomes back into Knowledge
// ("Assess the Knowledge about the success of the Plan and refine the
// Knowledge through subsequent Monitoring").
type Assessor interface {
	Assess(now time.Duration, plan Plan, outcome Outcome)
}

// AssessorFunc adapts a function to Assessor.
type AssessorFunc func(now time.Duration, plan Plan, outcome Outcome)

// Assess implements Assessor.
func (f AssessorFunc) Assess(now time.Duration, plan Plan, outcome Outcome) { f(now, plan, outcome) }
