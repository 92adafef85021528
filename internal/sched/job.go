package sched

import (
	"time"
)

// JobState is the lifecycle state of a job.
type JobState int

// Job states.
const (
	JobPending JobState = iota
	JobRunning
	JobCompleted
	JobKilledWalltime // ran out of (possibly extended) walltime
	JobKilledMaint    // killed by a maintenance window
	JobRequeued       // gracefully preempted and returned to the queue
)

// String implements fmt.Stringer.
func (s JobState) String() string {
	switch s {
	case JobPending:
		return "pending"
	case JobRunning:
		return "running"
	case JobCompleted:
		return "completed"
	case JobKilledWalltime:
		return "killed-walltime"
	case JobKilledMaint:
		return "killed-maint"
	case JobRequeued:
		return "requeued"
	}
	return "unknown"
}

// Terminal reports whether a job in this state has ended for good: completed
// or killed. A pending or requeued job may still run.
func (s JobState) Terminal() bool {
	return s == JobCompleted || s == JobKilledWalltime || s == JobKilledMaint
}

// KillReason explains why the scheduler terminated a job.
type KillReason int

// Kill reasons.
const (
	KillWalltime KillReason = iota
	KillMaintenance
	KillRequeue
)

// String implements fmt.Stringer.
func (r KillReason) String() string {
	switch r {
	case KillWalltime:
		return "walltime"
	case KillMaintenance:
		return "maintenance"
	case KillRequeue:
		return "requeue"
	}
	return "unknown"
}

// Job is a batch job. The scheduler owns all fields; loop components read
// them and act through scheduler methods only.
type Job struct {
	ID   int
	Name string
	User string

	Nodes    int           // whole nodes requested
	Walltime time.Duration // requested limit at submission

	Submit time.Duration
	Start  time.Duration
	End    time.Duration
	State  JobState

	// Deadline is Start + Walltime + granted extensions while running.
	Deadline time.Duration

	// AssignedNodes is the node set while running.
	AssignedNodes []string

	// Extension accounting (trust guardrails, §III(iv)).
	Extensions     int
	ExtensionTotal time.Duration

	// Backfilled records whether the job started via backfill.
	Backfilled bool

	// Requeues counts graceful preemptions (maintenance case).
	Requeues int

	// Resubmission lineage: 0 for original submissions, else the job ID this
	// one re-ran after a kill.
	ResubmitOf int
}

// Remaining returns the walltime remaining before the deadline at time now
// for a running job (zero if not running or past deadline).
func (j *Job) Remaining(now time.Duration) time.Duration {
	if j.State != JobRunning || now >= j.Deadline {
		return 0
	}
	return j.Deadline - now
}

// Wait returns the queue wait the job experienced (valid once started).
func (j *Job) Wait() time.Duration {
	if j.Start < j.Submit {
		return 0
	}
	return j.Start - j.Submit
}
