// Package sched implements a SLURM-like batch scheduler for the simulated
// cluster: an FCFS queue with EASY backfill, whole-node allocation, walltime
// enforcement, maintenance reservations, graceful requeue, and — central to
// the paper's Scheduler use case — a run-time extension API equivalent to
// SLURM's `scontrol update TimeLimit`, governed by a trust policy
// (extension-count and total caps, backfill guard).
//
// The scheduler is a *managed system* in MAPE-K terms: autonomy loops observe
// it through telemetry and job state, and act on it only through Submit,
// RequestExtension, and Requeue — the same narrow hooks a production
// deployment would expose.
package sched

import (
	"fmt"
	"sort"
	"time"

	"autoloop/internal/sim"
	"autoloop/internal/telemetry"
)

// ExtensionPolicy is the trust policy for run-time extensions (§III(iv):
// "additional controls, such as limits on the number and overall time of
// extensions for a single application").
type ExtensionPolicy struct {
	// MaxPerJob caps how many extensions one job may receive (0 = none).
	MaxPerJob int
	// MaxTotalPerJob caps the cumulative extension per job.
	MaxTotalPerJob time.Duration
	// BackfillGuard denies extensions that would delay the queue-head job's
	// reservation, protecting other users (the paper's trust concern).
	BackfillGuard bool
}

// DefaultExtensionPolicy allows three extensions totalling at most 4h, with
// the backfill guard on.
func DefaultExtensionPolicy() ExtensionPolicy {
	return ExtensionPolicy{MaxPerJob: 3, MaxTotalPerJob: 4 * time.Hour, BackfillGuard: true}
}

// ExtensionResult reports the outcome of an extension request.
type ExtensionResult struct {
	Granted time.Duration // zero when denied
	Reason  string        // human-readable explanation for the audit trail
}

// StartFn is invoked when the scheduler starts a job; the application
// framework begins simulated execution.
type StartFn func(j *Job)

// KillFn is invoked when the scheduler terminates a running job.
type KillFn func(j *Job, reason KillReason)

// Stats aggregates scheduler-level outcomes; experiments read these to build
// the paper's incentive metrics (§III(v)).
type Stats struct {
	Submitted     int
	Started       int
	Completed     int
	KilledWall    int
	KilledMaint   int
	Requeued      int
	BackfillStart int

	WaitSum   time.Duration
	WaitCount int

	// NodeSecondsUsed counts productive occupancy (completed jobs);
	// NodeSecondsWasted counts occupancy of jobs killed at the walltime or
	// maintenance limit — work thrown away.
	NodeSecondsUsed   float64
	NodeSecondsWasted float64

	ExtensionRequests int
	ExtensionsGranted int
	ExtensionsPartial int
	ExtensionsDenied  int
	ExtensionGranted  time.Duration

	// UntakenBackfillDelay accumulates how much granted extensions delayed
	// the queue head's reservation (only when the guard is off), quantifying
	// the paper's "untaken backfill opportunities".
	UntakenBackfillDelay time.Duration
}

// MeanWait returns the average queue wait of started jobs.
func (s Stats) MeanWait() time.Duration {
	if s.WaitCount == 0 {
		return 0
	}
	return s.WaitSum / time.Duration(s.WaitCount)
}

// window is a full-system maintenance reservation.
type window struct{ start, end time.Duration }

// Scheduler is the batch scheduler.
type Scheduler struct {
	engine *sim.Engine
	policy ExtensionPolicy

	nodes []string
	free  map[string]bool

	pending []*Job
	// jobs holds every job ever submitted in ID order: jobs[i].ID == i+1.
	jobs []*Job

	startFn StartFn
	killFn  KillFn

	maint []window
	stats Stats
}

// New builds a scheduler over the given node IDs.
func New(engine *sim.Engine, nodes []string, policy ExtensionPolicy) *Scheduler {
	if len(nodes) == 0 {
		panic("sched: no nodes")
	}
	s := &Scheduler{
		engine: engine,
		policy: policy,
		nodes:  append([]string(nil), nodes...),
		free:   make(map[string]bool, len(nodes)),
	}
	sort.Strings(s.nodes)
	for _, n := range s.nodes {
		s.free[n] = true
	}
	return s
}

// SetHooks installs the start/kill callbacks. It must be called before the
// first Submit.
func (s *Scheduler) SetHooks(start StartFn, kill KillFn) {
	s.startFn = start
	s.killFn = kill
}

// Policy returns the active extension policy.
func (s *Scheduler) Policy() ExtensionPolicy { return s.policy }

// Job returns the job with the given ID.
func (s *Scheduler) Job(id int) (*Job, bool) {
	if id < 1 || id > len(s.jobs) {
		return nil, false
	}
	return s.jobs[id-1], true
}

// Jobs returns all jobs ever submitted, in ID order.
func (s *Scheduler) Jobs() []*Job { return append([]*Job(nil), s.jobs...) }

// Running returns the currently running jobs in ID order.
func (s *Scheduler) Running() []*Job {
	var out []*Job
	for _, j := range s.jobs {
		if j.State == JobRunning {
			out = append(out, j)
		}
	}
	return out
}

// QueueLen returns the number of pending jobs.
func (s *Scheduler) QueueLen() int { return len(s.pending) }

// Stats returns a snapshot of scheduler statistics.
func (s *Scheduler) Stats() Stats { return s.stats }

// Submit enqueues a job and triggers a scheduling pass. resubmitOf links a
// resubmission to the killed job it re-runs (0 for none).
func (s *Scheduler) Submit(name, user string, nodes int, walltime time.Duration, resubmitOf int) (*Job, error) {
	if nodes <= 0 || nodes > len(s.nodes) {
		return nil, fmt.Errorf("sched: job %q requests %d nodes, cluster has %d", name, nodes, len(s.nodes))
	}
	if walltime <= 0 {
		return nil, fmt.Errorf("sched: job %q has non-positive walltime", name)
	}
	j := &Job{
		ID:         len(s.jobs) + 1,
		Name:       name,
		User:       user,
		Nodes:      nodes,
		Walltime:   walltime,
		Submit:     s.engine.Now(),
		State:      JobPending,
		ResubmitOf: resubmitOf,
	}
	s.jobs = append(s.jobs, j)
	s.pending = append(s.pending, j)
	s.stats.Submitted++
	s.schedule()
	return j, nil
}

// JobFinished is called by the application framework when a job's work
// completes before its deadline.
func (s *Scheduler) JobFinished(jobID int) {
	j, ok := s.Job(jobID)
	if !ok || j.State != JobRunning {
		return
	}
	j.State = JobCompleted
	j.End = s.engine.Now()
	s.stats.Completed++
	s.stats.NodeSecondsUsed += (j.End - j.Start).Seconds() * float64(j.Nodes)
	s.releaseNodes(j)
	s.schedule()
}

// Requeue gracefully preempts a running job back into the pending queue (the
// maintenance loop checkpoints the application first, then requeues).
func (s *Scheduler) Requeue(jobID int) error {
	j, ok := s.Job(jobID)
	if !ok {
		return fmt.Errorf("sched: unknown job %d", jobID)
	}
	if j.State != JobRunning {
		return fmt.Errorf("sched: job %d is %s, not running", jobID, j.State)
	}
	if s.killFn != nil {
		s.killFn(j, KillRequeue)
	}
	s.stats.NodeSecondsUsed += (s.engine.Now() - j.Start).Seconds() * float64(j.Nodes)
	s.releaseNodes(j)
	j.State = JobPending
	j.Requeues++
	j.Submit = s.engine.Now()
	s.stats.Requeued++
	s.pending = append(s.pending, j)
	s.sortPending()
	s.schedule()
	return nil
}

// AddMaintenance reserves a full-system maintenance window. Jobs running at
// its start are killed; nothing starts that would overlap it.
func (s *Scheduler) AddMaintenance(start, end time.Duration) error {
	now := s.engine.Now()
	if end <= start || start < now {
		return fmt.Errorf("sched: invalid maintenance window [%v, %v] at %v", start, end, now)
	}
	s.maint = append(s.maint, window{start, end})
	sort.Slice(s.maint, func(i, k int) bool { return s.maint[i].start < s.maint[k].start })
	s.engine.At(start, func() { s.beginMaintenance(start, end) })
	s.engine.At(end, func() { s.schedule() })
	return nil
}

// Maintenance returns upcoming or active maintenance windows at time now.
func (s *Scheduler) Maintenance(now time.Duration) [][2]time.Duration {
	var out [][2]time.Duration
	for _, w := range s.maint {
		if w.end > now {
			out = append(out, [2]time.Duration{w.start, w.end})
		}
	}
	return out
}

func (s *Scheduler) beginMaintenance(start, end time.Duration) {
	for _, j := range s.Running() {
		s.kill(j, KillMaintenance)
	}
	_ = start
	_ = end
}

// kill terminates a running job with the given reason.
func (s *Scheduler) kill(j *Job, reason KillReason) {
	if j.State != JobRunning {
		return
	}
	if s.killFn != nil {
		s.killFn(j, reason)
	}
	j.End = s.engine.Now()
	occupied := (j.End - j.Start).Seconds() * float64(j.Nodes)
	switch reason {
	case KillWalltime:
		j.State = JobKilledWalltime
		s.stats.KilledWall++
		s.stats.NodeSecondsWasted += occupied
	case KillMaintenance:
		j.State = JobKilledMaint
		s.stats.KilledMaint++
		s.stats.NodeSecondsWasted += occupied
	}
	s.releaseNodes(j)
	s.schedule()
}

func (s *Scheduler) releaseNodes(j *Job) {
	for _, n := range j.AssignedNodes {
		s.free[n] = true
	}
	j.AssignedNodes = nil
}

func (s *Scheduler) freeCount() int {
	c := 0
	for _, ok := range s.free {
		if ok {
			c++
		}
	}
	return c
}

func (s *Scheduler) sortPending() {
	sort.SliceStable(s.pending, func(i, k int) bool {
		if s.pending[i].Submit != s.pending[k].Submit {
			return s.pending[i].Submit < s.pending[k].Submit
		}
		return s.pending[i].ID < s.pending[k].ID
	})
}

// maintenanceBlocks reports whether a job starting at t with limit wall would
// overlap any maintenance window.
func (s *Scheduler) maintenanceBlocks(t, wall time.Duration) bool {
	end := t + wall
	for _, w := range s.maint {
		if t < w.end && end > w.start {
			return true
		}
	}
	return false
}

// nextMaintenanceEndAfter returns the end of the maintenance window that
// blocks a start at t with the given walltime, or t if none blocks.
func (s *Scheduler) nextMaintenanceEndAfter(t, wall time.Duration) time.Duration {
	for _, w := range s.maint {
		if t < w.end && t+wall > w.start {
			return w.end
		}
	}
	return t
}

// start launches job j on free nodes now.
func (s *Scheduler) start(j *Job, backfilled bool) {
	now := s.engine.Now()
	assigned := make([]string, 0, j.Nodes)
	for _, n := range s.nodes {
		if s.free[n] {
			assigned = append(assigned, n)
			if len(assigned) == j.Nodes {
				break
			}
		}
	}
	if len(assigned) < j.Nodes {
		panic("sched: start called without capacity")
	}
	for _, n := range assigned {
		s.free[n] = false
	}
	j.AssignedNodes = assigned
	j.State = JobRunning
	j.Start = now
	j.Deadline = now + j.Walltime
	j.Backfilled = backfilled
	s.stats.Started++
	if backfilled {
		s.stats.BackfillStart++
	}
	s.stats.WaitSum += j.Wait()
	s.stats.WaitCount++
	s.scheduleDeadlineCheck(j)
	if s.startFn != nil {
		s.startFn(j)
	}
}

// scheduleDeadlineCheck arms the walltime kill for j's current deadline. A
// later extension re-arms; stale checks notice the moved deadline and do
// nothing.
func (s *Scheduler) scheduleDeadlineCheck(j *Job) {
	deadline := j.Deadline
	s.engine.At(deadline, func() {
		if j.State == JobRunning && j.Deadline <= s.engine.Now() {
			s.kill(j, KillWalltime)
		}
	})
}

// canStartNow reports whether j could start at the current instant.
func (s *Scheduler) canStartNow(j *Job) bool {
	now := s.engine.Now()
	return s.freeCount() >= j.Nodes && !s.maintenanceBlocks(now, j.Walltime)
}

// headReservation computes, for the blocked queue head, the EASY shadow time
// (earliest instant it could start given running jobs' deadlines and
// maintenance) and the number of extra nodes free at that instant beyond the
// head's need.
func (s *Scheduler) headReservation(head *Job) (shadow time.Duration, extra int) {
	now := s.engine.Now()
	avail := s.freeCount()
	type rel struct {
		at    time.Duration
		nodes int
	}
	var rels []rel
	for _, j := range s.jobs {
		if j.State == JobRunning {
			rels = append(rels, rel{j.Deadline, j.Nodes})
		}
	}
	sort.Slice(rels, func(i, k int) bool { return rels[i].at < rels[k].at })
	shadow = now
	for avail < head.Nodes && len(rels) > 0 {
		avail += rels[0].nodes
		shadow = rels[0].at
		rels = rels[1:]
	}
	if avail < head.Nodes {
		// Should not happen (Submit validates nodes <= cluster), but guard.
		return shadow, 0
	}
	// Push past maintenance windows the head would overlap.
	for s.maintenanceBlocks(shadow, head.Walltime) {
		shadow = s.nextMaintenanceEndAfter(shadow, head.Walltime)
	}
	return shadow, avail - head.Nodes
}

// schedule runs one FCFS + EASY backfill dispatch pass.
func (s *Scheduler) schedule() {
	now := s.engine.Now()
	s.sortPending()
	for len(s.pending) > 0 {
		head := s.pending[0]
		if s.canStartNow(head) {
			s.pending = s.pending[1:]
			s.start(head, false)
			continue
		}
		// Head is blocked: reserve it, then try to backfill one job.
		shadow, extra := s.headReservation(head)
		backfilled := false
		for i := 1; i < len(s.pending); i++ {
			j := s.pending[i]
			if s.freeCount() < j.Nodes || s.maintenanceBlocks(now, j.Walltime) {
				continue
			}
			if now+j.Walltime <= shadow || j.Nodes <= extra {
				s.pending = append(s.pending[:i], s.pending[i+1:]...)
				s.start(j, true)
				backfilled = true
				break
			}
		}
		if !backfilled {
			return
		}
	}
}

// RequestExtension implements the paper's Execute hook: ask the scheduler to
// extend a running job's walltime. The scheduler may grant in full, grant
// partially (maintenance ahead, caps), or deny (policy, backfill guard) —
// "the scheduler may deny the request or provide a shorter extension than
// requested".
func (s *Scheduler) RequestExtension(jobID int, extra time.Duration) ExtensionResult {
	s.stats.ExtensionRequests++
	j, ok := s.Job(jobID)
	if !ok || j.State != JobRunning {
		s.stats.ExtensionsDenied++
		return ExtensionResult{Reason: "job not running"}
	}
	if extra <= 0 {
		s.stats.ExtensionsDenied++
		return ExtensionResult{Reason: "non-positive extension"}
	}
	if s.policy.MaxPerJob > 0 && j.Extensions >= s.policy.MaxPerJob {
		s.stats.ExtensionsDenied++
		return ExtensionResult{Reason: fmt.Sprintf("extension count cap (%d) reached", s.policy.MaxPerJob)}
	}
	grant := extra
	reason := "granted"
	if s.policy.MaxTotalPerJob > 0 {
		room := s.policy.MaxTotalPerJob - j.ExtensionTotal
		if room <= 0 {
			s.stats.ExtensionsDenied++
			return ExtensionResult{Reason: fmt.Sprintf("extension total cap (%v) reached", s.policy.MaxTotalPerJob)}
		}
		if grant > room {
			grant = room
			reason = "partial: total cap"
		}
	}
	// A maintenance window truncates the grant.
	for _, w := range s.maint {
		if w.start >= j.Deadline && j.Deadline+grant > w.start {
			grant = w.start - j.Deadline
			reason = "partial: maintenance window"
		}
	}
	if grant <= 0 {
		s.stats.ExtensionsDenied++
		return ExtensionResult{Reason: "maintenance window leaves no room"}
	}
	// Backfill guard: would the head job's reservation slip?
	if len(s.pending) > 0 {
		head := s.pending[0]
		before, _ := s.headReservation(head)
		j.Deadline += grant // trial
		after, _ := s.headReservation(head)
		j.Deadline -= grant
		if delay := after - before; delay > 0 {
			if s.policy.BackfillGuard {
				s.stats.ExtensionsDenied++
				return ExtensionResult{Reason: fmt.Sprintf("backfill guard: would delay job %d by %v", head.ID, delay)}
			}
			s.stats.UntakenBackfillDelay += delay
		}
	}
	j.Deadline += grant
	j.Extensions++
	j.ExtensionTotal += grant
	s.stats.ExtensionGranted += grant
	if grant < extra {
		s.stats.ExtensionsPartial++
	} else {
		s.stats.ExtensionsGranted++
	}
	s.scheduleDeadlineCheck(j)
	return ExtensionResult{Granted: grant, Reason: reason}
}

// Collector exposes the scheduler sensor domain: sched.queue.len,
// sched.jobs.running, sched.nodes.busy, sched.util. Every round hands out the
// same label map (read-only for consumers) and the same four series refs.
func (s *Scheduler) Collector() telemetry.Collector {
	labels := telemetry.Labels{"sched": "main"}
	refs := new([4]telemetry.Ref)
	return telemetry.CollectorFunc(func(now time.Duration) []telemetry.Point {
		busy := len(s.nodes) - s.freeCount()
		running := 0
		for _, j := range s.jobs {
			if j.State == JobRunning {
				running++
			}
		}
		return []telemetry.Point{
			{Name: "sched.queue.len", Labels: labels, Time: now, Value: float64(len(s.pending)), Ref: &refs[0]},
			{Name: "sched.jobs.running", Labels: labels, Time: now, Value: float64(running), Ref: &refs[1]},
			{Name: "sched.nodes.busy", Labels: labels, Time: now, Value: float64(busy), Ref: &refs[2]},
			{Name: "sched.util", Labels: labels, Time: now, Value: float64(busy) / float64(len(s.nodes)), Ref: &refs[3]},
		}
	})
}
