package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"autoloop/internal/sim"
)

// invariantRig runs a random workload while continuously checking scheduler
// invariants.
type invariantRig struct {
	e *sim.Engine
	s *Scheduler
	n int

	held       []int // per-node hold count, check's scratch
	violations []string
}

func newInvariantRig(seed int64, nodes int) *invariantRig {
	e := sim.NewEngine(seed)
	r := &invariantRig{e: e, n: nodes, held: make([]int, nodes)}
	r.s = New(e, nodeIDs(nodes), DefaultExtensionPolicy())
	return r
}

func (r *invariantRig) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// check records every invariant the scheduler breaks at this instant.
func (r *invariantRig) check() {
	jobs := r.s.Jobs()
	// Invariant 1: allocated nodes never exceed the pool, and no node is
	// double-allocated.
	clear(r.held)
	busy := 0
	var running []*Job
	for _, j := range jobs {
		if j.State != JobRunning {
			continue
		}
		running = append(running, j)
		if len(j.AssignedNodes) != j.Nodes {
			r.violate("running job %d holds %d nodes, wants %d", j.ID, len(j.AssignedNodes), j.Nodes)
		}
		for _, n := range j.AssignedNodes {
			i, ok := r.s.nodeIndex[n]
			if !ok {
				r.violate("job %d holds unknown node %s", j.ID, n)
				continue
			}
			r.held[i]++
			if r.held[i] > 1 {
				r.violate("node %s double-allocated", n)
			}
			if r.s.free[i] {
				r.violate("node %s held by job %d but marked free", n, j.ID)
			}
			busy++
		}
	}
	if busy > r.n {
		r.violate("%d nodes busy of %d", busy, r.n)
	}
	// Invariant 2: no running job is past its deadline (the kill event at
	// the deadline fires before any later event).
	for _, j := range running {
		if r.e.Now() > j.Deadline {
			r.violate("running job %d past deadline", j.ID)
		}
	}
	// Invariant 3: the free count is the number of idle nodes.
	idle := 0
	for _, f := range r.s.free {
		if f {
			idle++
		}
	}
	if got := r.s.freeCount(); got != idle || idle != r.n-busy {
		r.violate("free count %d, %d nodes marked idle, %d not held", got, idle, r.n-busy)
	}
	// Invariant 4: the running set is every running job, in ID order.
	if got := r.s.RunningInto(nil); !slices.Equal(got, running) {
		r.violate("running set %v, want %v", jobIDs(got), jobIDs(running))
	}
	// Invariant 5: the queue holds exactly the pending jobs, in (Submit, ID)
	// order.
	pending := 0
	for _, j := range jobs {
		if j.State == JobPending {
			pending++
		}
	}
	q := r.s.pending
	if len(q) != pending {
		r.violate("queue holds %d jobs, %d are pending", len(q), pending)
	}
	for i := 1; i < len(q); i++ {
		a, b := q[i-1], q[i]
		if a.Submit > b.Submit || a.Submit == b.Submit && a.ID >= b.ID {
			r.violate("queue out of order: job %d (%v) before job %d (%v)", a.ID, a.Submit, b.ID, b.Submit)
		}
	}
	// Invariant 6: the head's reservation is the one a scan of every job
	// and sort.Slice give, ties included.
	if len(q) > 0 {
		shadow, extra := r.s.headReservation(q[0])
		wantShadow, wantExtra := referenceReservation(r.s, q[0])
		if shadow != wantShadow || extra != wantExtra {
			r.violate("head %d reservation (%v, %d), reference (%v, %d)", q[0].ID, shadow, extra, wantShadow, wantExtra)
		}
	}
}

// referenceReservation computes headReservation from first principles: scan
// every job ever submitted for running ones and order their releases with
// sort.Slice.
func referenceReservation(s *Scheduler, head *Job) (shadow time.Duration, extra int) {
	var rels []release
	for _, j := range s.Jobs() {
		if j.State == JobRunning {
			rels = append(rels, release{j.Deadline, j.Nodes})
		}
	}
	sort.Slice(rels, func(i, k int) bool { return rels[i].at < rels[k].at })
	avail := s.freeCount()
	shadow = s.engine.Now()
	for avail < head.Nodes && len(rels) > 0 {
		avail += rels[0].nodes
		shadow = rels[0].at
		rels = rels[1:]
	}
	if avail < head.Nodes {
		return shadow, 0
	}
	for s.maintenanceBlocks(shadow, head.Walltime) {
		shadow = s.nextMaintenanceEndAfter(shadow, head.Walltime)
	}
	return shadow, avail - head.Nodes
}

func jobIDs(js []*Job) []int {
	ids := make([]int, len(js))
	for i, j := range js {
		ids[i] = j.ID
	}
	return ids
}

// randomWorkload drives one seeded workload on an n-node rig: jobs
// submissions of 1..maxNodes nodes on a 5-minute grid with walltimes in
// 10-minute steps (so deadlines tie), random completions, extensions and
// requeues, and one maintenance window. It checks the invariants after every
// event until the engine drains, and reports whether none broke.
func randomWorkload(t *testing.T, seed int64, nodes, jobs, maxNodes int) bool {
	rng := rand.New(rand.NewSource(seed))
	r := newInvariantRig(seed, nodes)
	r.s.SetHooks(func(j *Job) {
		// Jobs complete after a random fraction of their walltime
		// (sometimes exceeding it -> killed).
		frac := 0.3 + rng.Float64()
		d := time.Duration(float64(j.Walltime) * frac)
		id := j.ID
		r.e.After(d, func() { r.s.JobFinished(id) })
	}, nil)

	for i := 0; i < jobs; i++ {
		at := time.Duration(rng.Intn(48)) * 5 * time.Minute
		size := 1 + rng.Intn(maxNodes)
		wall := time.Duration(1+rng.Intn(12)) * 10 * time.Minute
		name := "j" + string([]byte{byte('a' + i%26)})
		r.e.At(at, func() {
			_, _ = r.s.Submit(name, "u", size, wall, 0)
		})
	}
	maint := time.Hour + time.Duration(rng.Intn(6))*time.Hour
	if err := r.s.AddMaintenance(maint, maint+30*time.Minute); err != nil {
		t.Fatal(err)
	}
	// Random extensions and requeues against running jobs.
	r.e.Every(7*time.Minute, 7*time.Minute, func() bool {
		running := r.s.Running()
		if len(running) > 0 {
			j := running[rng.Intn(len(running))]
			switch rng.Intn(3) {
			case 0:
				r.s.RequestExtension(j.ID, time.Duration(1+rng.Intn(60))*time.Minute)
			case 1:
				_ = r.s.Requeue(j.ID)
			}
		}
		return r.e.Now() < 12*time.Hour
	})
	r.check()
	for r.e.Step() {
		r.check()
	}
	if len(r.violations) > 0 {
		t.Logf("seed %d: %d violations, first: %v", seed, len(r.violations), r.violations[:min(3, len(r.violations))])
		return false
	}
	return true
}

// TestSchedulerInvariantsUnderRandomWorkload drives random submissions,
// completions, extensions, requeues and maintenance on a small cluster,
// checking invariants after every event.
func TestSchedulerInvariantsUnderRandomWorkload(t *testing.T) {
	f := func(seed int64) bool { return randomWorkload(t, seed, 8, 40, 8) }
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestSchedulerInvariantsAtStress10kSize runs the random workload on 10,240
// nodes, the stress10k facility's size, with jobs of up to a quarter of it.
func TestSchedulerInvariantsAtStress10kSize(t *testing.T) {
	f := func(seed int64) bool { return randomWorkload(t, seed, 10240, 200, 2560) }
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Error(err)
	}
}

// TestNoJobLostUnderChurn: every submitted job reaches a terminal state or
// is still legitimately queued/running at the end; none vanish.
func TestNoJobLostUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	r := newInvariantRig(77, 4)
	r.s.SetHooks(func(j *Job) {
		id := j.ID
		r.e.After(time.Duration(rng.Int63n(int64(2*time.Hour))), func() { r.s.JobFinished(id) })
	}, nil)
	_ = r.s.AddMaintenance(3*time.Hour, 4*time.Hour)
	for i := 0; i < 60; i++ {
		at := time.Duration(rng.Int63n(int64(8 * time.Hour)))
		r.e.At(at, func() {
			_, _ = r.s.Submit("x", "u", 1+rng.Intn(4), time.Duration(20+rng.Intn(100))*time.Minute, 0)
		})
	}
	r.e.RunUntil(48 * time.Hour)
	counts := map[JobState]int{}
	for _, j := range r.s.Jobs() {
		counts[j.State]++
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != r.s.Stats().Submitted {
		t.Errorf("job accounting mismatch: %d tracked vs %d submitted", total, r.s.Stats().Submitted)
	}
	if counts[JobPending] != 0 || counts[JobRunning] != 0 {
		t.Errorf("jobs stuck after 48h drain: %v", counts)
	}
	if counts[JobCompleted]+counts[JobKilledWalltime]+counts[JobKilledMaint] != total {
		t.Errorf("non-terminal states remain: %v", counts)
	}
}

// TestBackfillNeverExceedsCapacity exercises heavy backfill pressure.
func TestBackfillNeverExceedsCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := newInvariantRig(5, 6)
	r.s.SetHooks(func(j *Job) {
		id := j.ID
		d := time.Duration(float64(j.Walltime) * (0.5 + rng.Float64()*0.4))
		r.e.After(d, func() { r.s.JobFinished(id) })
	}, nil)
	// Burst of mixed-size jobs at t=0 maximizes backfill decisions.
	for i := 0; i < 30; i++ {
		_, _ = r.s.Submit("b", "u", 1+rng.Intn(6), time.Duration(15+rng.Intn(180))*time.Minute, 0)
	}
	r.e.Every(time.Minute, time.Minute, func() bool {
		r.check()
		return r.e.Now() < 24*time.Hour
	})
	r.e.RunUntil(24 * time.Hour)
	if len(r.violations) > 0 {
		t.Fatalf("violations: %v", r.violations[:min(5, len(r.violations))])
	}
	if r.s.Stats().BackfillStart == 0 {
		t.Error("scenario produced no backfill at all — not exercising the path")
	}
}
