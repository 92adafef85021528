package sched

import (
	"testing"
	"time"

	"autoloop/internal/sim"
)

// testRig wires a scheduler whose jobs complete after a per-job "actual
// runtime" registered before submission, mimicking the app framework.
type testRig struct {
	e *sim.Engine
	s *Scheduler
	// actual runtime keyed by job name; zero means run forever (until killed)
	actual map[string]time.Duration
	killed map[int]KillReason
}

func newRig(t *testing.T, nodes int) *testRig {
	t.Helper()
	e := sim.NewEngine(1)
	ids := make([]string, nodes)
	for i := range ids {
		ids[i] = nodeName(i)
	}
	r := &testRig{e: e, actual: map[string]time.Duration{}, killed: map[int]KillReason{}}
	r.s = New(e, ids, DefaultExtensionPolicy())
	r.s.SetHooks(
		func(j *Job) {
			if d, ok := r.actual[j.Name]; ok && d > 0 {
				id := j.ID
				e.After(d, func() { r.s.JobFinished(id) })
			}
		},
		func(j *Job, reason KillReason) { r.killed[j.ID] = reason },
	)
	return r
}

func nodeName(i int) string {
	return string([]byte{'n', byte('0' + i/10), byte('0' + i%10)})
}

func (r *testRig) submit(t *testing.T, name string, nodes int, wall, actual time.Duration) *Job {
	t.Helper()
	r.actual[name] = actual
	j, err := r.s.Submit(name, "u", nodes, wall, 0)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestFCFSStartAndCompletion(t *testing.T) {
	r := newRig(t, 4)
	j := r.submit(t, "a", 2, time.Hour, 30*time.Minute)
	r.e.Run()
	if j.State != JobCompleted {
		t.Fatalf("state = %v", j.State)
	}
	if j.End-j.Start != 30*time.Minute {
		t.Errorf("ran %v, want 30m", j.End-j.Start)
	}
	st := r.s.Stats()
	if st.Completed != 1 || st.Started != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.NodeSecondsUsed != 30*60*2 {
		t.Errorf("NodeSecondsUsed = %v", st.NodeSecondsUsed)
	}
}

func TestWalltimeKill(t *testing.T) {
	r := newRig(t, 2)
	j := r.submit(t, "a", 1, time.Hour, 0) // runs forever
	r.e.RunUntil(2 * time.Hour)
	if j.State != JobKilledWalltime {
		t.Fatalf("state = %v, want killed-walltime", j.State)
	}
	if r.killed[j.ID] != KillWalltime {
		t.Errorf("kill reason = %v", r.killed[j.ID])
	}
	if j.End != time.Hour {
		t.Errorf("killed at %v, want 1h", j.End)
	}
	if got := r.s.Stats().NodeSecondsWasted; got != 3600 {
		t.Errorf("wasted = %v, want 3600", got)
	}
}

func TestQueueingWhenFull(t *testing.T) {
	r := newRig(t, 2)
	a := r.submit(t, "a", 2, time.Hour, 30*time.Minute)
	b := r.submit(t, "b", 2, time.Hour, 10*time.Minute)
	if a.State != JobRunning {
		t.Fatalf("a should start immediately")
	}
	if b.State != JobPending {
		t.Fatalf("b should queue")
	}
	r.e.Run()
	if b.Start != 30*time.Minute {
		t.Errorf("b started at %v, want 30m", b.Start)
	}
	if got := r.s.Stats().MeanWait(); got != 15*time.Minute {
		t.Errorf("mean wait = %v, want 15m", got)
	}
}

func TestEASYBackfillStartsShortJob(t *testing.T) {
	r := newRig(t, 4)
	// a occupies all 4 nodes for 2h (walltime 2h).
	a := r.submit(t, "a", 4, 2*time.Hour, 2*time.Hour-time.Minute)
	// b needs all 4 nodes: blocked until a ends -> shadow at 2h.
	b := r.submit(t, "b", 4, time.Hour, 30*time.Minute)
	// c is small and short: fits before the shadow, must backfill... but a
	// holds all nodes, so nothing is free. Give a only 3 nodes instead.
	_ = a
	_ = b
	r2 := newRig(t, 4)
	a2 := r2.submit(t, "a", 3, 2*time.Hour, 2*time.Hour-time.Minute)
	b2 := r2.submit(t, "b", 4, time.Hour, 30*time.Minute)
	c2 := r2.submit(t, "c", 1, time.Hour, 50*time.Minute) // 1 free node, ends 1h < shadow 2h
	if a2.State != JobRunning {
		t.Fatal("a2 should run")
	}
	if c2.State != JobRunning {
		t.Fatal("c2 should backfill onto the free node")
	}
	if !c2.Backfilled {
		t.Error("c2 should be marked backfilled")
	}
	r2.e.Run()
	if b2.Start < 2*time.Hour-time.Minute {
		t.Errorf("b2 started at %v, must wait for a2", b2.Start)
	}
	if r2.s.Stats().BackfillStart != 1 {
		t.Errorf("BackfillStart = %d", r2.s.Stats().BackfillStart)
	}
}

func TestBackfillDoesNotDelayHead(t *testing.T) {
	r := newRig(t, 4)
	// a: 3 nodes for 1h. Head b: 4 nodes (shadow = 1h).
	r.submit(t, "a", 3, time.Hour, time.Hour-time.Minute)
	b := r.submit(t, "b", 4, time.Hour, 10*time.Minute)
	// c: 1 node, 2h walltime — would run past the shadow and needs the head's
	// nodes (extra = 0), so EASY must NOT backfill it.
	c := r.submit(t, "c", 1, 2*time.Hour, 5*time.Minute)
	if c.State == JobRunning {
		t.Fatal("c must not backfill: it would delay the head")
	}
	r.e.Run()
	if b.Start > time.Hour {
		t.Errorf("head b delayed to %v", b.Start)
	}
}

func TestExtensionGrantedMovesDeadline(t *testing.T) {
	r := newRig(t, 2)
	j := r.submit(t, "a", 1, time.Hour, 90*time.Minute)
	r.e.RunUntil(30 * time.Minute)
	res := r.s.RequestExtension(j.ID, time.Hour)
	if res.Granted != time.Hour {
		t.Fatalf("granted = %v (%s)", res.Granted, res.Reason)
	}
	r.e.Run()
	if j.State != JobCompleted {
		t.Errorf("state = %v, want completed after extension", j.State)
	}
	st := r.s.Stats()
	if st.ExtensionsGranted != 1 || st.ExtensionGranted != time.Hour {
		t.Errorf("stats = %+v", st)
	}
}

func TestExtensionCountCap(t *testing.T) {
	r := newRig(t, 2)
	r.s.policy = ExtensionPolicy{MaxPerJob: 1, MaxTotalPerJob: 10 * time.Hour}
	j := r.submit(t, "a", 1, time.Hour, 0)
	r.e.RunUntil(10 * time.Minute)
	if res := r.s.RequestExtension(j.ID, 30*time.Minute); res.Granted == 0 {
		t.Fatalf("first extension denied: %s", res.Reason)
	}
	if res := r.s.RequestExtension(j.ID, 30*time.Minute); res.Granted != 0 {
		t.Error("second extension should be denied by count cap")
	}
	if r.s.Stats().ExtensionsDenied != 1 {
		t.Errorf("denied = %d", r.s.Stats().ExtensionsDenied)
	}
}

func TestExtensionTotalCapGrantsPartial(t *testing.T) {
	r := newRig(t, 2)
	r.s.policy = ExtensionPolicy{MaxPerJob: 10, MaxTotalPerJob: time.Hour}
	j := r.submit(t, "a", 1, 2*time.Hour, 0)
	r.e.RunUntil(10 * time.Minute)
	res := r.s.RequestExtension(j.ID, 90*time.Minute)
	if res.Granted != time.Hour {
		t.Errorf("granted = %v, want partial 1h (%s)", res.Granted, res.Reason)
	}
	if r.s.Stats().ExtensionsPartial != 1 {
		t.Errorf("partial = %d", r.s.Stats().ExtensionsPartial)
	}
	if res := r.s.RequestExtension(j.ID, time.Minute); res.Granted != 0 {
		t.Error("cap exhausted, should deny")
	}
}

func TestExtensionDeniedWhenNotRunning(t *testing.T) {
	r := newRig(t, 2)
	j := r.submit(t, "a", 1, time.Hour, time.Minute)
	r.e.Run()
	if res := r.s.RequestExtension(j.ID, time.Minute); res.Granted != 0 {
		t.Error("completed job must not be extendable")
	}
	if res := r.s.RequestExtension(999, time.Minute); res.Granted != 0 {
		t.Error("unknown job must be denied")
	}
	r2 := newRig(t, 2)
	j2 := r2.submit(t, "a", 1, time.Hour, 0)
	r2.e.RunUntil(time.Minute)
	if res := r2.s.RequestExtension(j2.ID, -time.Minute); res.Granted != 0 {
		t.Error("negative extension must be denied")
	}
}

func TestExtensionBackfillGuard(t *testing.T) {
	r := newRig(t, 2)
	r.s.policy = ExtensionPolicy{MaxPerJob: 5, MaxTotalPerJob: 10 * time.Hour, BackfillGuard: true}
	a := r.submit(t, "a", 2, time.Hour, 0)
	r.e.RunUntil(10 * time.Minute)
	b := r.submit(t, "b", 2, time.Hour, 10*time.Minute) // queued head, shadow = a's deadline
	if b.State != JobPending {
		t.Fatal("b should be pending")
	}
	res := r.s.RequestExtension(a.ID, time.Hour)
	if res.Granted != 0 {
		t.Errorf("guard should deny extension that delays head (%s)", res.Reason)
	}
	// Without the guard the same request is granted and the delay recorded.
	r.s.policy = ExtensionPolicy{MaxPerJob: 5, MaxTotalPerJob: 10 * time.Hour, BackfillGuard: false}
	res = r.s.RequestExtension(a.ID, time.Hour)
	if res.Granted != time.Hour {
		t.Errorf("ungated extension denied: %s", res.Reason)
	}
	if got := r.s.Stats().UntakenBackfillDelay; got != time.Hour {
		t.Errorf("UntakenBackfillDelay = %v, want 1h", got)
	}
}

func TestMaintenanceKillsRunningJobs(t *testing.T) {
	r := newRig(t, 2)
	j := r.submit(t, "a", 1, 4*time.Hour, 0)
	if err := r.s.AddMaintenance(time.Hour, 2*time.Hour); err != nil {
		t.Fatal(err)
	}
	r.e.RunUntil(90 * time.Minute)
	if j.State != JobKilledMaint {
		t.Fatalf("state = %v, want killed-maint", j.State)
	}
	if r.killed[j.ID] != KillMaintenance {
		t.Errorf("reason = %v", r.killed[j.ID])
	}
}

func TestMaintenanceBlocksOverlappingStarts(t *testing.T) {
	r := newRig(t, 2)
	if err := r.s.AddMaintenance(time.Hour, 2*time.Hour); err != nil {
		t.Fatal(err)
	}
	// 90-minute walltime submitted at t=0 would overlap the window: must wait
	// until the window ends.
	j := r.submit(t, "a", 1, 90*time.Minute, 10*time.Minute)
	if j.State != JobPending {
		t.Fatal("job should be blocked by upcoming maintenance")
	}
	r.e.Run()
	if j.Start != 2*time.Hour {
		t.Errorf("started at %v, want 2h (after maintenance)", j.Start)
	}
	// A short job fits before the window and starts immediately.
	r2 := newRig(t, 2)
	_ = r2.s.AddMaintenance(time.Hour, 2*time.Hour)
	k := r2.submit(t, "b", 1, 30*time.Minute, 10*time.Minute)
	if k.State != JobRunning {
		t.Error("short job should start before maintenance")
	}
}

func TestExtensionTruncatedByMaintenance(t *testing.T) {
	r := newRig(t, 2)
	j := r.submit(t, "a", 1, time.Hour, 0)
	if err := r.s.AddMaintenance(90*time.Minute, 2*time.Hour); err != nil {
		t.Fatal(err)
	}
	r.e.RunUntil(10 * time.Minute)
	res := r.s.RequestExtension(j.ID, 2*time.Hour)
	if res.Granted != 30*time.Minute {
		t.Errorf("granted = %v, want 30m (truncated at maintenance)", res.Granted)
	}
}

func TestRequeue(t *testing.T) {
	r := newRig(t, 2)
	j := r.submit(t, "a", 2, time.Hour, 0)
	r.e.RunUntil(20 * time.Minute)
	if err := r.s.Requeue(j.ID); err != nil {
		t.Fatal(err)
	}
	if j.State != JobRunning { // immediately rescheduled: cluster is empty
		t.Fatalf("state = %v, want running after requeue onto free cluster", j.State)
	}
	if j.Requeues != 1 {
		t.Errorf("Requeues = %d", j.Requeues)
	}
	if r.killed[j.ID] != KillRequeue {
		t.Errorf("kill hook reason = %v", r.killed[j.ID])
	}
	if err := r.s.Requeue(999); err == nil {
		t.Error("unknown job requeue should error")
	}
}

func TestRequeuedJobNotKilledByStaleDeadline(t *testing.T) {
	r := newRig(t, 2)
	j := r.submit(t, "a", 1, time.Hour, 0)
	r.e.RunUntil(30 * time.Minute)
	_ = r.s.Requeue(j.ID) // restarts immediately, new deadline = 30m + 1h
	r.e.RunUntil(70 * time.Minute)
	if j.State != JobRunning {
		t.Fatalf("stale deadline killed requeued job: %v", j.State)
	}
	r.e.RunUntil(2 * time.Hour)
	if j.State != JobKilledWalltime {
		t.Errorf("state = %v, want killed at new deadline", j.State)
	}
	if j.End != 90*time.Minute {
		t.Errorf("killed at %v, want 90m", j.End)
	}
}

func TestSubmitValidation(t *testing.T) {
	r := newRig(t, 2)
	if _, err := r.s.Submit("a", "u", 0, time.Hour, 0); err == nil {
		t.Error("zero nodes should error")
	}
	if _, err := r.s.Submit("a", "u", 3, time.Hour, 0); err == nil {
		t.Error("too many nodes should error")
	}
	if _, err := r.s.Submit("a", "u", 1, 0, 0); err == nil {
		t.Error("zero walltime should error")
	}
}

func TestAddMaintenanceValidation(t *testing.T) {
	r := newRig(t, 2)
	if err := r.s.AddMaintenance(2*time.Hour, time.Hour); err == nil {
		t.Error("inverted window should error")
	}
	r.e.RunUntil(time.Hour)
	if err := r.s.AddMaintenance(30*time.Minute, 2*time.Hour); err == nil {
		t.Error("window in the past should error")
	}
}

func TestCollector(t *testing.T) {
	r := newRig(t, 4)
	r.submit(t, "a", 2, time.Hour, 0)
	r.submit(t, "b", 4, time.Hour, 0)
	col := r.s.Collector()
	pts := col.Collect(r.e.Now())
	vals := map[string]float64{}
	for i, p := range pts {
		vals[p.Name] = p.Value
		// The four gauges are static series: each keeps its own ref.
		if again := col.Collect(r.e.Now())[i]; p.Ref == nil || again.Ref != p.Ref || again.Name != p.Name {
			t.Errorf("%s: ref %p, then %s with ref %p", p.Name, p.Ref, again.Name, again.Ref)
		}
		if i > 0 && p.Ref == pts[i-1].Ref {
			t.Errorf("%s shares a ref with %s", p.Name, pts[i-1].Name)
		}
	}
	if vals["sched.queue.len"] != 1 {
		t.Errorf("queue.len = %v", vals["sched.queue.len"])
	}
	if vals["sched.jobs.running"] != 1 {
		t.Errorf("jobs.running = %v", vals["sched.jobs.running"])
	}
	if vals["sched.nodes.busy"] != 2 {
		t.Errorf("nodes.busy = %v", vals["sched.nodes.busy"])
	}
	if vals["sched.util"] != 0.5 {
		t.Errorf("util = %v", vals["sched.util"])
	}
}

func TestJobAccessors(t *testing.T) {
	r := newRig(t, 2)
	j := r.submit(t, "a", 1, time.Hour, 0)
	r.e.RunUntil(20 * time.Minute)
	if got := j.Remaining(r.e.Now()); got != 40*time.Minute {
		t.Errorf("Remaining = %v, want 40m", got)
	}
	if _, ok := r.s.Job(j.ID); !ok {
		t.Error("Job lookup failed")
	}
	if len(r.s.Running()) != 1 {
		t.Error("Running should have 1 job")
	}
	// IDs index the job table from 1: a resubmission gets the next one, and
	// nothing outside 1..len resolves.
	again, err := r.s.Submit("a", "u", 1, time.Hour, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != j.ID+1 || again.ResubmitOf != j.ID {
		t.Errorf("resubmission = job %d of %d, want job %d of %d", again.ID, again.ResubmitOf, j.ID+1, j.ID)
	}
	if got, ok := r.s.Job(again.ID); !ok || got != again {
		t.Errorf("Job(%d) = %v, %v, want the resubmission", again.ID, got, ok)
	}
	for _, id := range []int{0, -1, again.ID + 1} {
		if got, ok := r.s.Job(id); ok || got != nil {
			t.Errorf("Job(%d) = %v, %v, want no job", id, got, ok)
		}
	}
	// Jobs hands out a copy: a caller reordering it leaves the table alone.
	all := r.s.Jobs()
	if len(all) != 2 || all[0] != j || all[1] != again {
		t.Fatalf("Jobs = %v, want both jobs in ID order", all)
	}
	all[0], all[1] = all[1], nil
	if got := r.s.Jobs(); got[0] != j || got[1] != again {
		t.Errorf("Jobs after mutating an earlier result = %v", got)
	}
	if got, _ := r.s.Job(j.ID); got != j {
		t.Errorf("Job(%d) after mutating Jobs' result = %v", j.ID, got)
	}
	if len(r.s.Running()) != 2 {
		t.Error("Running should have both jobs")
	}
	if JobPending.String() != "pending" || KillWalltime.String() != "walltime" {
		t.Error("String methods")
	}
}

func TestDeterministicSchedule(t *testing.T) {
	runOnce := func() []time.Duration {
		r := newRig(t, 8)
		for i := 0; i < 20; i++ {
			name := string([]byte{'j', byte('a' + i)})
			wall := time.Duration(30+i*7) * time.Minute
			actual := time.Duration(20+i*5) * time.Minute
			nodes := 1 + i%4
			r.actual[name] = actual
			r.e.After(time.Duration(i)*time.Minute, func() {
				_, _ = r.s.Submit(name, "u", nodes, wall, 0)
			})
		}
		r.e.Run()
		var starts []time.Duration
		for _, j := range r.s.Jobs() {
			starts = append(starts, j.Start)
		}
		return starts
	}
	a, b := runOnce(), runOnce()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule not deterministic at job %d: %v vs %v", i, a[i], b[i])
		}
	}
}
