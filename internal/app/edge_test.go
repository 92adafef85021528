package app

import (
	"sync"
	"testing"
	"time"

	"autoloop/internal/sched"
	"autoloop/internal/telemetry"
)

// TestKillDuringIOPhaseCancelsCompletion verifies the generation guard: a
// job killed while blocked in an I/O phase must not resume computing when
// the in-flight write completes.
func TestKillDuringIOPhaseCancelsCompletion(t *testing.T) {
	r := newRig(t)
	spec := basicSpec("io", 100, time.Minute)
	spec.IOEvery = 2
	spec.IOSizeMB = 6000 // 6000MB over 2 stripes at 100MB/s = 30s per chunk
	spec.StripeCount = 2
	j := r.launch(t, spec, 1, 3*time.Hour)
	inst, _ := r.rt.Instance(j.ID)
	// Iteration 2 ends at 2m; the I/O phase runs 2m..2m30s. Requeue inside it.
	r.e.RunUntil(2*time.Minute + 10*time.Second)
	if !inst.inIO {
		t.Fatal("test setup: expected to be inside the I/O phase")
	}
	if err := r.s.Requeue(j.ID); err != nil {
		t.Fatal(err)
	}
	// The new instance (restarted) must own the job; the old one is dead and
	// its pending I/O completion must not advance anything.
	inst2, _ := r.rt.Instance(j.ID)
	if inst2 == inst {
		t.Fatal("requeue should create a fresh instance")
	}
	r.e.RunUntil(4 * time.Minute)
	if inst.running {
		t.Error("old instance still running after requeue")
	}
	r.e.RunUntil(3 * time.Hour)
	r.e.RunUntil(6 * time.Hour)
	if j.State != sched.JobCompleted && j.State != sched.JobKilledWalltime {
		t.Fatalf("job in non-terminal state %v", j.State)
	}
}

// TestCheckpointDuringKillIsDropped: a checkpoint requested just before a
// kill must not fire its callback afterward.
func TestCheckpointRequestDroppedOnKill(t *testing.T) {
	r := newRig(t)
	spec := basicSpec("ck", 100, time.Minute)
	spec.CheckpointCost = 10 * time.Minute
	j := r.launch(t, spec, 1, 30*time.Minute)
	inst, _ := r.rt.Instance(j.ID)
	r.e.RunUntil(28 * time.Minute)
	fired := false
	_ = inst.RequestCheckpoint(func() { fired = true })
	// Job is killed at 30m; the checkpoint (ending at ~39m) must be dropped.
	r.e.RunUntil(2 * time.Hour)
	if j.State != sched.JobKilledWalltime {
		t.Fatalf("state = %v", j.State)
	}
	if fired {
		t.Error("checkpoint callback fired after the job died")
	}
}

// TestRequestCheckpointOnDeadInstanceErrors covers the guard.
func TestRequestCheckpointOnDeadInstanceErrors(t *testing.T) {
	r := newRig(t)
	j := r.launch(t, basicSpec("s", 2, time.Minute), 1, time.Hour)
	inst, _ := r.rt.Instance(j.ID)
	r.e.Run()
	if err := inst.RequestCheckpoint(nil); err == nil {
		t.Error("checkpoint on completed instance should error")
	}
}

// TestMarkerLabelsCarryIdentity verifies loop components can select a
// specific job's markers by label.
func TestMarkerLabelsCarryIdentity(t *testing.T) {
	r := newRig(t)
	j := r.launch(t, basicSpec("idapp", 3, time.Minute), 1, time.Hour)
	r.e.Run()
	ss := r.db.Query("app.progress", telemetry.Labels{"app": "idapp", "user": "alice"}, 0, time.Hour)
	if len(ss) != 1 {
		t.Fatalf("label query matched %d series", len(ss))
	}
	_ = j
}

// TestTSDBConcurrentReadersDuringAppends exercises the store's locking the
// way cmd/modad does: network readers querying while the simulation appends.
func TestTSDBConcurrentReadersDuringAppends(t *testing.T) {
	r := newRig(t)
	r.launch(t, basicSpec("busy", 500, time.Second), 1, time.Hour)
	var wg sync.WaitGroup
	stopReaders := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopReaders:
					return
				default:
					r.db.Query("app.progress", nil, 0, time.Hour)
					r.db.Latest("app.progress", nil)
				}
			}
		}()
	}
	r.e.RunUntil(10 * time.Minute) // appends markers while readers spin
	close(stopReaders)
	wg.Wait()
	if r.db.Appended() == 0 {
		t.Error("no samples appended")
	}
}
