// Package app models the applications running on the simulated cluster:
// iterative codes that emit progress markers ("rank 0 drops time-steps"),
// perform periodic I/O phases against the parallel filesystem, support
// checkpoint/restart, and can be launched with injected misconfigurations.
//
// The Runtime bridges the scheduler and the substrates: it implements the
// scheduler's start/kill hooks, simulates per-iteration execution on the
// event engine, drives node utilization on the cluster, emits application
// telemetry into the TSDB, and exposes the two actuators the paper's use
// cases need — RequestCheckpoint (Maintenance/Scheduler cases) and
// ReopenAvoiding (OST case) — plus FixMisconfig for the Misconfiguration
// case's "corrected on the fly" response.
package app

import (
	"fmt"
	"time"

	"autoloop/internal/hw"
	"autoloop/internal/pfs"
	"autoloop/internal/sched"
	"autoloop/internal/sim"
	"autoloop/internal/telemetry"
	"autoloop/internal/tsdb"
)

// Misconfig enumerates the injectable misconfigurations of the paper's
// Misconfiguration use case.
type Misconfig int

// Misconfiguration kinds.
const (
	MisconfigNone Misconfig = iota
	// MisconfigThreads oversubscribes threads to cores: iterations slow down
	// and the context-switch rate is pathologically high.
	MisconfigThreads
	// MisconfigUnderutil allocates more nodes than the code uses: half the
	// allocation idles.
	MisconfigUnderutil
	// MisconfigWrongLib picks up an unoptimized library from a wrong search
	// path: uniform slowdown plus a loader warning metric.
	MisconfigWrongLib
)

// String implements fmt.Stringer.
func (m Misconfig) String() string {
	switch m {
	case MisconfigNone:
		return "none"
	case MisconfigThreads:
		return "threads"
	case MisconfigUnderutil:
		return "underutil"
	case MisconfigWrongLib:
		return "wronglib"
	}
	return "unknown"
}

// Slowdown factors for injected misconfigurations.
const (
	threadsSlowdown  = 1.6
	wrongLibSlowdown = 1.3
)

// Spec describes an application's behavior.
type Spec struct {
	Name       string
	TotalIters int
	IterTime   sim.Dist

	// DriftPerIter adds a fractional slowdown per completed iteration
	// (e.g. 0.0002 -> 2% slower after 100 iterations), modeling codes whose
	// cost grows as the simulated system evolves.
	DriftPerIter float64

	// PhaseAt/PhaseFactor multiply iteration cost by PhaseFactor once
	// PhaseAt iterations have completed (0 disables), modeling phase changes
	// that break naive forecasts.
	PhaseAt     int
	PhaseFactor float64

	// MarkerEvery controls progress-marker cadence in iterations (default 1).
	MarkerEvery int

	// UtilMean is the node CPU utilization while computing (default 0.9).
	UtilMean float64

	// IOEvery/IOSizeMB/StripeCount describe periodic synchronous write
	// phases (0 disables I/O).
	IOEvery     int
	IOSizeMB    float64
	StripeCount int

	// CheckpointCost is the time to write one checkpoint.
	CheckpointCost time.Duration
	// AsyncCheckpoint makes checkpoints overlap computation (the paper's
	// extensibility path for the Scheduler case).
	AsyncCheckpoint bool

	Misconfig Misconfig
}

// withDefaults normalizes zero-valued optional fields.
func (s Spec) withDefaults() Spec {
	if s.MarkerEvery <= 0 {
		s.MarkerEvery = 1
	}
	if s.UtilMean <= 0 {
		s.UtilMean = 0.9
	}
	if s.PhaseFactor <= 0 {
		s.PhaseFactor = 1
	}
	return s
}

// Instance is one execution of an application under a job.
type Instance struct {
	Job  *sched.Job
	Spec Spec

	rt      *Runtime
	iter    int // completed iterations
	gen     int // invalidates in-flight events on kill/requeue
	running bool
	inIO    bool

	file *pfs.File

	ckptIter    int  // last checkpointed iteration (persisted across restarts)
	fixedConfig bool // misconfiguration corrected on the fly

	ckptPending []func() // callbacks waiting on the next checkpoint
	avoidOSTs   map[int]bool

	// window stats for telemetry
	lastIterSec float64
}

// Iter returns completed iterations.
func (i *Instance) Iter() int { return i.iter }

// CheckpointIter returns the last checkpointed iteration.
func (i *Instance) CheckpointIter() int { return i.ckptIter }

// File returns the instance's current output file (nil before start).
func (i *Instance) File() *pfs.File { return i.file }

// Runtime hosts application instances and bridges them to the scheduler,
// cluster, filesystem, and telemetry store.
type Runtime struct {
	engine *sim.Engine
	db     *tsdb.DB
	fs     *pfs.FS
	cl     *hw.Cluster

	specs     map[string]Spec
	instances map[int]*Instance // by job ID
	// ckpts persists checkpoint progress across requeue/resubmit, keyed by
	// job name (the "input deck" identity).
	ckpts map[string]int

	sched *sched.Scheduler // set by Serve; told of every finished job
}

// NewRuntime builds a runtime. db is required; fs and cl may be nil when the
// scenario involves no I/O or node-utilization modeling.
func NewRuntime(engine *sim.Engine, db *tsdb.DB, fs *pfs.FS, cl *hw.Cluster) *Runtime {
	if engine == nil || db == nil {
		panic("app: runtime requires engine and db")
	}
	return &Runtime{
		engine:    engine,
		db:        db,
		fs:        fs,
		cl:        cl,
		specs:     make(map[string]Spec),
		instances: make(map[int]*Instance),
		ckpts:     make(map[string]int),
	}
}

// Serve joins the runtime to s: s starts and kills its jobs through the
// runtime, and the runtime reports each job whose work finishes back to s.
// Call it before the first Submit.
func (r *Runtime) Serve(s *sched.Scheduler) {
	r.sched = s
	s.SetHooks(r.Start, r.Kill)
}

// RegisterSpec associates a job name with an application spec; Start looks
// specs up by job name.
func (r *Runtime) RegisterSpec(jobName string, spec Spec) {
	r.specs[jobName] = spec.withDefaults()
}

// Instance returns the instance executing job jobID.
func (r *Runtime) Instance(jobID int) (*Instance, bool) {
	inst, ok := r.instances[jobID]
	return inst, ok
}

// Start implements sched.StartFn: it begins (or resumes from checkpoint)
// execution of the job's registered application.
func (r *Runtime) Start(j *sched.Job) {
	spec, ok := r.specs[j.Name]
	if !ok {
		panic(fmt.Sprintf("app: no spec registered for job %q", j.Name))
	}
	inst := &Instance{
		Job:       j,
		Spec:      spec,
		rt:        r,
		iter:      r.ckpts[j.Name], // resume from checkpoint if any
		ckptIter:  r.ckpts[j.Name],
		running:   true,
		avoidOSTs: make(map[int]bool),
	}
	r.instances[j.ID] = inst
	if r.fs != nil && spec.IOEvery > 0 {
		inst.file = r.fs.Open(j.User, spec.StripeCount, nil)
	}
	inst.setUtil(inst.computeUtil())
	inst.emitMarker()
	inst.scheduleIteration()
}

// Kill implements sched.KillFn: it stops the instance, cancelling in-flight
// events.
func (r *Runtime) Kill(j *sched.Job, reason sched.KillReason) {
	inst, ok := r.instances[j.ID]
	if !ok {
		return
	}
	inst.stop()
	_ = reason
}

// computeUtil returns the target node utilization while computing, reflecting
// the misconfiguration model.
func (i *Instance) computeUtil() float64 {
	switch {
	case i.Spec.Misconfig == MisconfigThreads && !i.fixedConfig:
		return 0.98 // oversubscribed cores look "busy"
	default:
		return i.Spec.UtilMean
	}
}

// setUtil drives utilization on the job's assigned nodes. Under the
// underutilization misconfiguration only the first half of the allocation
// does work.
func (i *Instance) setUtil(util float64) {
	if i.rt.cl == nil {
		return
	}
	nodes := i.Job.AssignedNodes
	for idx, n := range nodes {
		u := util
		if i.Spec.Misconfig == MisconfigUnderutil && idx >= (len(nodes)+1)/2 {
			u = 0.02 // idle beyond OS noise
		}
		i.rt.cl.SetUtil(n, u)
	}
}

// slowdown returns the multiplicative iteration-cost factor at the current
// iteration.
func (i *Instance) slowdown() float64 {
	f := 1 + i.Spec.DriftPerIter*float64(i.iter)
	if i.Spec.PhaseAt > 0 && i.iter >= i.Spec.PhaseAt {
		f *= i.Spec.PhaseFactor
	}
	if !i.fixedConfig {
		switch i.Spec.Misconfig {
		case MisconfigThreads:
			f *= threadsSlowdown
		case MisconfigWrongLib:
			f *= wrongLibSlowdown
		}
	}
	return f
}

// scheduleIteration runs one iteration asynchronously.
func (i *Instance) scheduleIteration() {
	if !i.running {
		return
	}
	if i.iter >= i.Spec.TotalIters {
		i.complete()
		return
	}
	gen := i.gen
	dur := time.Duration(float64(i.Spec.IterTime.Sample(i.rt.engine.Rand())) * i.slowdown())
	i.lastIterSec = dur.Seconds()
	i.rt.engine.After(dur, func() {
		if gen != i.gen || !i.running {
			return
		}
		i.iter++
		if i.iter%i.Spec.MarkerEvery == 0 || i.iter == i.Spec.TotalIters {
			i.emitMarker()
		}
		// Serve any pending checkpoint request at the iteration boundary.
		if len(i.ckptPending) > 0 {
			i.checkpoint()
			return
		}
		if i.Spec.IOEvery > 0 && i.iter%i.Spec.IOEvery == 0 && i.iter < i.Spec.TotalIters {
			i.ioPhase()
			return
		}
		i.scheduleIteration()
	})
}

// ioPhase performs one synchronous write phase, then resumes computing.
func (i *Instance) ioPhase() {
	if i.rt.fs == nil || i.file == nil {
		i.scheduleIteration()
		return
	}
	gen := i.gen
	i.inIO = true
	i.setUtil(0.10) // mostly waiting on I/O
	start := i.rt.engine.Now()
	i.rt.fs.Write(i.file, i.Spec.IOSizeMB, func(lat time.Duration) {
		if gen != i.gen || !i.running {
			return
		}
		i.inIO = false
		i.setUtil(i.computeUtil())
		i.emit("app.io.lat_ms", lat.Seconds()*1000)
		_ = start
		i.scheduleIteration()
	})
}

// checkpoint writes a checkpoint, serves the waiting callbacks, and resumes.
// The pending queue is consumed up front so that iteration boundaries passed
// while an async checkpoint is in flight do not re-trigger it.
func (i *Instance) checkpoint() {
	gen := i.gen
	atIter := i.iter
	cbs := i.ckptPending
	i.ckptPending = nil
	finish := func() {
		if gen != i.gen {
			return
		}
		i.ckptIter = atIter
		i.rt.ckpts[i.Job.Name] = atIter
		i.emit("app.ckpt.iter", float64(atIter))
		for _, cb := range cbs {
			cb()
		}
	}
	if i.Spec.AsyncCheckpoint {
		// Overlaps computation: compute continues immediately.
		i.rt.engine.After(i.Spec.CheckpointCost, finish)
		i.scheduleIteration()
		return
	}
	i.rt.engine.After(i.Spec.CheckpointCost, func() {
		if gen != i.gen || !i.running {
			return
		}
		finish()
		i.scheduleIteration()
	})
}

// complete finishes the job's work and tells the served scheduler.
func (i *Instance) complete() {
	if !i.running {
		return
	}
	i.running = false
	i.gen++
	i.setUtil(0)
	i.emit("app.done", 1)
	if i.file != nil && i.rt.fs != nil {
		i.rt.fs.Close(i.file)
	}
	delete(i.rt.ckpts, i.Job.Name) // completed: no restart needed
	if i.rt.sched != nil {
		i.rt.sched.JobFinished(i.Job.ID)
	}
}

// stop halts execution (kill/requeue); checkpoint state persists for restart.
func (i *Instance) stop() {
	if !i.running {
		return
	}
	i.running = false
	i.gen++
	i.ckptPending = nil
	i.setUtil(0)
	if i.file != nil && i.rt.fs != nil {
		i.rt.fs.Close(i.file)
	}
}

// RequestCheckpoint asks the instance to checkpoint at the next iteration
// boundary; done (optional) fires when the checkpoint is durable. This is
// the application hook for the Maintenance and extended Scheduler cases.
func (i *Instance) RequestCheckpoint(done func()) error {
	if !i.running {
		return fmt.Errorf("app: job %d not running", i.Job.ID)
	}
	if done == nil {
		done = func() {}
	}
	i.ckptPending = append(i.ckptPending, done)
	return nil
}

// ReopenAvoiding closes the instance's output file and reopens it with a
// layout that avoids the given OSTs — the OST use case's response hook.
func (i *Instance) ReopenAvoiding(osts ...int) error {
	if i.rt.fs == nil || i.file == nil {
		return fmt.Errorf("app: job %d has no open file", i.Job.ID)
	}
	for _, o := range osts {
		i.avoidOSTs[o] = true
	}
	i.rt.fs.Close(i.file)
	i.file = i.rt.fs.Open(i.Job.User, i.Spec.StripeCount, i.avoidOSTs)
	i.emit("app.reopen", float64(len(i.avoidOSTs)))
	return nil
}

// FixMisconfig corrects a thread or library misconfiguration on the fly
// (re-pinning threads, fixing the library path). Underutilization cannot be
// fixed mid-run; the loop can only notify the user.
func (i *Instance) FixMisconfig() error {
	switch i.Spec.Misconfig {
	case MisconfigThreads, MisconfigWrongLib:
		i.fixedConfig = true
		i.setUtil(i.computeUtil())
		i.emit("app.misconfig.fixed", 1)
		return nil
	case MisconfigUnderutil:
		return fmt.Errorf("app: underutilization cannot be fixed mid-run")
	default:
		return fmt.Errorf("app: job %d has no misconfiguration", i.Job.ID)
	}
}

// Fixed reports whether a misconfiguration was corrected on the fly.
func (i *Instance) Fixed() bool { return i.fixedConfig }

// labels returns the instance's telemetry identity.
func (i *Instance) labels() telemetry.Labels {
	return telemetry.Labels{"job": fmt.Sprintf("%d", i.Job.ID), "app": i.Spec.Name, "user": i.Job.User}
}

// emit appends one application metric to the TSDB.
func (i *Instance) emit(name string, value float64) {
	_ = i.rt.db.Append(telemetry.Point{Name: name, Labels: i.labels(), Time: i.rt.engine.Now(), Value: value})
}

// emitMarker drops the progress marker set: app.progress (completed
// iterations), app.progress_total (the input deck's total), app.iter_time_ms,
// and misconfiguration signals. The whole set is ingested as one batch so a
// marker costs one TSDB lock round-trip, not one per metric.
func (i *Instance) emitMarker() {
	labels := i.labels()
	now := i.rt.engine.Now()
	batch := make([]telemetry.Point, 0, 4)
	add := func(name string, value float64) {
		batch = append(batch, telemetry.Point{Name: name, Labels: labels, Time: now, Value: value})
	}
	add("app.progress", float64(i.iter))
	add("app.progress_total", float64(i.Spec.TotalIters))
	if i.lastIterSec > 0 {
		add("app.iter_time_ms", i.lastIterSec*1000)
	}
	if !i.fixedConfig {
		switch i.Spec.Misconfig {
		case MisconfigThreads:
			// Oversubscription shows up as a context-switch storm.
			add("app.ctx_switch_rate", 50000+i.rt.engine.Rand().Float64()*20000)
		case MisconfigWrongLib:
			add("app.lib_warn", 1)
		}
	}
	if i.Spec.Misconfig == MisconfigNone || i.fixedConfig {
		add("app.ctx_switch_rate", 1000+i.rt.engine.Rand().Float64()*500)
	}
	_ = i.rt.db.AppendBatch(batch)
}
