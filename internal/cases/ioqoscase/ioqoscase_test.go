package ioqoscase

import (
	"testing"
	"time"

	"autoloop/internal/knowledge"
	"autoloop/internal/pfs"
	"autoloop/internal/sim"
	"autoloop/internal/telemetry"
	"autoloop/internal/tsdb"
)

type rig struct {
	e   *sim.Engine
	db  *tsdb.DB
	fs  *pfs.FS
	kb  *knowledge.Base
	ctl *Controller
}

func tenants() []Tenant {
	return []Tenant{
		{Name: "deadline", Priority: 3, TargetLatMS: 500},
		{Name: "batch", Priority: 1},
	}
}

// newRig builds the paper's scenario: QoS allocations start as "rough
// estimates over a research campaign" — deliberately over-provisioned
// (2000 MB/s of paper allocations over a 400 MB/s backend), so a saturating
// best-effort tenant really interferes until the campaign loop tightens it.
func newRig(t *testing.T) *rig {
	t.Helper()
	e := sim.NewEngine(1)
	db := tsdb.New(0)
	fs := pfs.New(e, pfs.Config{OSTs: 4, OSTBandwidthMBps: 100, DefaultStripeCount: 2})
	kb := knowledge.NewBase()
	ctl := New(DefaultConfig(tenants(), 2000), db, fs, kb)
	pipe := telemetry.NewPipeline(telemetry.NewRegistryOf(fs.Collector()), db)
	e.Every(10*time.Second, 10*time.Second, func() bool {
		pipe.Sample(e.Now())
		return true
	})
	return &rig{e: e, db: db, fs: fs, kb: kb, ctl: ctl}
}

// interferer saturates the filesystem with a closed-loop writer: 8 streams
// of 150MB writes, each reissuing on completion (like a real I/O-bound app
// that blocks on its writes), until stopAt (0 = forever). Unthrottled, the
// streams keep the 400 MB/s backend at full queue depth.
func (r *rig) interferer(stopAt time.Duration) {
	f := r.fs.Open("batch", 4, nil)
	var issue func()
	issue = func() {
		if stopAt > 0 && r.e.Now() >= stopAt {
			return
		}
		r.fs.Write(f, 150, func(time.Duration) { issue() })
	}
	for i := 0; i < 8; i++ {
		issue()
	}
}

// victim issues the deadline tenant's modest writes, recording latencies.
func (r *rig) victim(lats *[]float64) {
	f := r.fs.Open("deadline", 2, nil)
	r.e.Every(10*time.Second, 10*time.Second, func() bool {
		r.fs.Write(f, 50, func(l time.Duration) {
			*lats = append(*lats, l.Seconds()*1000)
		})
		return r.e.Now() < 45*time.Minute
	})
}

func TestInitialAllocationsByPriority(t *testing.T) {
	r := newRig(t)
	d, b := r.ctl.alloc["deadline"], r.ctl.alloc["batch"]
	if d != 1500 || b != 500 {
		t.Errorf("allocations = %v/%v, want 1500/500 (3:1 priority over 2000)", d, b)
	}
	if v, ok := r.kb.Fact(factKey("deadline")); !ok || v != 1500 {
		t.Errorf("blackboard fact = %v, %v", v, ok)
	}
}

func TestChildLoopEnactsSetpoint(t *testing.T) {
	r := newRig(t)
	h := r.ctl.Hierarchy(6)
	h.RunEvery(sim.VirtualClock{Engine: r.e}, 10*time.Second, nil)
	r.e.RunUntil(time.Minute)
	rate, burst, ok := r.fs.QoS("deadline")
	if !ok || rate != 1500 || burst != 3000 {
		t.Errorf("bucket = %v/%v/%v, want 1500/3000/true", rate, burst, ok)
	}
}

func TestParentThrottlesBestEffortUnderViolation(t *testing.T) {
	r := newRig(t)
	h := r.ctl.Hierarchy(3)
	h.RunEvery(sim.VirtualClock{Engine: r.e}, 10*time.Second, nil)
	var lats []float64
	r.interferer(0)
	r.victim(&lats)
	r.e.RunUntil(30 * time.Minute)
	if r.ctl.Violations == 0 {
		t.Fatal("no violations observed; interference model broken")
	}
	if got := r.ctl.alloc["batch"]; got >= 500 {
		t.Errorf("batch allocation = %v, want throttled below initial 500", got)
	}
	if got := r.ctl.alloc["deadline"]; got != 1500 {
		t.Errorf("deadline allocation = %v, want untouched 1500", got)
	}
}

func TestRecoveryAfterBurstEnds(t *testing.T) {
	r := newRig(t)
	h := r.ctl.Hierarchy(3)
	h.RunEvery(sim.VirtualClock{Engine: r.e}, 10*time.Second, nil)
	var lats []float64
	r.interferer(10 * time.Minute)
	r.victim(&lats)
	r.e.RunUntil(12 * time.Minute)
	throttled := r.ctl.alloc["batch"]
	if throttled >= 500 {
		t.Fatalf("batch not throttled during burst: %v", throttled)
	}
	r.e.RunUntil(45 * time.Minute)
	recovered := r.ctl.alloc["batch"]
	if recovered <= throttled {
		t.Errorf("batch allocation did not recover: %v -> %v", throttled, recovered)
	}
}

func TestAdaptiveBeatsStaticTailLatency(t *testing.T) {
	measure := func(adaptive bool) (mean, p99 float64) {
		r := newRig(t)
		if adaptive {
			h := r.ctl.Hierarchy(3)
			h.RunEvery(sim.VirtualClock{Engine: r.e}, 10*time.Second, nil)
		} else {
			// Static QoS: the loose campaign buckets, never adjusted.
			r.fs.SetQoS("deadline", 1500, 3000)
			r.fs.SetQoS("batch", 500, 1000)
		}
		var lats []float64
		r.interferer(0)
		r.victim(&lats)
		r.e.RunUntil(30 * time.Minute)
		if len(lats) == 0 {
			t.Fatal("no victim completions")
		}
		sum := 0.0
		for _, l := range lats {
			sum += l
		}
		return sum / float64(len(lats)), tsdb.Percentile(lats, 0.99)
	}
	adaptiveMean, adaptiveP99 := measure(true)
	staticMean, staticP99 := measure(false)
	// The closed-loop interferer bounds queue depth, so the worst-case
	// (p99) saturates during the adaptation transient; the mean must
	// clearly improve and the tail must not get worse.
	if adaptiveMean >= staticMean/2 {
		t.Errorf("adaptive mean %.0fms should be well below static %.0fms", adaptiveMean, staticMean)
	}
	if adaptiveP99 > staticP99 {
		t.Errorf("adaptive p99 %.0fms worse than static %.0fms", adaptiveP99, staticP99)
	}
}

func TestNilDependencyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(DefaultConfig(tenants(), 100), nil, nil, nil)
}

func TestNoTenantsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	e := sim.NewEngine(1)
	New(DefaultConfig(nil, 100), tsdb.New(0), pfs.New(e, pfs.DefaultConfig()), knowledge.NewBase())
}
