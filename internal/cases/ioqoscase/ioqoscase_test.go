package ioqoscase

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"autoloop/internal/bus"
	"autoloop/internal/control"
	"autoloop/internal/core"
	"autoloop/internal/fleet"
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
	ctl *controller
	// bus carries the loops' trail once run; violations counts the
	// campaign's latency-violation findings on it.
	bus        *bus.Bus
	violations int
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
	ctl := newController(DefaultConfig(tenants(), 2000), db, fs, kb)
	pipe := telemetry.NewPipeline(telemetry.NewRegistryOf(fs.Collector()), db)
	e.Every(10*time.Second, 10*time.Second, func() bool {
		pipe.Sample(e.Now())
		return true
	})
	r := &rig{e: e, db: db, fs: fs, kb: kb, ctl: ctl, bus: bus.New()}
	r.bus.Subscribe("loop.ioqos-campaign.finding", func(env bus.Envelope) {
		if env.Payload.(*core.Finding).Kind == "latency-violation" {
			r.violations++
		}
	})
	return r
}

// run registers the case's loops on a fleet coordinator the way the control
// plane spawns them and ticks it every 10s of virtual time.
func (r *rig) run(parentEvery int) {
	coord := fleet.New(0)
	for _, bl := range r.ctl.builtLoops(parentEvery) {
		bl.Loop.Bus = r.bus
		coord.AddEvery(bl.Loop, FleetPriority, bl.EveryMul)
	}
	coord.RunEvery(sim.VirtualClock{Engine: r.e}, 10*time.Second, nil)
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
	if v, ok := r.kb.Fact("ioqos.alloc_mbps.deadline"); !ok || v != 1500 {
		t.Errorf("blackboard fact = %v, %v", v, ok)
	}
}

func TestChildLoopEnactsSetpoint(t *testing.T) {
	r := newRig(t)
	r.run(6)
	r.e.RunUntil(time.Minute)
	rate, burst, ok := r.fs.QoS("deadline")
	if !ok || rate != 1500 || burst != 3000 {
		t.Errorf("bucket = %v/%v/%v, want 1500/3000/true", rate, burst, ok)
	}
}

func TestParentThrottlesBestEffortUnderViolation(t *testing.T) {
	r := newRig(t)
	r.run(3)
	var lats []float64
	r.interferer(0)
	r.victim(&lats)
	r.e.RunUntil(30 * time.Minute)
	if r.violations == 0 {
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
	r.run(3)
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
			r.run(3)
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

// TestSpawnNamesMissingSubstrate: the case has no nil guard of its own;
// Spawn's capability check names what the environment lacks before Build
// runs.
func TestSpawnNamesMissingSubstrate(t *testing.T) {
	reg := control.NewRegistry()
	reg.MustRegister(Factory())
	_, err := reg.Spawn(&control.Env{Querier: tsdb.New(0)}, control.LoopSpec{Case: CaseName})
	if err == nil || !strings.Contains(err.Error(), "[pfs knowledge]") {
		t.Fatalf("spawn without a filesystem and knowledge: %v, want an error naming both", err)
	}
}

func TestNoTenantsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	e := sim.NewEngine(1)
	newController(DefaultConfig(nil, 100), tsdb.New(0), pfs.New(e, pfs.DefaultConfig()), knowledge.NewBase())
}

// TestDecisionDetailAllocs: a warm campaign Analyze+Plan allocates only the
// findings and actions slices, new each tick because the loop publishes
// pointers into them; the findings' details and the set-allocation
// explanation are data, rendered to the text the fmt format gives only when
// read. A whole campaign tick on a bus with a receiver adds only the
// outcome's Results slice: its events point at the tick's own values.
func TestDecisionDetailAllocs(t *testing.T) {
	r := newRig(t)
	l := r.ctl.parentLoop()
	latency := func(ms float64) core.Observation {
		return core.Observation{Points: []telemetry.Point{
			{Name: "pfs.tenant.lat_ms", Labels: telemetry.Labels{"tenant": "deadline"}, Value: ms},
		}}
	}
	cur := r.ctl.alloc["batch"]
	for _, tc := range []struct {
		obs               core.Observation
		detail, explained string
	}{
		{latency(120), "all latency objectives met",
			fmt.Sprintf("recover best-effort tenant batch: %.1f -> %.1f MB/s", cur, cur*1.15)},
		{latency(900.25), fmt.Sprintf("latency %.1fms exceeds objective %.1fms", 900.25, 500.0),
			fmt.Sprintf("throttle best-effort tenant batch: %.1f -> %.1f MB/s", cur, cur*0.6)},
	} {
		sym, _ := l.A.Analyze(time.Minute, tc.obs)
		plan, _ := l.P.Plan(time.Minute, sym)
		if len(sym.Findings) != 1 || len(plan.Actions) != 1 {
			t.Fatalf("%d findings, %d actions; want 1 and 1", len(sym.Findings), len(plan.Actions))
		}
		if got := sym.Findings[0].Detail.String(); got != tc.detail {
			t.Errorf("detail %q, want %q", got, tc.detail)
		}
		if got := plan.Actions[0].Explanation.String(); got != tc.explained {
			t.Errorf("explanation %q, want %q", got, tc.explained)
		}
		allocs := testing.AllocsPerRun(100, func() {
			sym, _ := l.A.Analyze(time.Minute, tc.obs)
			_, _ = l.P.Plan(time.Minute, sym)
		})
		if allocs > 2 {
			t.Errorf("%v allocations per Analyze+Plan, want 2 (the findings and actions slices)", allocs)
		}
	}

	// Alternate a violation and headroom, so every tick moves batch's
	// allocation and executes one set-allocation.
	ticks, observed := 0, [2]core.Observation{latency(120), latency(920)}
	l.M = core.MonitorFunc(func(now time.Duration) (core.Observation, error) {
		ticks++
		return observed[ticks%2], nil
	})
	l.Bus = bus.New()
	events := 0
	l.Bus.Subscribe("loop.*", func(bus.Envelope) { events++ })
	for range 4 {
		l.Tick(time.Minute)
	}
	executed := l.Metrics().ExecutedActions
	allocs := testing.AllocsPerRun(100, func() { l.Tick(time.Minute) })
	if got := l.Metrics().ExecutedActions - executed; got != 101 || events != 3*105 {
		t.Fatalf("%d executed, %d events over 105 ticks; want 101 and 315", got, events)
	}
	if allocs > 3 {
		t.Errorf("%v allocations per tick with a receiver, want 3 (findings, actions, results)", allocs)
	}
}
