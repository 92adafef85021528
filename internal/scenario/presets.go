package scenario

import (
	"time"

	"autoloop/internal/control"
)

func dur(d time.Duration) control.Duration { return control.Duration(d) }

func loops(cases ...string) []Loop {
	out := make([]Loop, 0, len(cases))
	for _, c := range cases {
		l, ok := TemplateFor(c)
		if !ok {
			l = Loop{LoopSpec: control.LoopSpec{Case: c}}
		}
		out = append(out, l)
	}
	return out
}

// Small is the quick-check preset: a one-rack cluster, a light workload, and
// one injection per domain inside a two-hour horizon. It is the shape used
// by EXP-S1's Quick mode and the decode fuzz corpus.
func Small(seed int64) *Spec {
	return &Spec{
		Name:    "small",
		Seed:    seed,
		Horizon: dur(2 * time.Hour),
		Facility: Facility{
			Nodes: 16,
			Plant: true,
			OSTs:  8,
		},
		Workload: &Workload{Jobs: 12},
		Loops:    loops("power", "ost", "misconfig"),
		Injections: []Injection{
			{Kind: KindThermalCascade, At: dur(20 * time.Minute), Count: 3},
			{Kind: KindDiskFailures, At: dur(60 * time.Minute)},
			{Kind: KindMisconfigSweep, At: dur(85 * time.Minute), Count: 3},
		},
	}
}

// Midsize is the chaos-diverse preset: a few racks, every built-in
// responder loop, a mixed workload, a maintenance window, and the full
// injector library including a phantom sensor flap. The scenario-smoke CI
// job runs it end-to-end under the race detector.
func Midsize(seed int64) *Spec {
	return &Spec{
		Name:    "midsize",
		Seed:    seed,
		Horizon: dur(4 * time.Hour),
		Facility: Facility{
			Nodes: 128,
			Plant: true,
			OSTs:  16,
		},
		Workload: &Workload{Jobs: 160},
		Maintenance: []Window{
			{At: dur(3 * time.Hour), Duration: dur(30 * time.Minute)},
		},
		Loops: loops("power", "ost", "ioqos", "misconfig", "maintenance"),
		Injections: []Injection{
			{Kind: KindThermalCascade, At: dur(25 * time.Minute), Count: 4},
			{Kind: KindCongestionStorm, At: dur(70 * time.Minute), Count: 24, Severity: 1024},
			{Kind: KindDiskFailures, At: dur(110 * time.Minute), Count: 3},
			{Kind: KindMisconfigSweep, At: dur(150 * time.Minute)},
			{Kind: KindSensorFlap, At: dur(130 * time.Minute), Severity: 2.6},
		},
	}
}

// Stress10k is the scale preset: a 10k-node facility feeding the TSDB at
// better than 10k series, with the fleet and three concurrent faults, inside
// a tight horizon so it doubles as a benchmark row.
func Stress10k(seed int64) *Spec {
	return &Spec{
		Name:        "stress-10k",
		Seed:        seed,
		Horizon:     dur(30 * time.Minute),
		SampleEvery: dur(30 * time.Second),
		Facility: Facility{
			Nodes:        10240,
			NodesPerRack: 64,
			Plant:        true,
			OSTs:         64,
		},
		Workload: &Workload{Jobs: 64},
		Loops:    loops("power", "ost", "ioqos", "misconfig"),
		Injections: []Injection{
			{Kind: KindThermalCascade, At: dur(5 * time.Minute), Count: 8},
			{Kind: KindDiskFailures, At: dur(8 * time.Minute), Count: 4},
			{Kind: KindCongestionStorm, At: dur(12 * time.Minute)},
		},
	}
}

// Unscored wraps plain control-plane specs as fleet members that opt out of
// scoring (domain "none"): a deployment that is served, not scored, keeps no
// event history.
func Unscored(specs ...control.LoopSpec) []Loop {
	out := make([]Loop, len(specs))
	for i, s := range specs {
		out[i] = Loop{LoopSpec: s, Domain: "none"}
	}
	return out
}

// Daemon is the facility modad serves: one rack behind a cooling plant, a
// small filesystem, a steady workload that keeps every signal alive, and
// the cooling + OST-avoidance loop pair at the control-round cadence. It
// carries no fault schedule and its horizon is a century, so a daemon
// driven by the wall clock never reaches it.
func Daemon(seed int64) *Spec {
	return &Spec{
		Name:    "daemon",
		Seed:    seed,
		Horizon: dur(100 * 365 * 24 * time.Hour),
		Facility: Facility{
			Nodes:            16,
			Plant:            true,
			OSTs:             8,
			OSTBandwidthMBps: 300,
			StripeCount:      4,
		},
		Workload: &Workload{
			Jobs:        6,
			ArrivalMean: dur(time.Second),
			Classes: []JobClass{{
				Name: "steady", Tenant: "ops",
				ItersMin: 1 << 20, ItersMax: 1 << 20,
				IterMean: dur(time.Minute), IterCV: 0.2,
				NodesMin: 2, NodesMax: 2,
				IOEvery: 7, IOSizeMB: 256, StripeCount: 4,
			}},
		},
		Loops: Unscored(
			control.LoopSpec{Case: "power", Period: dur(time.Minute)},
			control.LoopSpec{Case: "ost", Period: dur(time.Minute)},
		),
	}
}
